#include "dag/tiled_qr_dag.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "dag/task_accesses.hpp"
#include "la/flops.hpp"

namespace tqr::dag {
namespace {

TEST(TiledQrDag, SingleTileIsOneGeqrt) {
  TaskGraph g = build_tiled_qr_graph(1, 1, Elimination::kTs);
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g.task(0).op, Op::kGeqrt);
}

class GridSizes
    : public ::testing::TestWithParam<std::tuple<int, int, Elimination>> {};

TEST_P(GridSizes, TaskCountMatchesClosedForm) {
  const auto [mt, nt, elim] = GetParam();
  TaskGraph g = build_tiled_qr_graph(mt, nt, elim);
  const StepCounts total = total_step_counts(mt, nt, elim);
  const auto counts = g.step_counts();
  EXPECT_EQ(counts[0], total.triangulation);
  EXPECT_EQ(counts[1], total.elimination);
  EXPECT_EQ(counts[2], total.update_triangulation);
  EXPECT_EQ(counts[3], total.update_elimination);
}

TEST_P(GridSizes, GraphIsValidDag) {
  const auto [mt, nt, elim] = GetParam();
  TaskGraph g = build_tiled_qr_graph(mt, nt, elim);
  EXPECT_TRUE(g.validate());
}

TEST_P(GridSizes, ExactlyMinMtNtRootPanels) {
  const auto [mt, nt, elim] = GetParam();
  TaskGraph g = build_tiled_qr_graph(mt, nt, elim);
  int max_panel = -1;
  for (const Task& t : g.tasks()) max_panel = std::max(max_panel, int(t.k));
  EXPECT_EQ(max_panel + 1, std::min(mt, nt));
}

INSTANTIATE_TEST_SUITE_P(
    Grids, GridSizes,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                       ::testing::Values(1, 2, 3, 5, 8),
                       ::testing::Values(Elimination::kTs, Elimination::kTt,
                                         Elimination::kHier)));

TEST(TiledQrDag, TsPanelCounts) {
  const StepCounts c = panel_step_counts(5, 4, Elimination::kTs);
  EXPECT_EQ(c.triangulation, 1);
  EXPECT_EQ(c.elimination, 4);
  EXPECT_EQ(c.update_triangulation, 3);
  EXPECT_EQ(c.update_elimination, 12);
}

TEST(TiledQrDag, TtPanelCountsMatchPaperTable1Shape) {
  // Table I: T = M, E = M, UT = M(N-1), UE = M(N-1) — the TT variant up to
  // the M vs M-1 elimination/update distinction.
  const std::int64_t m = 6, n = 5;
  const StepCounts ours = panel_step_counts(m, n, Elimination::kTt);
  const StepCounts paper = paper_table1_counts(m, n);
  EXPECT_EQ(ours.triangulation, paper.triangulation);
  EXPECT_EQ(ours.elimination, paper.elimination - 1);
  EXPECT_EQ(ours.update_triangulation, paper.update_triangulation);
  EXPECT_EQ(ours.update_elimination, (m - 1) * (n - 1));
}

TEST(TiledQrDag, TtHasLowerCriticalPathThanTs) {
  // The binary elimination tree shortens the per-panel chain from O(M) to
  // O(log M). Weighted by kernel flops (TT kernels are also cheaper), the
  // critical path must be clearly smaller on a tall grid.
  const auto flops = [](const Task& t) {
    switch (t.op) {
      case Op::kGeqrt:
        return la::flops_geqrt(16);
      case Op::kUnmqr:
        return la::flops_unmqr(16);
      case Op::kTsqrt:
        return la::flops_tsqrt(16);
      case Op::kTsmqr:
        return la::flops_tsmqr(16);
      case Op::kTtqrt:
        return la::flops_ttqrt(16);
      case Op::kTtmqr:
        return la::flops_ttmqr(16);
      default:
        return 0.0;
    }
  };
  TaskGraph ts = build_tiled_qr_graph(32, 4, Elimination::kTs);
  TaskGraph tt = build_tiled_qr_graph(32, 4, Elimination::kTt);
  EXPECT_LT(tt.critical_path(flops), 0.8 * ts.critical_path(flops));
}

TEST(TiledQrDag, TsHasFewerTasksThanTt) {
  TaskGraph ts = build_tiled_qr_graph(8, 8, Elimination::kTs);
  TaskGraph tt = build_tiled_qr_graph(8, 8, Elimination::kTt);
  EXPECT_LT(ts.size(), tt.size());
}

TEST(TiledQrDag, FirstTaskIsPanelZeroGeqrt) {
  for (Elimination e : {Elimination::kTs, Elimination::kTt}) {
    TaskGraph g = build_tiled_qr_graph(4, 4, e);
    EXPECT_EQ(g.task(0).op, Op::kGeqrt);
    EXPECT_EQ(g.task(0).k, 0);
    EXPECT_EQ(g.indegree(0), 0);
  }
}

TEST(TiledQrDag, UnmqrOverlapsEliminationChain) {
  // The UNMQR of panel 0 reads only the V part of the diagonal tile, so it
  // must NOT depend on any TSQRT (which mutates only the R part).
  TaskGraph g = build_tiled_qr_graph(3, 3, Elimination::kTs);
  for (task_id t = 0; t < static_cast<task_id>(g.size()); ++t) {
    if (g.task(t).op != Op::kUnmqr || g.task(t).k != 0) continue;
    for (auto it = g.predecessors_begin(t); it != g.predecessors_end(t); ++it)
      EXPECT_NE(g.task(*it).op, Op::kTsqrt)
          << "UNMQR should not wait on TSQRT";
  }
}

TEST(TiledQrDag, RectangularGrids) {
  // Tall and wide grids build valid graphs with the right panel count.
  TaskGraph tall = build_tiled_qr_graph(10, 3, Elimination::kTt);
  TaskGraph wide = build_tiled_qr_graph(3, 10, Elimination::kTs);
  EXPECT_TRUE(tall.validate());
  EXPECT_TRUE(wide.validate());
}

TEST(HierDag, GroupMapIsContiguousAndBalanced) {
  // hier_group_of partitions [0, mt) into `groups` contiguous,
  // non-decreasing chunks covering every group exactly once.
  const std::int32_t mt = 13, groups = 4;
  std::int32_t prev = 0;
  std::vector<int> seen(groups, 0);
  for (std::int32_t i = 0; i < mt; ++i) {
    const std::int32_t g = hier_group_of(i, mt, groups);
    ASSERT_GE(g, prev);
    ASSERT_LT(g, groups);
    ASSERT_LE(g - prev, 1);  // no group skipped
    seen[g] = 1;
    prev = g;
  }
  for (int g = 0; g < groups; ++g) EXPECT_EQ(seen[g], 1);
  EXPECT_EQ(hier_group_of(0, mt, groups), 0);
  EXPECT_EQ(hier_group_of(mt - 1, mt, groups), groups - 1);
}

TEST(HierDag, PanelStructureTwoGroups) {
  // mt=8, one tile column, 2 groups: flat folds onto each group head
  // (rows 0 and 4), then one binary combine across the heads.
  TaskGraph g = build_tiled_qr_graph(8, 1, Elimination::kHier, 2);
  std::vector<std::pair<int, int>> combines;
  for (const Task& t : g.tasks())
    if (t.op == Op::kTtqrt) combines.emplace_back(t.p, t.i);
  const std::vector<std::pair<int, int>> expected = {
      {0, 1}, {0, 2}, {0, 3}, {4, 5}, {4, 6}, {4, 7}, {0, 4}};
  EXPECT_EQ(combines, expected);
  EXPECT_TRUE(g.validate());
}

TEST(HierDag, OneGroupDegeneratesToTtFlat) {
  TaskGraph hier = build_tiled_qr_graph(6, 3, Elimination::kHier, 1);
  TaskGraph flat = build_tiled_qr_graph(6, 3, Elimination::kTtFlat);
  ASSERT_EQ(hier.size(), flat.size());
  for (std::size_t t = 0; t < hier.size(); ++t) {
    EXPECT_EQ(hier.task(t).op, flat.task(t).op);
    EXPECT_EQ(hier.task(t).p, flat.task(t).p);
    EXPECT_EQ(hier.task(t).i, flat.task(t).i);
  }
}

TEST(HierDag, GroupCountIsClampedToValidRange) {
  // groups > mt and groups <= 0 both clamp instead of throwing: 0 means
  // "pick from the platform" upstream and lands at 1 here.
  EXPECT_TRUE(build_tiled_qr_graph(6, 2, Elimination::kHier, 100).validate());
  TaskGraph zero = build_tiled_qr_graph(6, 2, Elimination::kHier, 0);
  TaskGraph one = build_tiled_qr_graph(6, 2, Elimination::kHier, 1);
  ASSERT_EQ(zero.size(), one.size());
  for (std::size_t t = 0; t < zero.size(); ++t)
    EXPECT_EQ(zero.task(t).p, one.task(t).p);
}

TEST(HierDag, CriticalPathBeatsFlatTsChainOnTallGrids) {
  // The point of the hierarchy on tall-skinny grids: group folds run in
  // parallel, so the flops-weighted critical path is well below the flat
  // TS chain's O(M) reflector chain.
  const auto flops = [](const Task& t) {
    switch (t.op) {
      case Op::kGeqrt: return la::flops_geqrt(16);
      case Op::kUnmqr: return la::flops_unmqr(16);
      case Op::kTsqrt: return la::flops_tsqrt(16);
      case Op::kTsmqr: return la::flops_tsmqr(16);
      case Op::kTtqrt: return la::flops_ttqrt(16);
      case Op::kTtmqr: return la::flops_ttmqr(16);
      default: return 0.0;
    }
  };
  TaskGraph ts = build_tiled_qr_graph(32, 2, Elimination::kTs);
  TaskGraph hier = build_tiled_qr_graph(32, 2, Elimination::kHier, 4);
  EXPECT_LT(hier.critical_path(flops), 0.8 * ts.critical_path(flops));
}

TEST(TiledQrDag, RejectsEmptyGrid) {
  EXPECT_THROW(build_tiled_qr_graph(0, 3, Elimination::kTs),
               tqr::InvalidArgument);
}

TEST(TaskAccesses, GeqrtTouchesTileAndFactor) {
  Task t;
  t.op = Op::kGeqrt;
  t.k = 1;
  t.i = 2;
  TileAccess acc[5];
  const int n = tile_accesses(t, acc);
  ASSERT_EQ(n, 2);
  EXPECT_EQ(acc[0].plane, Plane::kA);
  EXPECT_TRUE(acc[0].read);
  EXPECT_TRUE(acc[0].write);
  EXPECT_EQ(acc[1].plane, Plane::kTg);
  EXPECT_FALSE(acc[1].read);
}

TEST(TaskAccesses, TsmqrReadsReflectorWritesTargets) {
  Task t;
  t.op = Op::kTsmqr;
  t.k = 0;
  t.i = 2;
  t.p = 0;
  t.j = 3;
  TileAccess acc[5];
  const int n = tile_accesses(t, acc);
  ASSERT_EQ(n, 4);
  // Reflector tile read-only.
  EXPECT_TRUE(acc[0].read);
  EXPECT_FALSE(acc[0].write);
  // Both target tiles read-write.
  EXPECT_TRUE(acc[2].write);
  EXPECT_TRUE(acc[3].write);
  EXPECT_EQ(acc[3].i, 2);
  EXPECT_EQ(acc[3].j, 3);
}

TEST(TileAccess, FirstToucherPrecedesEveryOtherAccess) {
  // core::QrTaskRunner loads each A tile inside its first toucher (the
  // first task in graph order that accesses it). That is race-free only if
  // the first toucher writes the tile and every other task that accesses
  // the tile is a graph descendant of it.
  struct Tree {
    Elimination elim;
    std::int32_t groups;
  };
  for (const Tree tree : {Tree{Elimination::kTs, 0}, Tree{Elimination::kTt, 0},
                          Tree{Elimination::kHier, 2},
                          Tree{Elimination::kHier, 4}}) {
    for (const auto& [mt, nt] :
         std::vector<std::pair<std::int32_t, std::int32_t>>{
             {1, 1}, {1, 4}, {4, 4}, {16, 4}, {7, 3}, {32, 2}}) {
      const TaskGraph g = build_tiled_qr_graph(mt, nt, tree.elim, tree.groups);
      const std::string where = std::string(elimination_name(tree.elim)) +
                                "/" + std::to_string(tree.groups) + " " +
                                std::to_string(mt) + "x" + std::to_string(nt);
      std::vector<task_id> first(static_cast<std::size_t>(mt) * nt, -1);
      std::vector<std::vector<task_id>> accessors(first.size());
      for (task_id t = 0; t < static_cast<task_id>(g.size()); ++t) {
        TileAccess acc[5];
        const int n = tile_accesses(g.task(t), acc);
        for (int idx = 0; idx < n; ++idx) {
          if (acc[idx].plane != Plane::kA) continue;
          const std::size_t tile =
              static_cast<std::size_t>(acc[idx].j) * mt + acc[idx].i;
          if (first[tile] < 0) {
            first[tile] = t;
            EXPECT_TRUE(acc[idx].write)
                << where << ": first toucher " << to_string(g.task(t))
                << " does not write its tile";
          } else {
            accessors[tile].push_back(t);
          }
        }
      }
      for (std::size_t tile = 0; tile < first.size(); ++tile) {
        ASSERT_GE(first[tile], 0) << where << ": tile " << tile
                                  << " is never touched";
        std::vector<bool> reached(g.size(), false);
        std::vector<task_id> stack = {first[tile]};
        reached[static_cast<std::size_t>(first[tile])] = true;
        while (!stack.empty()) {
          const task_id t = stack.back();
          stack.pop_back();
          for (const task_id* s = g.successors_begin(t);
               s != g.successors_end(t); ++s)
            if (!reached[static_cast<std::size_t>(*s)]) {
              reached[static_cast<std::size_t>(*s)] = true;
              stack.push_back(*s);
            }
        }
        for (const task_id t : accessors[tile])
          EXPECT_TRUE(reached[static_cast<std::size_t>(t)])
              << where << ": " << to_string(g.task(t))
              << " is not ordered after the first toucher "
              << to_string(g.task(first[tile]));
      }
    }
  }
}

}  // namespace
}  // namespace tqr::dag
