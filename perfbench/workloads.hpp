// Benchmark workloads and their seeded inputs.
//
// Every matrix and the whole small_mixed shape mix are derived from the
// --seed argument; the service only ever sees the generated matrices. A job
// is described by a JobInput (shape plus a per-job matrix seed), so a result
// can be re-checked after timing by regenerating its input instead of
// keeping every input matrix alive.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "la/matrix.hpp"

namespace perfbench {

using tqr::la::index_t;

struct Shape {
  index_t rows = 0;
  index_t cols = 0;
  bool operator==(const Shape&) const = default;
};

/// One job's input, regenerable from its fields alone.
struct JobInput {
  Shape shape;  // the matrix shape; for a batched job, the member shape
  int batch = 0;  // members of a batched job; 0 for a single-matrix job
  std::uint64_t matrix_seed = 0;
};

/// How a job was drawn in the small_mixed mix.
enum class Draw : std::uint8_t { kRepeating, kTail, kBatch };

struct Workload {
  std::string name;
  int clients = 1;
  /// Every job asks for the service's probe verification tier; otherwise
  /// jobs keep the JobSpec default tier.
  bool probe_verify = false;
  /// Shapes the warm-up pass submits once each (plus one batched job when
  /// batch_members > 0). The first one is the workload's reference shape:
  /// the per-layer numbers are taken on it.
  std::vector<Shape> warm_shapes;
  int batch_members = 0;  // members per batched job (0: no batched jobs)
  Shape batch_shape;
};

/// Workload names in the order BENCHMARK.json lists them.
std::vector<std::string> workload_names();
/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name);

/// small_mixed draw shares.
inline constexpr double kTailShare = 0.1;
inline constexpr double kBatchShare = 0.1;

/// Deterministic per-client job sequence: the same (workload, seed, client)
/// always yields the same inputs in the same order.
class JobStream {
 public:
  JobStream(const Workload& workload, std::uint64_t seed, int client);

  JobInput next();
  /// How the most recent next() was drawn.
  Draw last_draw() const { return last_draw_; }

 private:
  std::uint64_t draw_u64();
  Shape tail_shape();

  const Workload* workload_;
  std::uint64_t state_;
  std::uint64_t index_ = 0;
  Draw last_draw_ = Draw::kRepeating;
};

/// Inputs of the warm-up pass: one job per distinct shape.
std::vector<JobInput> warmup_inputs(const Workload& workload,
                                    std::uint64_t seed);

/// The matrix of a single-matrix job, or member `member` of a batched one.
tqr::la::Matrix<double> make_matrix(const JobInput& in, int member = 0);

/// Seed for the off-clock probe vector of a job (or batch member).
std::uint64_t probe_seed(const JobInput& in, int member = 0);

/// Useful flops of one job: la::flops_qr per matrix.
double useful_flops(const JobInput& in);

}  // namespace perfbench
