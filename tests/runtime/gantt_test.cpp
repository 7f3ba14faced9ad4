#include "runtime/gantt.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace tqr::runtime {
namespace {

void fill_small_trace(Trace& t) {
  t.record({0, dag::Op::kGeqrt, 0, 0.0, 1e-3});
  t.record({1, dag::Op::kUnmqr, 1, 1e-3, 2e-3});
  t.record({2, dag::Op::kTtqrt, 0, 1e-3, 1.5e-3});
  t.record({3, dag::Op::kTtmqr, 2, 2e-3, 3e-3});
}

TEST(Gantt, ProducesWellFormedSvg) {
  Trace t;
  fill_small_trace(t);
  const std::string svg = render_gantt_svg(t.events());
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // One rect per event (+ background + legend rects).
  std::size_t rects = 0, pos = 0;
  while ((pos = svg.find("<rect", pos)) != std::string::npos) {
    ++rects;
    pos += 5;
  }
  EXPECT_GE(rects, 4u + 1u);
}

TEST(Gantt, UsesProvidedDeviceNames) {
  GanttOptions opts;
  opts.device_names = {"CPU", "GTX580", "GTX680"};
  Trace t;
  fill_small_trace(t);
  const std::string svg = render_gantt_svg(t.events(), opts);
  EXPECT_NE(svg.find("GTX580"), std::string::npos);
  EXPECT_NE(svg.find("GTX680"), std::string::npos);
}

TEST(Gantt, FallsBackToGenericNames) {
  Trace t;
  fill_small_trace(t);
  const std::string svg = render_gantt_svg(t.events());
  EXPECT_NE(svg.find("dev 0"), std::string::npos);
  EXPECT_NE(svg.find("dev 2"), std::string::npos);
}

TEST(Gantt, StepsGetDistinctColors) {
  Trace t;
  fill_small_trace(t);
  const std::string svg = render_gantt_svg(t.events());
  EXPECT_NE(svg.find("#c0392b"), std::string::npos);  // T
  EXPECT_NE(svg.find("#e67e22"), std::string::npos);  // E
  EXPECT_NE(svg.find("#2980b9"), std::string::npos);  // UT
  EXPECT_NE(svg.find("#27ae60"), std::string::npos);  // UE
}

TEST(Gantt, RejectsHugeTraces) {
  Trace t;
  for (int i = 0; i < 100; ++i)
    t.record({i, dag::Op::kTsmqr, 0, i * 1e-3, i * 1e-3 + 1e-4});
  GanttOptions opts;
  opts.max_events = 50;
  EXPECT_THROW(render_gantt_svg(t.events(), opts), tqr::InvalidArgument);
}

TEST(Gantt, EmptyTraceStillRenders) {
  Trace t;
  const std::string svg = render_gantt_svg(t.events());
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

}  // namespace
}  // namespace tqr::runtime
