// SVG Gantt rendering of an execution trace: one row per device, one
// rectangle per task, colored by paper step (T/E/UT/UE). Output opens in
// any browser; intended for schedule debugging at small tile counts.
#pragma once

#include <string>

#include "runtime/trace.hpp"

namespace tqr::runtime {

struct GanttOptions {
  int width_px = 1200;
  int row_height_px = 28;
  /// Device display names (index = device id); empty -> "dev N".
  std::vector<std::string> device_names;
  /// Skip rendering above this many events (an SVG with millions of rects
  /// is useless); throws tqr::InvalidArgument when exceeded.
  std::size_t max_events = 20000;
};

/// Renders the events as a standalone SVG document.
std::string render_gantt_svg(const TraceSnapshot& events,
                             const GanttOptions& options = {});

}  // namespace tqr::runtime
