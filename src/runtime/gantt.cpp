#include "runtime/gantt.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace tqr::runtime {

namespace {
const char* step_color(dag::Step s) {
  switch (s) {
    case dag::Step::kTriangulation:
      return "#c0392b";  // red: the serial panel work
    case dag::Step::kElimination:
      return "#e67e22";  // orange
    case dag::Step::kUpdateTriangulation:
      return "#2980b9";  // blue
    case dag::Step::kUpdateElimination:
      return "#27ae60";  // green
  }
  return "#7f8c8d";
}
}  // namespace

std::string render_gantt_svg(const TraceSnapshot& events,
                             const GanttOptions& options) {
  TQR_REQUIRE(events.size() <= options.max_events,
              "trace too large for an SVG gantt; filter or raise max_events");

  int max_device = 0;
  double t_end = 0;
  for (const auto& e : events) {
    max_device = std::max(max_device, e.device);
    t_end = std::max(t_end, e.end_s);
  }
  if (t_end <= 0) t_end = 1e-9;
  const int rows = max_device + 1;
  const int label_px = 110;
  const int height = rows * options.row_height_px + 40;
  const double x_scale = (options.width_px - label_px - 10) / t_end;

  std::ostringstream os;
  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\""
     << options.width_px << "\" height=\"" << height << "\">\n";
  os << "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";

  // Device rows and labels.
  for (int d = 0; d < rows; ++d) {
    const int y = 20 + d * options.row_height_px;
    std::string name = d < static_cast<int>(options.device_names.size())
                           ? options.device_names[d]
                           : "dev " + std::to_string(d);
    os << "<text x=\"4\" y=\"" << y + options.row_height_px / 2 + 4
       << "\" font-family=\"monospace\" font-size=\"12\">" << name
       << "</text>\n";
    os << "<line x1=\"" << label_px << "\" y1=\"" << y + options.row_height_px
       << "\" x2=\"" << options.width_px - 10 << "\" y2=\""
       << y + options.row_height_px << "\" stroke=\"#eee\"/>\n";
  }

  // Task rectangles.
  for (const auto& e : events) {
    const double x = label_px + e.start_s * x_scale;
    const double w = std::max(0.5, (e.end_s - e.start_s) * x_scale);
    const int y = 22 + e.device * options.row_height_px;
    os << "<rect x=\"" << x << "\" y=\"" << y << "\" width=\"" << w
       << "\" height=\"" << options.row_height_px - 6 << "\" fill=\""
       << step_color(dag::step_of(e.op)) << "\" fill-opacity=\"0.85\">"
       << "<title>" << dag::op_name(e.op) << " task " << e.task << " ["
       << e.start_s * 1e3 << ", " << e.end_s * 1e3 << "] ms</title></rect>\n";
  }

  // Time axis caption + legend.
  os << "<text x=\"" << label_px << "\" y=\"" << height - 8
     << "\" font-family=\"monospace\" font-size=\"12\">0 .. " << t_end * 1e3
     << " ms</text>\n";
  const std::pair<dag::Step, const char*> legend[] = {
      {dag::Step::kTriangulation, "T"},
      {dag::Step::kElimination, "E"},
      {dag::Step::kUpdateTriangulation, "UT"},
      {dag::Step::kUpdateElimination, "UE"},
  };
  int lx = options.width_px - 260;
  for (const auto& [step, label] : legend) {
    os << "<rect x=\"" << lx << "\" y=\"" << height - 20
       << "\" width=\"12\" height=\"12\" fill=\"" << step_color(step)
       << "\"/>\n";
    os << "<text x=\"" << lx + 16 << "\" y=\"" << height - 9
       << "\" font-family=\"monospace\" font-size=\"12\">" << label
       << "</text>\n";
    lx += 60;
  }
  os << "</svg>\n";
  return os.str();
}

}  // namespace tqr::runtime
