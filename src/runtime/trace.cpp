#include "runtime/trace.hpp"

#include <sstream>

namespace tqr::runtime {

std::string Trace::to_csv() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "task,op,step,device,start_s,end_s\n";
  for (const auto& e : events_) {
    if (e.kind != TraceEvent::Kind::kTask) continue;
    os << e.task << ',' << dag::op_name(e.op) << ','
       << dag::step_name(dag::step_of(e.op)) << ',' << e.device << ','
       << e.start_s << ',' << e.end_s << '\n';
  }
  return os.str();
}

}  // namespace tqr::runtime
