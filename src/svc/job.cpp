#include "svc/job.hpp"

#include <limits>

#include "common/error.hpp"

namespace tqr::svc {

namespace {

/// std::stoll with the exceptions translated: a malformed or out-of-range
/// number in a compound spec (like a job trace) becomes a tqr usage error,
/// not an uncaught std::out_of_range that aborts with exit code ~134.
std::int64_t parse_int_field(const std::string& text,
                             const std::string& what) {
  try {
    std::size_t used = 0;
    const long long v = std::stoll(text, &used);
    if (used != text.size())
      throw InvalidArgument("trailing characters in " + what + " '" + text +
                            "'");
    return v;
  } catch (const InvalidArgument&) {
    throw;
  } catch (const std::exception&) {
    throw InvalidArgument("bad " + what + " '" + text + "'");
  }
}

}  // namespace

Verify parse_verify(const std::string& name) {
  if (name == "none") return Verify::kNone;
  if (name == "scan") return Verify::kScan;
  if (name == "probe") return Verify::kProbe;
  if (name == "full") return Verify::kFull;
  throw InvalidArgument("unknown verify tier '" + name +
                        "' (expected none|scan|probe|full)");
}

Precision parse_precision(const std::string& name) {
  if (name == "fp64" || name == "double") return Precision::kFp64;
  if (name == "fp32" || name == "single" || name == "float")
    return Precision::kFp32;
  throw InvalidArgument("unknown precision '" + name +
                        "' (expected fp64|fp32)");
}

std::vector<TraceShape> parse_trace(const std::string& spec) {
  constexpr std::int64_t kMaxJobs = 1'000'000;
  std::vector<TraceShape> shapes;
  std::int64_t jobs = 0;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    const std::size_t x = item.find('x');
    const std::size_t colon = item.find(':', x == std::string::npos ? 0 : x);
    if (x == std::string::npos)
      throw InvalidArgument("bad trace item '" + item +
                            "' (expected ROWSxCOLS[:COUNT])");
    const std::int64_t rows =
        parse_int_field(item.substr(0, x), "trace rows");
    const std::int64_t cols =
        parse_int_field(item.substr(x + 1, colon - x - 1), "trace cols");
    const std::int64_t count =
        colon == std::string::npos
            ? 1
            : parse_int_field(item.substr(colon + 1), "trace count");
    // Each job's matrix must be allocatable: its element count fits
    // index_t, like every la::Matrix.
    constexpr std::int64_t kMaxDim = std::numeric_limits<la::index_t>::max();
    TQR_REQUIRE(rows > 0 && rows <= kMaxDim && cols > 0 && cols <= kMaxDim &&
                    rows * cols <= kMaxDim,
                "trace shape out of range in '" + item + "'");
    TQR_REQUIRE(count > 0 && count <= kMaxJobs,
                "trace count out of range in '" + item + "'");
    jobs += count;
    TQR_REQUIRE(jobs <= kMaxJobs, "job trace names more than " +
                                      std::to_string(kMaxJobs) + " jobs");
    shapes.push_back({static_cast<la::index_t>(rows),
                      static_cast<la::index_t>(cols),
                      static_cast<int>(count)});
    pos = comma + 1;
  }
  TQR_REQUIRE(!shapes.empty(), "empty job trace");
  return shapes;
}

}  // namespace tqr::svc
