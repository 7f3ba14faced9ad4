#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"
#include "la/flops.hpp"

namespace perfbench {
namespace {

// The four repeating small_mixed shapes; the first is its reference shape.
const std::vector<Shape> kSmallShapes = {
    {512, 256}, {64, 64}, {128, 128}, {256, 128}};

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a ^ (b * 0x9e3779b97f4a7c15ULL);
  return tqr::splitmix64(s);
}

std::uint64_t name_hash(const std::string& name) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (const char c : name) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  return h;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"large_square", "tall_skinny", "small_mixed"};
}

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "large_square") {
    w.warm_shapes = {{2048, 2048}};
  } else if (name == "tall_skinny") {
    w.warm_shapes = {{8192, 256}};
  } else if (name == "small_mixed") {
    w.clients = 4;
    w.probe_verify = true;
    w.warm_shapes = kSmallShapes;
    w.batch_members = 32;
    w.batch_shape = {16, 16};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

JobStream::JobStream(const Workload& workload, std::uint64_t seed, int client)
    : workload_(&workload),
      state_(mix(mix(seed, name_hash(workload.name)),
                 static_cast<std::uint64_t>(client) + 1)) {}

std::uint64_t JobStream::draw_u64() { return tqr::splitmix64(state_); }

Shape JobStream::tail_shape() {
  // Row and column counts on a 16 grid, 80..512 x 16..min(rows, 256): a few
  // hundred distinct shapes, far more than a plan cache holds.
  for (;;) {
    const index_t rows = static_cast<index_t>(16 * (5 + draw_u64() % 28));
    const index_t max_c = std::min<index_t>(rows, 256) / 16;
    const index_t cols =
        static_cast<index_t>(16 * (1 + draw_u64() % static_cast<std::uint64_t>(max_c)));
    const Shape s{rows, cols};
    bool repeating = false;
    for (const Shape& r : kSmallShapes) repeating |= r == s;
    if (!repeating) return s;
  }
}

JobInput JobStream::next() {
  JobInput in;
  const Workload& w = *workload_;
  if (w.batch_members > 0) {
    const double u = static_cast<double>(draw_u64() >> 11) * 0x1.0p-53;
    if (u < kBatchShare) {
      last_draw_ = Draw::kBatch;
      in.shape = w.batch_shape;
      in.batch = w.batch_members;
    } else if (u < kBatchShare + kTailShare) {
      last_draw_ = Draw::kTail;
      in.shape = tail_shape();
    } else {
      last_draw_ = Draw::kRepeating;
      in.shape = w.warm_shapes[draw_u64() % w.warm_shapes.size()];
    }
  } else {
    last_draw_ = Draw::kRepeating;
    in.shape = w.warm_shapes.front();
  }
  in.matrix_seed = mix(state_, ++index_);
  return in;
}

std::vector<JobInput> warmup_inputs(const Workload& workload,
                                    std::uint64_t seed) {
  std::vector<JobInput> out;
  const std::uint64_t base = mix(mix(seed, name_hash(workload.name)), 0);
  std::uint64_t k = 0;
  for (const Shape& s : workload.warm_shapes)
    out.push_back({s, 0, mix(base, ++k)});
  if (workload.batch_members > 0)
    out.push_back({workload.batch_shape, workload.batch_members, mix(base, ++k)});
  return out;
}

tqr::la::Matrix<double> make_matrix(const JobInput& in, int member) {
  return tqr::la::Matrix<double>::random(
      in.shape.rows, in.shape.cols,
      mix(in.matrix_seed, static_cast<std::uint64_t>(member)));
}

std::uint64_t probe_seed(const JobInput& in, int member) {
  return mix(~in.matrix_seed, static_cast<std::uint64_t>(member));
}

double useful_flops(const JobInput& in) {
  return tqr::la::flops_qr(in.shape.rows, in.shape.cols) *
         (in.batch > 0 ? in.batch : 1);
}

}  // namespace perfbench
