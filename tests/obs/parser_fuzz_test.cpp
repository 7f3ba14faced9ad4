// Seeded mutation fuzzing of the text parsers that read input from outside
// the process: the MatrixMarket reader (`tqr factor/solve --in`), obs::Json
// (bench_diff baselines, traces) and the job-trace grammar (`--jobs`). Valid documents are mutated by
// byte flips, truncations and splices; every mutant must either parse or
// throw a tqr::Error. Anything else — std::bad_alloc from a size line that
// names a huge matrix, a stack overflow, an out-of-range read the sanitizer
// legs catch — is a parser bug. The seed is fixed, so a failure replays.
#include <gtest/gtest.h>

#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "la/io.hpp"
#include "obs/json.hpp"
#include "svc/job.hpp"

namespace tqr {
namespace {

constexpr int kMutants = 10000;

/// Characters that steer a parser into its edge cases.
constexpr char kInteresting[] = "0123456789-+.eE \n\t%\"\\{}[],:untfl\x7f";

/// One to three random edits of `seed`: flip a bit, overwrite a byte with an
/// interesting character, insert a run of digits (which can turn a size
/// line into one naming a huge matrix), truncate, or splice a copy of one
/// span of the input over another.
std::string mutate(const std::string& seed, Rng& rng) {
  std::string s = seed;
  const int edits = 1 + static_cast<int>(rng.next_below(3));
  for (int e = 0; e < edits && !s.empty(); ++e) {
    const std::size_t pos = rng.next_below(s.size());
    switch (rng.next_below(5)) {
      case 0:
        s[pos] = static_cast<char>(s[pos] ^ (1 << rng.next_below(8)));
        break;
      case 1:
        s[pos] = kInteresting[rng.next_below(sizeof(kInteresting) - 1)];
        break;
      case 2:
        for (std::uint64_t d = 1 + rng.next_below(12); d > 0; --d)
          s.insert(s.begin() + static_cast<std::ptrdiff_t>(pos),
                   static_cast<char>('0' + rng.next_below(10)));
        break;
      case 3:
        s.resize(pos);
        break;
      default: {
        const std::size_t from = rng.next_below(seed.size());
        const std::size_t len = 1 + rng.next_below(seed.size() - from);
        const std::size_t cut = rng.next_below(s.size() - pos + 1);
        s.replace(pos, cut, seed, from, len);
        break;
      }
    }
  }
  return s;
}

/// Runs `parse` on kMutants mutants of the seeds; returns the number that
/// parsed. Fails the test on any exception that is not a tqr::Error.
template <typename Parse>
int fuzz(const std::vector<std::string>& seeds, std::uint64_t rng_seed,
         Parse&& parse) {
  Rng rng(rng_seed);
  int parsed = 0;
  for (int m = 0; m < kMutants; ++m) {
    const std::string input =
        mutate(seeds[rng.next_below(seeds.size())], rng);
    try {
      parse(input);
      ++parsed;
    } catch (const Error&) {
      // Rejected cleanly.
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << m << " threw a non-tqr exception: "
                    << e.what() << "\n--- input ---\n"
                    << input;
      return parsed;
    }
  }
  return parsed;
}

TEST(ParserFuzz, MatrixMarketMutantsParseOrThrowTqrError) {
  const std::string path = testing::TempDir() + "tqr_fuzz.mtx";
  std::vector<std::string> seeds;
  for (const auto& [rows, cols, seed] :
       {std::tuple{5, 3, 1}, std::tuple{1, 1, 2}, std::tuple{8, 2, 3}}) {
    const auto a = la::Matrix<double>::random(rows, cols, seed);
    la::write_matrix_market(path, a.view());
    std::ifstream in(path);
    seeds.emplace_back(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }
  seeds.push_back(
      "%%MatrixMarket matrix array real general\n% comment\n%\n2 2\n"
      "1e300\n-0.0\n-4.5e-300\n7\n");
  const auto parse = [&](const std::string& text) {
    {
      std::ofstream out(path, std::ios::trunc | std::ios::binary);
      out << text;
    }
    const la::Matrix<double> a = la::read_matrix_market(path);
    ASSERT_GE(a.rows(), 0);
    ASSERT_GE(a.cols(), 0);
  };
  const int parsed = fuzz(seeds, 0x6d74785f66757a7aULL, parse);
  std::remove(path.c_str());
  // Some mutants touch only data digits or comments and still parse.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kMutants);
}

TEST(ParserFuzz, JsonMutantsParseOrThrowTqrError) {
  const std::vector<std::string> seeds = {
      R"({"bench": "kernels", "quick": false, "ib": 0,
 "sweep": {"s1": {"jobs": 3, "jobs_per_s": 2231.33}},
 "results": [{"kernel": "geqrt", "tile": 64, "gflops": 7.551,
              "sec_per_call": 6.94333e-05}, {"kernel": "tsmqr", "tile": 128,
              "gflops": 31.368, "sec_per_call": -1.5E+3}]})",
      R"({"traceEvents": [{"name": "job 1", "ph": "X", "pid": 1, "tid": 0,
 "ts": 12.5, "dur": 0, "args": {"status": "ok", "tile": 64}},
 {"name": "process_name", "ph": "M",
  "args": {"name": "lane \"0\"\\\/\u00e9\n"}},
 [], {}, [null, true, false, [[[0]]]]]})",
  };
  const auto parse = [](const std::string& text) {
    const obs::Json doc = obs::Json::parse(text);
    (void)doc.flatten_numbers();
  };
  const int parsed = fuzz(seeds, 0x6a736f6e5f66757aULL, parse);
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kMutants);
}

TEST(ParserFuzz, JobsGrammarMutantsParseOrThrowTqrError) {
  const std::vector<std::string> seeds = {
      "256x256:16,512x256:4", "96x96:6,128x64:4", "1000x37",
      "8192x256:1,64x64:1000000,2147483647x1:2", "2048x2048:12,"};
  // A parsed trace must be servable: every shape names a matrix whose
  // element count fits index_t, and the jobs add up to at most a million.
  const auto parse = [](const std::string& text) {
    std::int64_t jobs = 0;
    for (const svc::TraceShape& s : svc::parse_trace(text)) {
      ASSERT_GT(s.rows, 0);
      ASSERT_GT(s.cols, 0);
      ASSERT_GT(s.count, 0);
      ASSERT_NO_THROW((void)la::checked_extent(s.rows, s.cols)) << text;
      jobs += s.count;
    }
    ASSERT_LE(jobs, 1'000'000) << text;
  };
  const int parsed = fuzz(seeds, 0x6a6f62735f66757aULL, parse);
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kMutants);
}

TEST(JobsGrammar, ParsesShapesAndDefaultCount) {
  const auto shapes = svc::parse_trace("256x128:16,64x64");
  ASSERT_EQ(shapes.size(), 2u);
  EXPECT_EQ(shapes[0].rows, 256);
  EXPECT_EQ(shapes[0].cols, 128);
  EXPECT_EQ(shapes[0].count, 16);
  EXPECT_EQ(shapes[1].count, 1);
  EXPECT_THROW(svc::parse_trace(""), InvalidArgument);
  EXPECT_THROW(svc::parse_trace("64x"), InvalidArgument);
  EXPECT_THROW(svc::parse_trace("64x64:0"), InvalidArgument);
}

TEST(JobsGrammar, RejectsShapesWhoseElementCountOverflowsIndex) {
  // Found by the fuzzer: each side fit index_t, so the trace parsed and the
  // job's matrix allocation failed later, mid-submission.
  EXPECT_THROW(svc::parse_trace("281023256x256:16"), InvalidArgument);
  EXPECT_THROW(svc::parse_trace("1000x2736737"), InvalidArgument);
  EXPECT_EQ(svc::parse_trace("2147483647x1").front().rows, 2147483647);
}

TEST(JobsGrammar, RejectsMoreThanAMillionJobsInTotal) {
  // Found by the fuzzer: the per-item cap let a trace add up past it.
  EXPECT_THROW(svc::parse_trace("64x64:1000000,8x8:3"), InvalidArgument);
  EXPECT_EQ(svc::parse_trace("64x64:999999,8x8:1").size(), 2u);
}

}  // namespace
}  // namespace tqr
