// Tests for the reuse-based timescale locality theory (paper Section III-B):
// the linear-time all-k reuse algorithm against brute force, the footprint
// formula against brute force, and the duality reuse(k) + fp(k) = k (Eq. 5).
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "core/reuse_locality.hpp"
#include "testing/seed.hpp"

namespace nvc::core {
namespace {

using nvc::testing::replay_hint;
using nvc::testing::seed_from_env;

std::vector<LineAddr> trace_of(std::initializer_list<int> xs) {
  std::vector<LineAddr> t;
  for (int x : xs) t.push_back(static_cast<LineAddr>(x));
  return t;
}

// --- intervals_of_trace ------------------------------------------------------------

TEST(Intervals, ExtractsConsecutivePairs) {
  // trace a b a a  (1-indexed times)
  const auto trace = trace_of({7, 8, 7, 7});
  const auto ivs = intervals_of_trace(trace);
  ASSERT_EQ(ivs.size(), 2u);
  EXPECT_EQ(ivs[0].s, 1u);
  EXPECT_EQ(ivs[0].e, 3u);
  EXPECT_EQ(ivs[1].s, 3u);
  EXPECT_EQ(ivs[1].e, 4u);
}

TEST(Intervals, NoReusesNoIntervals) {
  EXPECT_TRUE(intervals_of_trace(trace_of({1, 2, 3, 4})).empty());
}

// --- reuse(k) -----------------------------------------------------------------------

TEST(Reuse, PaperAbbExample) {
  // Paper Section III-B: trace "abb" has reuse(2) = 1/2.
  const auto trace = trace_of({1, 2, 2});
  const auto r = compute_reuse_all_k(intervals_of_trace(trace), 3);
  EXPECT_DOUBLE_EQ(r.at(1), 0.0);
  EXPECT_DOUBLE_EQ(r.at(2), 0.5);
  EXPECT_DOUBLE_EQ(r.at(3), 1.0);
}

TEST(Reuse, PaperAbabTable) {
  // Paper's "abab..." table: reuse(1)=0, reuse(2)=0, reuse(3)=1, reuse(4)=2.
  // For a finite trace the values are window averages, so use a long trace
  // and check the interior behavior via the brute-force reference instead;
  // here check the exact finite-trace values on "abababab".
  const auto trace = trace_of({1, 2, 1, 2, 1, 2, 1, 2});
  const auto n = static_cast<LogicalTime>(trace.size());
  const auto fast = compute_reuse_all_k(intervals_of_trace(trace), n);
  const auto slow = compute_reuse_brute_force(intervals_of_trace(trace), n);
  for (LogicalTime k = 1; k <= n; ++k) {
    EXPECT_NEAR(fast.at(k), slow.at(k), 1e-12) << "k=" << k;
  }
  EXPECT_DOUBLE_EQ(fast.at(1), 0.0);
  EXPECT_DOUBLE_EQ(fast.at(2), 0.0);
  // Window of 3 always holds exactly one reuse interval: aba or bab.
  EXPECT_DOUBLE_EQ(fast.at(3), 1.0);
  EXPECT_DOUBLE_EQ(fast.at(4), 2.0);
}

TEST(Reuse, AllSameAddress) {
  // "aaaa": every window of length k has k-1 reuses.
  const auto trace = trace_of({3, 3, 3, 3});
  const auto r = compute_reuse_all_k(intervals_of_trace(trace), 4);
  for (LogicalTime k = 1; k <= 4; ++k) {
    EXPECT_DOUBLE_EQ(r.at(k), static_cast<double>(k - 1)) << "k=" << k;
  }
}

TEST(Reuse, SingleAccessTrace) {
  const auto trace = trace_of({42});
  const auto r = compute_reuse_all_k(intervals_of_trace(trace), 1);
  EXPECT_DOUBLE_EQ(r.at(1), 0.0);
}

TEST(Reuse, MonotoneNondecreasingInK) {
  const std::uint64_t seed = seed_from_env("NVC_SEED", 2024);
  SCOPED_TRACE(replay_hint("NVC_SEED", seed));
  Rng rng(seed);
  std::vector<LineAddr> trace;
  for (int i = 0; i < 300; ++i) trace.push_back(rng.below(20));
  const auto n = static_cast<LogicalTime>(trace.size());
  const auto r = compute_reuse_all_k(intervals_of_trace(trace), n);
  for (LogicalTime k = 1; k < n; ++k) {
    EXPECT_LE(r.at(k), r.at(k + 1) + 1e-9);
  }
}

TEST(Reuse, DerivativeBoundedByOne) {
  // reuse(k+1) - reuse(k) is a hit ratio (Eq. 3): it must lie in [0, 1].
  const std::uint64_t seed = seed_from_env("NVC_SEED", 77);
  SCOPED_TRACE(replay_hint("NVC_SEED", seed));
  Rng rng(seed);
  std::vector<LineAddr> trace;
  for (int i = 0; i < 400; ++i) trace.push_back(rng.below(13));
  const auto n = static_cast<LogicalTime>(trace.size());
  const auto r = compute_reuse_all_k(intervals_of_trace(trace), n);
  for (LogicalTime k = 1; k < n; ++k) {
    const double d = r.at(k + 1) - r.at(k);
    EXPECT_GE(d, -1e-9);
    EXPECT_LE(d, 1.0 + 1e-9);
  }
}

// --- footprint ------------------------------------------------------------------------

TEST(Footprint, SimpleTraces) {
  {
    const auto t = trace_of({1, 1, 1});
    const auto fp = compute_footprint_all_k(t);
    EXPECT_DOUBLE_EQ(fp.at(1), 1.0);
    EXPECT_DOUBLE_EQ(fp.at(2), 1.0);
    EXPECT_DOUBLE_EQ(fp.at(3), 1.0);
  }
  {
    const auto t = trace_of({1, 2, 3});
    const auto fp = compute_footprint_all_k(t);
    EXPECT_DOUBLE_EQ(fp.at(1), 1.0);
    EXPECT_DOUBLE_EQ(fp.at(2), 2.0);
    EXPECT_DOUBLE_EQ(fp.at(3), 3.0);
  }
  {
    // "aab": windows of 2 are {aa}, {ab} -> avg wss 1.5.
    const auto t = trace_of({1, 1, 2});
    const auto fp = compute_footprint_all_k(t);
    EXPECT_DOUBLE_EQ(fp.at(2), 1.5);
  }
}

TEST(Footprint, BoundedByDistinctData) {
  const std::uint64_t seed = seed_from_env("NVC_SEED", 31);
  SCOPED_TRACE(replay_hint("NVC_SEED", seed));
  Rng rng(seed);
  std::vector<LineAddr> trace;
  for (int i = 0; i < 200; ++i) trace.push_back(rng.below(9));
  const auto fp = compute_footprint_all_k(trace);
  for (LogicalTime k = 1; k <= 200; ++k) {
    EXPECT_LE(fp.at(k), 9.0 + 1e-9);
    EXPECT_GE(fp.at(k), 1.0 - 1e-9);
  }
}

// --- parameterized property sweeps ------------------------------------------------------

struct LocalityCase {
  std::uint64_t seed;
  std::size_t length;
  std::size_t distinct;
  const char* pattern;  // "random", "sequential", "strided", "zipf-ish"
};

// Stable names: by default gtest prints a case as a byte dump that holds
// the `pattern` pointer, so each build would register different names.
void PrintTo(const LocalityCase& c, std::ostream* os) {
  *os << c.pattern << " seed " << c.seed << " n " << c.length << " d "
      << c.distinct;
}

std::string case_name(
    const ::testing::TestParamInfo<LocalityCase>& param_info) {
  std::string name = std::string(param_info.param.pattern) + "_" +
                     std::to_string(param_info.param.seed);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

std::vector<LineAddr> synthesize(const LocalityCase& c) {
  Rng rng(c.seed);
  std::vector<LineAddr> trace;
  trace.reserve(c.length);
  for (std::size_t i = 0; i < c.length; ++i) {
    if (std::string_view(c.pattern) == "sequential") {
      trace.push_back(i % c.distinct);
    } else if (std::string_view(c.pattern) == "strided") {
      trace.push_back((i * 7) % c.distinct);
    } else if (std::string_view(c.pattern) == "zipf-ish") {
      // Square a uniform to bias toward small addresses.
      const double u = rng.uniform();
      trace.push_back(static_cast<LineAddr>(u * u * c.distinct));
    } else {
      trace.push_back(rng.below(c.distinct));
    }
  }
  return trace;
}

/// The case actually run: NVC_SEED, when set, re-seeds every case of the
/// sweep (the trace generator stays per-pattern, only the seed changes).
LocalityCase effective(LocalityCase c) {
  c.seed = seed_from_env("NVC_SEED", c.seed);
  return c;
}

class LocalityProperty : public ::testing::TestWithParam<LocalityCase> {};

TEST_P(LocalityProperty, FastReuseMatchesBruteForce) {
  const LocalityCase c = effective(GetParam());
  SCOPED_TRACE(replay_hint("NVC_SEED", c.seed));
  const auto trace = synthesize(c);
  const auto n = static_cast<LogicalTime>(trace.size());
  const auto ivs = intervals_of_trace(trace);
  const auto fast = compute_reuse_all_k(ivs, n);
  const auto slow = compute_reuse_brute_force(ivs, n);
  for (LogicalTime k = 1; k <= n; ++k) {
    ASSERT_NEAR(fast.at(k), slow.at(k), 1e-9)
        << "k=" << k << " pattern=" << GetParam().pattern;
  }
}

TEST_P(LocalityProperty, FastFootprintMatchesBruteForce) {
  const LocalityCase c = effective(GetParam());
  SCOPED_TRACE(replay_hint("NVC_SEED", c.seed));
  const auto trace = synthesize(c);
  const auto fast = compute_footprint_all_k(trace);
  const auto slow = compute_footprint_brute_force(trace);
  for (LogicalTime k = 1; k <= trace.size(); ++k) {
    ASSERT_NEAR(fast.at(k), slow.at(k), 1e-9)
        << "k=" << k << " pattern=" << GetParam().pattern;
  }
}

TEST_P(LocalityProperty, DualityReusePlusFootprintEqualsK) {
  // Paper Eq. 5: reuse(k) + fp(k) = k for every timescale k.
  const LocalityCase c = effective(GetParam());
  SCOPED_TRACE(replay_hint("NVC_SEED", c.seed));
  const auto trace = synthesize(c);
  const auto n = static_cast<LogicalTime>(trace.size());
  const auto reuse = compute_reuse_all_k(intervals_of_trace(trace), n);
  const auto fp = compute_footprint_all_k(trace);
  for (LogicalTime k = 1; k <= n; ++k) {
    ASSERT_NEAR(reuse.at(k) + fp.at(k), static_cast<double>(k), 1e-9)
        << "k=" << k << " pattern=" << GetParam().pattern;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LocalityProperty,
    ::testing::Values(LocalityCase{11, 60, 5, "random"},
                      LocalityCase{12, 100, 10, "random"},
                      LocalityCase{13, 150, 3, "random"},
                      LocalityCase{14, 120, 8, "sequential"},
                      LocalityCase{15, 90, 11, "strided"},
                      LocalityCase{16, 130, 20, "zipf-ish"},
                      LocalityCase{17, 200, 40, "random"},
                      LocalityCase{18, 64, 64, "sequential"},
                      LocalityCase{19, 100, 1, "random"},
                      LocalityCase{20, 175, 25, "zipf-ish"}),
    case_name);

// --- scaling sanity -----------------------------------------------------------------

TEST(Reuse, LinearAlgorithmHandlesLargeTraces) {
  // 1M accesses must complete quickly (the brute force would need ~10^12
  // steps); this guards against accidental quadratic regressions.
  const std::uint64_t seed = seed_from_env("NVC_SEED", 5);
  SCOPED_TRACE(replay_hint("NVC_SEED", seed));
  Rng rng(seed);
  std::vector<LineAddr> trace;
  trace.reserve(1u << 20);
  for (std::size_t i = 0; i < (1u << 20); ++i) trace.push_back(rng.below(64));
  const auto n = static_cast<LogicalTime>(trace.size());
  const auto r = compute_reuse_all_k(intervals_of_trace(trace), n);
  // With 64 hot lines, almost every access is a reuse at large k.
  EXPECT_GT(r.at(n), static_cast<double>(n) - 70.0);
  EXPECT_DOUBLE_EQ(r.at(1), 0.0);
}

}  // namespace
}  // namespace nvc::core
