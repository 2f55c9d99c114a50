// runtime::WritebackPath, the one composition of a context's write-back
// route (DESIGN.md §8): log order, elision, ring, retry and the degraded
// route, checked over {strict, batched} x {sync, async manual channel} x
// {elide} x {fault} on a recording medium, plus the Runtime's own
// elision x degradation interplay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/rng.hpp"
#include "runtime/runtime.hpp"
#include "runtime/writeback_path.hpp"
#include "support/sinks.hpp"

namespace nvc::runtime {
namespace {

using nvc::testing::ForwardSink;
using nvc::testing::RecordingSink;

struct PathCase {
  LogSyncMode log;
  bool async;
  bool elide;
  bool fault;
};

std::string case_name(const PathCase& c) {
  return std::string(to_string(c.log)) + (c.async ? "_async" : "_sync") +
         (c.elide ? "_elide" : "") + (c.fault ? "_fault" : "");
}

std::vector<PathCase> all_cases() {
  std::vector<PathCase> cases;
  for (const LogSyncMode log : {LogSyncMode::kStrict, LogSyncMode::kBatched}) {
    for (const bool async : {false, true}) {
      for (const bool elide : {false, true}) {
        for (const bool fault : {false, true}) {
          cases.push_back({log, async, elide, fault});
        }
      }
    }
  }
  return cases;
}

constexpr LineAddr kBadLine = 1003;      // fault cases: never persists
constexpr std::size_t kRing = 16;        // manual channel capacity
constexpr std::size_t kLogBytes = 64u << 10;

/// Data medium: records every write-back and, at the moment a line
/// arrives, checks the log-before-data invariant — every undo record of a
/// store already made to the line is durable. In fault cases kBadLine is
/// rejected on every attempt.
struct CheckedMedium final : core::FlushSink {
  bool flush_line(LineAddr line) override {
    lines.push_back(line);
    const auto it = need.find(line);
    if (it != need.end() && log->tail() < it->second) ++order_violations;
    return !(bad && line == kBadLine);
  }
  void drain() override {}

  const UndoLog* log = nullptr;
  bool bad = false;
  /// Appended log tail after the line's latest store (this generation).
  std::map<LineAddr, std::uint64_t> need;
  std::vector<LineAddr> lines;
  std::uint64_t order_violations = 0;
};

class WritebackPathMatrix : public ::testing::TestWithParam<PathCase> {};

TEST_P(WritebackPathMatrix, OrdersRetiresLatchesAndSuspends) {
  const PathCase pc = GetParam();
  CheckedMedium medium;
  medium.bad = pc.fault;
  RecordingSink log_medium;
  struct alignas(kCacheLineSize) LogArea {
    char bytes[kLogBytes];
  };
  const auto log_area = std::make_unique<LogArea>();
  UndoLog log(log_area->bytes, kLogBytes, &log_medium, pc.log);
  medium.log = &log;

  const core::RetryPolicy retry{1, 0, 0};
  auto faults = pc.fault ? std::make_shared<core::FaultStats>() : nullptr;
  auto elision =
      pc.elide ? std::make_shared<core::FlushElisionTable>() : nullptr;
  std::shared_ptr<core::FlushChannel> channel;
  if (pc.async) {
    channel = core::FlushWorker::shared().open_manual_channel(
        make_worker_sink(std::make_unique<ForwardSink>(&medium), faults,
                         retry, elision),
        kRing);
  }
  WritebackPath path({.data = &medium,
                      .log_sink = &log_medium,
                      .log = &log,
                      .faults = faults,
                      .retry = retry,
                      .elision = elision,
                      .channel = channel,
                      .device = {}});
  log.format();
  ASSERT_EQ(path.channel(), channel.get());

  if (pc.async && pc.elide) {
    // Ring overflow: with nothing pumped, lines beyond the ring's room take
    // the synchronous fallback — which must retire them, or they would
    // stay pending forever and every later eviction of them would elide.
    const LineAddr kBurst = kRing + 8;
    for (LineAddr l = 1; l <= kBurst; ++l) path.route().flush_line(l);
    ASSERT_FALSE(medium.lines.empty()) << "no overflow happened";
    ASSERT_EQ(medium.lines.size() + channel->depth(), kBurst);
    for (LineAddr l = 1; l <= kBurst; ++l) {
      const bool overflowed = std::find(medium.lines.begin(),
                                        medium.lines.end(),
                                        l) != medium.lines.end();
      EXPECT_EQ(elision->pending(l), !overflowed) << "line " << l;
    }
    path.route().drain();
    EXPECT_EQ(elision->pending_count(), 0u);
  }

  Rng rng(7);
  std::uint64_t pushed_at_latch = 0;
  std::uint64_t announces_at_latch = 0;
  std::uint64_t elided_at_latch = 0;
  bool latched = false;
  bool suspended = false;
  for (int fase = 0; fase < 40; ++fase) {
    path.maybe_degrade(/*degrade_after=*/1);
    if (path.flush_degraded() && !latched) {
      latched = true;
      pushed_at_latch = channel->pushed();
      announces_at_latch = elision ? elision->stats().announces : 0;
      elided_at_latch = path.elided_count();
    }
    for (int op = 0; op < 16; ++op) {
      const LineAddr line = 1000 + rng.below(24);
      const std::uint64_t old = line;
      log.record(line, &old, sizeof old);
      path.before_store(line, line);
      medium.need[line] = log.appended_tail();  // the store lands here
      if (rng.below(2) == 0) path.route().flush_line(line);  // eviction
      if (pc.async && rng.below(3) == 0) channel->pump_one();
    }
    path.route().drain();
    if (path.commit_allowed()) {
      ASSERT_FALSE(suspended) << "commit allowed again after a quarantine";
      ASSERT_TRUE(log.commit());
      medium.need.clear();
    } else {
      suspended = true;
    }
  }

  EXPECT_EQ(medium.order_violations, 0u)
      << "a data line reached the medium before its undo records";
  if (!pc.async && elision) {
    EXPECT_EQ(elision->stats().announces, 0u)
        << "synchronous paths have no eliding stage";
  }
  if (pc.async && pc.elide && !pc.fault) {
    EXPECT_GT(path.elided_count(), 0u) << "the ring never held a re-eviction";
  }
  if (!pc.fault) {
    EXPECT_FALSE(suspended);
    EXPECT_FALSE(path.flush_degraded());
    EXPECT_FALSE(path.log_degraded());
    return;
  }
  ASSERT_GT(path.faults()->quarantined_count(), 0u);
  EXPECT_TRUE(suspended);
  EXPECT_TRUE(path.commit_suspended());
  EXPECT_EQ(path.log_degraded(), pc.log == LogSyncMode::kBatched);
  EXPECT_EQ(log.mode(), LogSyncMode::kStrict);
  EXPECT_EQ(path.flush_degraded(), pc.async);
  if (pc.async) {
    ASSERT_TRUE(latched);
    EXPECT_EQ(channel->pushed(), pushed_at_latch)
        << "a line entered the ring after the async->sync latch";
    if (elision) {
      EXPECT_EQ(elision->stats().announces, announces_at_latch)
          << "a line entered the elision table after the latch";
      EXPECT_EQ(path.elided_count(), elided_at_latch);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCases, WritebackPathMatrix,
                         ::testing::ValuesIn(all_cases()),
                         [](const auto& param_info) {
                           return case_name(param_info.param);
                         });

TEST(RuntimeWriteback, ElisionStopsAtTheAsyncToSyncLatch) {
  // Async + elide + an armed injector through the real Runtime: once the
  // latch reroutes to the degraded synchronous route, no write-back can be
  // elided any more.
  RuntimeConfig config;
  config.region_name = "wbpath." + std::to_string(::getpid());
  config.region_size = 1u << 20;
  config.policy = core::PolicyKind::kSoftCacheOffline;
  config.policy_config.cache_size = 2;
  config.flush = pmem::FlushKind::kCountOnly;
  config.async_flush = true;
  config.flush_queue_depth = 16;
  config.undo_logging = true;
  config.elide = true;
  config.fault.rate = 0.02;
  config.fault.max_retries = 8;
  config.fault.backoff_ns = 0;
  config.fault.backoff_cap_ns = 0;
  config.fault.degrade_after = 4;
  config.fault.seed = 11;
  Runtime rt(config);

  auto* cells = static_cast<std::uint64_t*>(rt.pm_alloc(64 * 64));
  auto run_fase = [&](int f) {
    FaseScope fase(rt);
    for (int s = 0; s < 24; ++s) {
      rt.pstore(cells[((f + s) % 6) * 8], static_cast<std::uint64_t>(f + s));
    }
  };
  int f = 0;
  while (rt.stats().flush_degrades == 0) {
    ASSERT_LT(f, 2000) << "the async->sync latch never fired";
    run_fase(f++);
  }
  // The latch fires at a FASE begin; the FASE it opened already ran on the
  // degraded route.
  const std::uint64_t elided = rt.stats().elided_flushes;
  for (int i = 0; i < 64; ++i) run_fase(f++);
  rt.thread_flush();
  EXPECT_EQ(rt.stats().elided_flushes, elided);
  EXPECT_EQ(rt.stats().flush_degrades, 1u);
  rt.destroy_storage();
}

}  // namespace
}  // namespace nvc::runtime
