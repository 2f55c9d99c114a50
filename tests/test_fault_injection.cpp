// Media-fault tolerance (DESIGN.md §10): the seeded FaultInjector, the
// retry/backoff/quarantine sink, the runtime's HealthReport and graceful
// degradation latches, and the flush-drain watchdog. Runs under the `fault`
// ctest label (`ctest -L fault`), in the default tier-1 sweep, and under
// NVC_SANITIZE builds like any other suite.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/fault_sink.hpp"
#include "core/flush_pipeline.hpp"
#include "pmem/fault.hpp"
#include "pmem/flush.hpp"
#include "pmem/shadow.hpp"
#include "runtime/runtime.hpp"
#include "support/crash_rig.hpp"

namespace nvc::testing {
namespace {

std::string unique_region(const char* base) {
  static int counter = 0;
  return std::string(base) + "." + std::to_string(::getpid()) + "." +
         std::to_string(counter++);
}

// --------------------------------------------------------------------------
// FaultInjector: determinism and fault-class contracts.
// --------------------------------------------------------------------------

TEST(FaultInjector, DecisionsReplayBitForBitFromTheSeed) {
  pmem::FaultConfig config;
  config.rate = 0.5;
  config.bad_line_rate = 0.1;
  config.torn_rate = 0.5;
  config.seed = 12345;
  pmem::FaultInjector a(config);
  pmem::FaultInjector b(config);
  for (LineAddr line = 0; line < 32; ++line) {
    EXPECT_EQ(a.line_bad(line), b.line_bad(line)) << "line " << line;
    EXPECT_EQ(a.torn_bytes(line), b.torn_bytes(line)) << "line " << line;
    for (int attempt = 0; attempt < 8; ++attempt) {
      const pmem::FaultDecision da = a.on_flush_attempt(line);
      const pmem::FaultDecision db = b.on_flush_attempt(line);
      EXPECT_EQ(da.fail, db.fail) << "line " << line << " attempt " << attempt;
      EXPECT_EQ(da.bad, db.bad) << "line " << line << " attempt " << attempt;
    }
  }

  // A different seed explores different placements (256 coin flips at
  // rate 0.5 cannot collide by accident).
  config.seed = 54321;
  pmem::FaultInjector c(config);
  int diverged = 0;
  for (LineAddr line = 0; line < 32; ++line) {
    pmem::FaultInjector fresh(config);
    for (int attempt = 0; attempt < 8; ++attempt) {
      // Compare against a's recorded behavior indirectly: just count fails.
      diverged += c.on_flush_attempt(line).fail ? 1 : 0;
    }
    (void)fresh;
  }
  EXPECT_GT(diverged, 0);
  EXPECT_LT(diverged, 32 * 8);
}

TEST(FaultInjector, TornBytesAreAlignedPureAndGated) {
  pmem::FaultConfig config;
  config.torn_rate = 1.0;  // every crash-point write-back tears
  config.seed = 7;
  pmem::FaultInjector always(config);
  for (LineAddr line = 0; line < 64; ++line) {
    const std::size_t bytes = always.torn_bytes(line);
    EXPECT_GE(bytes, 8u) << "line " << line;
    EXPECT_LE(bytes, 56u) << "line " << line;
    EXPECT_EQ(bytes % 8, 0u) << "line " << line;        // ADR atomicity unit
    EXPECT_EQ(bytes, always.torn_bytes(line));          // pure: no ordinal
  }
  config.torn_rate = 0.0;
  pmem::FaultInjector never(config);
  for (LineAddr line = 0; line < 64; ++line) {
    EXPECT_EQ(never.torn_bytes(line), 0u);
  }
}

TEST(FaultInjector, ExplicitBadLinesFailEveryAttempt) {
  pmem::FaultConfig config;
  config.bad_lines = {5};
  config.seed = 1;
  pmem::FaultInjector injector(config);
  EXPECT_TRUE(injector.line_bad(5));
  EXPECT_FALSE(injector.line_bad(6));  // bad_line_rate is zero
  for (int attempt = 0; attempt < 4; ++attempt) {
    const pmem::FaultDecision d = injector.on_flush_attempt(5);
    EXPECT_TRUE(d.fail);
    EXPECT_TRUE(d.bad);
  }
  EXPECT_EQ(injector.bad_hits(), 4u);
  const pmem::FaultDecision ok = injector.on_flush_attempt(6);
  EXPECT_FALSE(ok.fail);
  injector.reset_counters();
  EXPECT_EQ(injector.bad_hits(), 0u);
  EXPECT_EQ(injector.transients(), 0u);
}

// --------------------------------------------------------------------------
// FlushBackend: injector consult and counter reset (satellite: the new
// fault counter participates in reset_counters()).
// --------------------------------------------------------------------------

TEST(FlushBackendFaults, CountsFaultsAndResetsAllCounters) {
  pmem::FaultConfig config;
  config.rate = 1.0;  // every attempt rejected
  config.seed = 3;
  pmem::FaultInjector injector(config);
  pmem::FlushBackend backend(pmem::FlushKind::kCountOnly);
  backend.set_fault_injector(&injector);
  alignas(kCacheLineSize) char line[kCacheLineSize] = {};
  EXPECT_EQ(backend.flush(line), pmem::FlushResult::kTransient);
  EXPECT_EQ(backend.issue(line), pmem::FlushResult::kTransient);
  backend.fence();
  EXPECT_EQ(backend.fault_count(), 2u);
  EXPECT_EQ(backend.flush_count(), 2u);  // attempts count; faults separately
  EXPECT_EQ(backend.fence_count(), 1u);

  backend.reset_counters();
  EXPECT_EQ(backend.fault_count(), 0u);
  EXPECT_EQ(backend.flush_count(), 0u);
  EXPECT_EQ(backend.fence_count(), 0u);

  backend.set_fault_injector(nullptr);
  EXPECT_EQ(backend.flush(line), pmem::FlushResult::kOk);
  EXPECT_EQ(backend.flush_count(), 1u);
  EXPECT_EQ(backend.fault_count(), 0u);
}

// --------------------------------------------------------------------------
// FaultTolerantSink: retry, quarantine, fast-fail.
// --------------------------------------------------------------------------

/// Fails the first `fail_first` attempts of every line, then succeeds.
struct FlakySink final : core::FlushSink {
  explicit FlakySink(int n) : fail_first(n) {}
  bool flush_line(LineAddr line) override {
    ++attempts;
    return ++per_line[line] > fail_first;
  }
  void drain() override { ++drains; }
  int fail_first;
  int attempts = 0;
  int drains = 0;
  std::unordered_map<LineAddr, int> per_line;
};

TEST(FaultTolerantSink, RetryMasksTransientFailures) {
  FlakySink flaky(/*fail_first=*/2);
  core::FaultStats stats;
  core::FaultTolerantSink sink(&flaky, &stats,
                               core::RetryPolicy{/*max_retries=*/3,
                                                 /*backoff_ns=*/0,
                                                 /*backoff_cap_ns=*/0});
  EXPECT_TRUE(sink.flush_line(7));
  EXPECT_EQ(flaky.attempts, 3);  // two failures + the success
  EXPECT_EQ(stats.transients(), 2u);
  EXPECT_EQ(stats.retries(), 2u);
  EXPECT_EQ(stats.quarantined_count(), 0u);
  sink.drain();
  EXPECT_EQ(flaky.drains, 1);
}

TEST(FaultTolerantSink, ExhaustedRetriesQuarantineAndFailFast) {
  FlakySink dead(/*fail_first=*/1 << 20);  // never succeeds
  core::FaultStats stats;
  core::FaultTolerantSink sink(&dead, &stats,
                               core::RetryPolicy{/*max_retries=*/2,
                                                 /*backoff_ns=*/0,
                                                 /*backoff_cap_ns=*/0});
  EXPECT_FALSE(sink.flush_line(9));
  EXPECT_EQ(dead.attempts, 3);  // initial + 2 retries
  EXPECT_EQ(stats.transients(), 3u);
  EXPECT_EQ(stats.retries(), 2u);
  EXPECT_EQ(stats.quarantined_count(), 1u);
  EXPECT_TRUE(stats.quarantined(9));
  EXPECT_EQ(stats.quarantined_lines(), std::vector<LineAddr>{9});

  // Fast-fail: a poisoned line never touches the media again.
  EXPECT_FALSE(sink.flush_line(9));
  EXPECT_EQ(dead.attempts, 3);

  // Other lines are unaffected by the quarantine.
  FlakySink fine(/*fail_first=*/0);
  core::FaultTolerantSink sink2(&fine, &stats, core::RetryPolicy{2, 0, 0});
  EXPECT_TRUE(sink2.flush_line(10));

  stats.reset();
  EXPECT_EQ(stats.quarantined_count(), 0u);
  EXPECT_FALSE(stats.quarantined(9));
  EXPECT_EQ(stats.transients(), 0u);
  EXPECT_EQ(stats.retries(), 0u);
}

// --------------------------------------------------------------------------
// ShadowPmem: torn write-backs persist an aligned prefix only.
// --------------------------------------------------------------------------

TEST(ShadowPmemFaults, TornFlushPersistsAlignedPrefixAndKeepsLineDirty) {
  pmem::ShadowPmem shadow(4 * kCacheLineSize);
  std::vector<std::uint8_t> pattern(kCacheLineSize);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::uint8_t>(0xA0 + i);
  }
  shadow.store(0, pattern.data(), pattern.size());
  shadow.flush_line_torn(0, 16);
  EXPECT_EQ(shadow.torn_flushes(), 1u);
  std::vector<std::uint8_t> durable(kCacheLineSize);
  shadow.load_durable(0, durable.data(), durable.size());
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(durable[i], pattern[i]) << "torn-in byte " << i;
  }
  for (std::size_t i = 16; i < kCacheLineSize; ++i) {
    EXPECT_EQ(durable[i], 0) << "byte " << i << " leaked past the tear";
  }
  EXPECT_TRUE(shadow.line_dirty(0));  // the rest is still unpersisted

  // Past the power cut a full flush is dropped but the torn path still
  // lands — it models the write-back racing the cut itself.
  shadow.start_clock();
  shadow.freeze_at(0);
  EXPECT_TRUE(shadow.flush_line(1));  // dropped, unobservably "ok"
  shadow.flush_line_torn(1, 8);
  EXPECT_EQ(shadow.torn_flushes(), 2u);
}

TEST(ShadowPmemFaults, InjectorFailuresLeaveTheDurableImageUntouched) {
  pmem::ShadowPmem shadow(4 * kCacheLineSize);
  pmem::FaultConfig config;
  config.rate = 1.0;
  config.seed = 11;
  pmem::FaultInjector injector(config);
  shadow.set_fault_injector(&injector);
  const std::uint64_t value = 0xdeadbeefcafef00dULL;
  shadow.store_value(0, value);
  EXPECT_FALSE(shadow.flush_line(0));
  EXPECT_EQ(shadow.fault_drops(), 1u);
  EXPECT_EQ(shadow.durable_value<std::uint64_t>(0), 0u);
  shadow.set_fault_injector(nullptr);
  EXPECT_TRUE(shadow.flush_line(0));
  EXPECT_EQ(shadow.durable_value<std::uint64_t>(0), value);
}

// --------------------------------------------------------------------------
// Runtime: HealthReport, stats, and one-way degradation latches.
// --------------------------------------------------------------------------

TEST(RuntimeFaults, HealthReportAggregatesAndLatchesFireExactlyOnce) {
  runtime::RuntimeConfig config;
  config.region_name = unique_region("fault.rt");
  config.region_size = 1u << 20;
  config.policy = core::PolicyKind::kSoftCacheOffline;
  config.policy_config.cache_size = 4;
  config.flush = pmem::FlushKind::kCountOnly;
  config.async_flush = true;
  config.flush_queue_depth = 16;
  config.undo_logging = true;
  config.log_sync = runtime::LogSyncMode::kBatched;
  // A very noisy medium: transients on ~95% of attempts, one retry, so
  // quarantine (two consecutive rejections) and both degradation latches
  // are effectively certain within the first FASEs.
  config.fault.rate = 0.95;
  config.fault.max_retries = 1;
  config.fault.backoff_ns = 0;
  config.fault.backoff_cap_ns = 0;
  config.fault.degrade_after = 1;
  config.fault.seed = 42;
  runtime::Runtime rt(config);

  auto* cells = static_cast<std::uint64_t*>(rt.pm_alloc(64 * 64));
  auto run_fases = [&](int fases) {
    for (int f = 0; f < fases; ++f) {
      runtime::FaseScope fase(rt);
      for (int s = 0; s < 16; ++s) {
        rt.pstore(cells[(f * 11 + s * 5) % 512],
                  static_cast<std::uint64_t>(f * 100 + s));
      }
    }
  };
  run_fases(8);
  rt.thread_flush();

  const runtime::HealthReport health = rt.health();
  EXPECT_TRUE(health.faults_attached);
  EXPECT_GT(health.transient_faults, 0u);
  EXPECT_GT(health.flush_retries, 0u);
  EXPECT_FALSE(health.quarantined_lines.empty());
  EXPECT_EQ(health.flush_degraded_contexts, 1u);
  EXPECT_EQ(health.log_degraded_contexts, 1u);
  EXPECT_EQ(health.commit_suspended_contexts, 1u);
  EXPECT_TRUE(health.degraded());

  const runtime::RuntimeStats stats = rt.stats();
  EXPECT_EQ(stats.transient_faults, health.transient_faults);
  EXPECT_EQ(stats.flush_retries, health.flush_retries);
  EXPECT_EQ(stats.quarantined_lines, health.quarantined_lines.size());
  EXPECT_EQ(stats.flush_degrades, 1u);
  EXPECT_EQ(stats.log_degrades, 1u);

  // Latches are one-way and fire once: more (noisy) FASEs change the
  // counters but never the latch counts.
  run_fases(8);
  rt.thread_flush();
  const runtime::HealthReport again = rt.health();
  EXPECT_EQ(again.flush_degraded_contexts, 1u);
  EXPECT_EQ(again.log_degraded_contexts, 1u);
  EXPECT_EQ(again.commit_suspended_contexts, 1u);
  EXPECT_GE(again.transient_faults, health.transient_faults);

  // Commit suspension means the log still holds the undone FASEs.
  EXPECT_TRUE(rt.needs_recovery());
  rt.destroy_storage();
}

TEST(RuntimeFaults, IdleInjectorLeavesBehaviorIdentical) {
  // attach=true with all-zero rates wires every hook in but never fires:
  // traffic accounting must be bit-identical to a fault-free run, proving
  // the hooks are behavior-neutral (the bench companion BM_PstoreFaseFaultIdle
  // bounds their cost).
  auto run = [&](bool attach) {
    runtime::RuntimeConfig config;
    config.region_name = unique_region("fault.idle");
    config.region_size = 1u << 20;
    config.policy = core::PolicyKind::kSoftCacheOffline;
    config.policy_config.cache_size = 4;
    config.flush = pmem::FlushKind::kCountOnly;
    config.undo_logging = true;
    config.log_sync = runtime::LogSyncMode::kBatched;
    config.fault.attach = attach;
    runtime::Runtime rt(config);
    auto* cells = static_cast<std::uint64_t*>(rt.pm_alloc(64 * 64));
    for (int f = 0; f < 16; ++f) {
      runtime::FaseScope fase(rt);
      for (int s = 0; s < 16; ++s) {
        rt.pstore(cells[(f * 7 + s * 3) % 512],
                  static_cast<std::uint64_t>(f * 100 + s));
      }
    }
    rt.thread_flush();
    const runtime::RuntimeStats stats = rt.stats();
    const runtime::HealthReport health = rt.health();
    EXPECT_EQ(health.faults_attached, attach);
    EXPECT_FALSE(health.degraded());
    rt.destroy_storage();
    return stats;
  };
  const runtime::RuntimeStats off = run(false);
  const runtime::RuntimeStats on = run(true);
  EXPECT_EQ(off.stores, on.stores);
  EXPECT_EQ(off.flushes, on.flushes);
  EXPECT_EQ(off.fences, on.fences);
  EXPECT_EQ(off.log_records, on.log_records);
  EXPECT_EQ(off.log_syncs, on.log_syncs);
  EXPECT_EQ(on.transient_faults, 0u);
  EXPECT_EQ(on.quarantined_lines, 0u);
}

// --------------------------------------------------------------------------
// CrashRig: quarantine suspends commits; recovery preserves all-or-nothing.
// --------------------------------------------------------------------------

TEST(RigFaults, QuarantinedLineSuspendsCommitsAndRecoveryRollsBack) {
  CrashRigConfig config;
  config.mode = runtime::LogSyncMode::kStrict;
  config.data_lines = 8;
  // Shadow line 0 = the first data line of context 0 (the shadow works in
  // image-offset lines, so explicit bad lines are deterministic).
  config.fault.bad_lines = {0};
  config.fault.max_retries = 2;
  config.fault.backoff_ns = 0;
  config.fault.backoff_cap_ns = 0;
  CrashRig rig(config);

  rig.fase_begin();
  rig.pstore_u64(0, 0, 0xAAAA);  // cell 0 -> bad line 0
  rig.pstore_u64(0, 8, 0xBBBB);  // cell 8 -> healthy line 1
  EXPECT_FALSE(rig.fase_end()) << "a FASE with a lost line must not commit";
  EXPECT_TRUE(rig.commit_suspended());
  EXPECT_GE(rig.fault_stats().quarantined_count(), 1u);
  EXPECT_GT(rig.fault_stats().transients(), 0u);

  // Suspension is sticky: a later FASE touching only healthy lines still
  // refuses to commit — moving the commit point past the quarantined data
  // would break all-or-nothing for the first FASE.
  rig.fase_begin();
  rig.pstore_u64(0, 16, 0xCCCC);
  EXPECT_FALSE(rig.fase_end());

  // A restarted process rolls back to the last good commit: the initial
  // all-zero image (nothing ever committed), even though line 1's bytes
  // landed durably before the quarantine verdict.
  const std::vector<std::uint8_t> recovered = rig.recovered_data();
  const std::vector<std::uint8_t> zeros(rig.data_bytes(), 0);
  EXPECT_EQ(recovered, zeros);
}

TEST(RigFaults, CleanMediumCommitsNormally) {
  // Control for the test above: same script, no faults — commits land.
  CrashRigConfig config;
  config.mode = runtime::LogSyncMode::kStrict;
  config.data_lines = 8;
  CrashRig rig(config);
  rig.fase_begin();
  rig.pstore_u64(0, 0, 0xAAAA);
  rig.pstore_u64(0, 8, 0xBBBB);
  EXPECT_TRUE(rig.fase_end());
  EXPECT_FALSE(rig.commit_suspended());
  const std::vector<std::uint8_t> recovered = rig.recovered_data();
  std::uint64_t cell0 = 0;
  std::uint64_t cell8 = 0;
  std::memcpy(&cell0, recovered.data(), sizeof cell0);
  std::memcpy(&cell8, recovered.data() + 64, sizeof cell8);
  EXPECT_EQ(cell0, 0xAAAAu);
  EXPECT_EQ(cell8, 0xBBBBu);
}

// --------------------------------------------------------------------------
// Flush-drain watchdog (satellite): a wedged consumer is diagnosed, never
// aborted, and the helping drain still completes.
// --------------------------------------------------------------------------

/// Blocks its first flush until the channel's drain watchdog has fired,
/// modeling a worker wedged mid-write-back while holding the consumer lock.
struct WedgedSink final : core::FlushSink {
  bool flush_line(LineAddr) override {
    entered.store(true, std::memory_order_release);
    const core::FlushChannel* ch = channel.load(std::memory_order_acquire);
    while (ch == nullptr || ch->stall_warnings() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ch = channel.load(std::memory_order_acquire);
    }
    return true;
  }
  void drain() override {}
  std::atomic<bool> entered{false};
  std::atomic<const core::FlushChannel*> channel{nullptr};
};

TEST(FlushDrainWatchdog, DiagnosesStalledConsumerAndKeepsHelping) {
  // The timeout knob is read when the channel is opened.
  ::setenv("NVC_FLUSH_DRAIN_TIMEOUT_MS", "50", 1);
  auto owned = std::make_unique<WedgedSink>();
  WedgedSink* wedged = owned.get();
  auto channel =
      core::FlushWorker::shared().open_manual_channel(std::move(owned), 16);
  ::unsetenv("NVC_FLUSH_DRAIN_TIMEOUT_MS");
  wedged->channel.store(channel.get(), std::memory_order_release);

  for (LineAddr l = 1; l <= 4; ++l) ASSERT_TRUE(channel->try_push(l));
  // The "worker": grabs the consumer lock and wedges inside the sink until
  // the watchdog fires.
  std::thread worker([&] { channel->pump_one(); });
  while (!wedged->entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  // The producer's completion ticket cannot make progress (lock held) until
  // the watchdog unwedges the sink; it must diagnose, keep helping, and
  // finish the drain rather than aborting.
  channel->wait_drained();
  worker.join();
  EXPECT_GE(channel->stall_warnings(), 1u);
  EXPECT_EQ(channel->flushed(), channel->pushed());
  channel->close();
}

/// Accepts everything (the silent-path control below).
struct AcceptSink final : core::FlushSink {
  bool flush_line(LineAddr) override { return true; }
  void drain() override {}
};

TEST(FlushDrainWatchdog, DisabledByDefaultAndSilentWhenDraining) {
  auto channel = core::FlushWorker::shared().open_manual_channel(
      std::make_unique<AcceptSink>(), 16);
  for (LineAddr l = 1; l <= 8; ++l) ASSERT_TRUE(channel->try_push(l));
  channel->wait_drained();  // helping consumer drains everything itself
  EXPECT_EQ(channel->stall_warnings(), 0u);
  EXPECT_EQ(channel->flushed(), 8u);
  channel->close();
}

}  // namespace
}  // namespace nvc::testing
