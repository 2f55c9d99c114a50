// RuntimeConfig::from_env, the one reader of the runtime's NVC_* knobs:
// every knob lands in its field, unset knobs keep the caller's base, and a
// malformed value is refused with a message that names the knob and the
// values it accepts.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>

#include "core/thread_groups.hpp"
#include "runtime/runtime.hpp"

namespace nvc::runtime {
namespace {

/// Every knob from_env reads (README knob table, runtime rows).
constexpr const char* kKnobs[] = {
    "NVC_FLUSH",           "NVC_FLUSH_NS",          "NVC_FLUSH_ASYNC",
    "NVC_FLUSH_QUEUE",     "NVC_LOG",               "NVC_LOG_SYNC",
    "NVC_WEAR",            "NVC_ELIDE",             "NVC_VERIFY_DATA",
    "NVC_SCRUB",           "NVC_SCRUB_BATCH",       "NVC_BURST",
    "NVC_SKIP_FASES",      "NVC_ASYNC",             "NVC_ADMIT",
    "NVC_ADMIT_WINDOW",    "NVC_ADMIT_THRESHOLD",   "NVC_FAULT_RATE",
    "NVC_FAULT_BAD_LINES", "NVC_FAULT_TORN",        "NVC_FAULT_RETRIES",
    "NVC_FAULT_BACKOFF_NS", "NVC_FAULT_BACKOFF_CAP_NS",
    "NVC_FAULT_DEGRADE_AFTER", "NVC_FAULT_SEED",    "NVC_SEED",
    "NVC_FAULT_ATTACH"};

/// The worker-pool knobs, read by core::pool_settings_from_env and checked
/// by from_env.
constexpr const char* kPoolKnobs[] = {"NVC_FLUSH_WORKERS",
                                      "NVC_ANALYSIS_WORKERS", "NVC_PIN",
                                      "NVC_FLUSH_DRAIN_TIMEOUT_MS"};

/// Starts every case from an environment with no runtime knob set.
class RuntimeConfigEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* knob : kKnobs) ::unsetenv(knob);
    for (const char* knob : kPoolKnobs) ::unsetenv(knob);
  }
  void TearDown() override { SetUp(); }
};

struct Landing {
  const char* knob;
  const char* value;
  std::function<bool(const RuntimeConfig&)> landed;
};

TEST_F(RuntimeConfigEnv, EachKnobLandsInItsField) {
  using C = const RuntimeConfig&;
  const Landing cases[] = {
      {"NVC_FLUSH", "count",
       [](C c) { return c.flush == pmem::FlushKind::kCountOnly; }},
      {"NVC_FLUSH_NS", "777", [](C c) { return c.simulated_flush_ns == 777; }},
      {"NVC_FLUSH_ASYNC", "1", [](C c) { return c.async_flush; }},
      {"NVC_FLUSH_QUEUE", "64", [](C c) { return c.flush_queue_depth == 64; }},
      {"NVC_LOG", "1", [](C c) { return c.undo_logging; }},
      {"NVC_LOG_SYNC", "batched",
       [](C c) { return c.log_sync == LogSyncMode::kBatched; }},
      {"NVC_WEAR", "1", [](C c) { return c.wear_tracking; }},
      {"NVC_ELIDE", "1", [](C c) { return c.elide; }},
      {"NVC_VERIFY_DATA", "1", [](C c) { return c.verify_data; }},
      {"NVC_SCRUB", "1", [](C c) { return c.scrub; }},
      {"NVC_SCRUB_BATCH", "9", [](C c) { return c.scrub_batch_lines == 9; }},
      {"NVC_BURST", "12345",
       [](C c) { return c.policy_config.sampler.burst_length == 12345; }},
      {"NVC_SKIP_FASES", "3",
       [](C c) { return c.policy_config.sampler.skip_fases == 3; }},
      {"NVC_ASYNC", "1",
       [](C c) { return c.policy_config.sampler.async_analysis; }},
      {"NVC_ADMIT", "write-once",
       [](C c) {
         return c.policy_config.admission.mode == core::AdmitMode::kWriteOnce;
       }},
      {"NVC_ADMIT_WINDOW", "256",
       [](C c) { return c.policy_config.admission.window == 256; }},
      {"NVC_ADMIT_THRESHOLD", "0.25",
       [](C c) { return c.policy_config.admission.reuse_threshold == 0.25; }},
      {"NVC_FAULT_RATE", "0.125", [](C c) { return c.fault.rate == 0.125; }},
      {"NVC_FAULT_BAD_LINES", "0.5",
       [](C c) { return c.fault.bad_line_rate == 0.5; }},
      {"NVC_FAULT_TORN", "1", [](C c) { return c.fault.torn_rate == 1.0; }},
      {"NVC_FAULT_RETRIES", "3", [](C c) { return c.fault.max_retries == 3; }},
      {"NVC_FAULT_BACKOFF_NS", "7", [](C c) { return c.fault.backoff_ns == 7; }},
      {"NVC_FAULT_BACKOFF_CAP_NS", "70",
       [](C c) { return c.fault.backoff_cap_ns == 70; }},
      {"NVC_FAULT_DEGRADE_AFTER", "2",
       [](C c) { return c.fault.degrade_after == 2; }},
      // Full 64-bit range: a printed replay seed reads back unchanged.
      {"NVC_FAULT_SEED", "18446744073709551615",
       [](C c) { return c.fault.seed == ~std::uint64_t{0}; }},
      {"NVC_SEED", "99", [](C c) { return c.fault.seed == 99; }},
      {"NVC_FAULT_ATTACH", "1", [](C c) { return c.fault.attach; }},
  };
  static_assert(std::size(cases) == std::size(kKnobs));
  for (const Landing& t : cases) {
    ASSERT_EQ(::setenv(t.knob, t.value, 1), 0);
    EXPECT_TRUE(t.landed(RuntimeConfig::from_env({})))
        << t.knob << "=" << t.value;
    ::unsetenv(t.knob);
  }
}

TEST_F(RuntimeConfigEnv, UnsetOrEmptyKnobsKeepTheBase) {
  RuntimeConfig base;
  base.flush = pmem::FlushKind::kSimulated;
  base.simulated_flush_ns = 250;
  base.policy_config.sampler.burst_length = 4096;
  base.policy_config.sampler.skip_fases = 1;
  base.fault.seed = 5;
  ASSERT_EQ(::setenv("NVC_FLUSH_NS", "", 1), 0);
  const RuntimeConfig c = RuntimeConfig::from_env(base);
  EXPECT_EQ(c.flush, pmem::FlushKind::kSimulated);
  EXPECT_EQ(c.simulated_flush_ns, 250u);
  EXPECT_EQ(c.policy_config.sampler.burst_length, 4096u);
  EXPECT_EQ(c.policy_config.sampler.skip_fases, 1u);
  EXPECT_EQ(c.fault.seed, 5u);
  EXPECT_FALSE(c.fault.enabled());
}

TEST_F(RuntimeConfigEnv, FaultSeedWinsOverTheWorkloadSeed) {
  ASSERT_EQ(::setenv("NVC_SEED", "11", 1), 0);
  ASSERT_EQ(::setenv("NVC_FAULT_SEED", "22", 1), 0);
  EXPECT_EQ(RuntimeConfig::from_env({}).fault.seed, 22u);
  ::unsetenv("NVC_FAULT_SEED");
  EXPECT_EQ(RuntimeConfig::from_env({}).fault.seed, 11u);
  ::unsetenv("NVC_SEED");
  EXPECT_EQ(RuntimeConfig::from_env({}).fault.seed, 1u);
}

struct Rejection {
  const char* knob;
  const char* value;
  const char* want;  // must appear in the message
};

TEST_F(RuntimeConfigEnv, MalformedValuesAreRefusedByName) {
  const Rejection cases[] = {
      // enum knobs
      {"NVC_FLUSH", "simm", "clflush|clflushopt|clwb|sim|count"},
      {"NVC_LOG_SYNC", "batch", "strict|batched"},
      {"NVC_ADMIT", "bogus", "always|write-once|reuse"},
      // integer knobs
      {"NVC_FLUSH_NS", "-1", "[0, 4294967295]"},
      {"NVC_FLUSH_QUEUE", "1000", "a power of two"},
      {"NVC_SCRUB_BATCH", "12x", "an integer"},
      {"NVC_BURST", "1e6", "an integer"},
      {"NVC_SKIP_FASES", "4294967296", "[0, 4294967295]"},
      {"NVC_ADMIT_WINDOW", " 5", "an integer"},
      {"NVC_FAULT_RETRIES", "+3", "an integer"},
      {"NVC_FAULT_BACKOFF_NS", "1.5", "an integer"},
      {"NVC_FAULT_BACKOFF_CAP_NS", "99999999999999999999", "an integer"},
      {"NVC_FAULT_DEGRADE_AFTER", "two", "an integer"},
      {"NVC_FAULT_SEED", "-7", "an integer"},
      {"NVC_SEED", "seed", "an integer"},
      // probability knobs
      {"NVC_ADMIT_THRESHOLD", "1.5", "[0, 1]"},
      {"NVC_FAULT_RATE", "-0.1", "[0, 1]"},
      {"NVC_FAULT_BAD_LINES", "nan", "[0, 1]"},
      {"NVC_FAULT_TORN", "0.5x", "[0, 1]"},
      // switches
      {"NVC_FLUSH_ASYNC", "2", "0|1"},
      {"NVC_LOG", "yes", "0|1"},
      {"NVC_WEAR", "on", "0|1"},
      {"NVC_ELIDE", "true", "0|1"},
      {"NVC_VERIFY_DATA", "-1", "0|1"},
      {"NVC_SCRUB", "01", "0|1"},
      {"NVC_ASYNC", "y", "0|1"},
      {"NVC_FAULT_ATTACH", "1 ", "0|1"},
  };
  static_assert(std::size(cases) == std::size(kKnobs));
  for (const Rejection& t : cases) {
    ASSERT_EQ(::setenv(t.knob, t.value, 1), 0);
    try {
      (void)RuntimeConfig::from_env({});
      ADD_FAILURE() << t.knob << "=" << t.value << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(std::string(t.knob) + "=" + t.value),
                std::string::npos)
          << message;
      EXPECT_NE(message.find(t.want), std::string::npos) << message;
    }
    ::unsetenv(t.knob);
  }
}

TEST_F(RuntimeConfigEnv, PoolKnobsLandInTheirSettings) {
  using S = const core::PoolSettings&;
  const struct {
    const char* knob;
    const char* value;
    std::function<bool(S)> landed;
  } cases[] = {
      {"NVC_FLUSH_WORKERS", "3", [](S s) { return s.flush_workers == 3; }},
      {"NVC_FLUSH_WORKERS", "1000",
       [](S s) { return s.flush_workers == core::kMaxPoolWorkers; }},
      {"NVC_ANALYSIS_WORKERS", "2",
       [](S s) { return s.analysis_workers == 2; }},
      {"NVC_ANALYSIS_WORKERS", "0",
       [](S s) { return s.analysis_workers >= 1; }},  // one per node
      {"NVC_PIN", "1", [](S s) { return s.pin; }},
      {"NVC_FLUSH_DRAIN_TIMEOUT_MS", "5",
       [](S s) { return s.drain_timeout_ns == 5000000u; }},
  };
  const core::PoolSettings unset = core::pool_settings_from_env();
  EXPECT_EQ(unset.flush_workers, 1u);
  EXPECT_EQ(unset.analysis_workers, 1u);
  EXPECT_FALSE(unset.pin);
  EXPECT_EQ(unset.drain_timeout_ns, 0u);
  for (const auto& t : cases) {
    ASSERT_EQ(::setenv(t.knob, t.value, 1), 0);
    EXPECT_TRUE(t.landed(core::pool_settings_from_env()))
        << t.knob << "=" << t.value;
    ::unsetenv(t.knob);
  }
}

TEST_F(RuntimeConfigEnv, MalformedPoolKnobsAreRefusedByName) {
  // Each used to be read leniently: NVC_PIN=yes read 0, NVC_FLUSH_WORKERS=
  // two read 1, NVC_FLUSH_DRAIN_TIMEOUT_MS=5s read 5 and =-1 switched the
  // watchdog off. from_env refuses them too, so a binary stops before any
  // pool starts.
  const Rejection cases[] = {
      {"NVC_FLUSH_WORKERS", "two", "an integer"},
      {"NVC_ANALYSIS_WORKERS", "-1", "an integer"},
      {"NVC_PIN", "yes", "0|1"},
      {"NVC_FLUSH_DRAIN_TIMEOUT_MS", "5s", "an integer"},
      {"NVC_FLUSH_DRAIN_TIMEOUT_MS", "-1", "an integer"},
      {"NVC_FLUSH_DRAIN_TIMEOUT_MS", "18446744073709552", "an integer"},
  };
  for (const Rejection& t : cases) {
    ASSERT_EQ(::setenv(t.knob, t.value, 1), 0);
    const std::string expected = std::string(t.knob) + "=" + t.value;
    for (const auto& parse : std::initializer_list<std::function<void()>>{
             [] { (void)core::pool_settings_from_env(); },
             [] { (void)RuntimeConfig::from_env({}); }}) {
      try {
        parse();
        ADD_FAILURE() << expected << " was accepted";
      } catch (const std::invalid_argument& e) {
        const std::string message = e.what();
        EXPECT_NE(message.find(expected), std::string::npos) << message;
        EXPECT_NE(message.find(t.want), std::string::npos) << message;
      }
    }
    ::unsetenv(t.knob);
  }
}

}  // namespace
}  // namespace nvc::runtime
