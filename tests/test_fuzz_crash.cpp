// Randomized crash-state fuzzer with a cross-mode durability oracle
// (DESIGN.md §9).
//
// Seeded random FASE programs (src/testing/fuzz_program.hpp) run on the
// shared freeze/restart rig (tests/support/crash_rig.hpp) under every
// combination of the three durability mode axes —
//
//     log protocol      strict | batched     (LogSyncMode)
//     data write-backs  sync   | flush-behind pipeline
//     burst analysis    sync   | async (handed-off)
//
// — with the durable image frozen at randomized event indices. For every
// crash point, the DurabilityOracle gives the only legal outcomes: each
// context must recover to the image after SOME committed outermost FASE of
// that context, and — because the whole run is deterministic (manual
// channels + the seeded virtual scheduler stand in for the background
// workers) — the recovered commit index must be monotone in the freeze
// index. EVERY failure message carries a one-line replay command
// (NVC_FUZZ_SEED + NVC_FUZZ_MODE + NVC_FUZZ_FREEZE) that reproduces the
// exact program, interleaving, and crash point.
//
// Knobs (all optional):
//   NVC_FUZZ_SEED=N    run exactly one program, generated from seed N
//   NVC_FUZZ_ITERS=N   programs per mode (default 8; nightly runs raise it)
//   NVC_FUZZ_MODE=S    only the named mode combo, e.g. batched-asyncflush-syncanalysis
//   NVC_FUZZ_FREEZE=N  only the named freeze event (with SEED: one exact case)
//
// Two differential companions ride along: the analyze/MRC/knee pipeline is
// checked against its brute-force references on random traces, and the
// generated programs are replayed on the REAL Runtime (real threads, real
// background workers, pm_alloc/pm_free) with every live object's final
// bytes checked against the oracle.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "core/analyzer.hpp"
#include "pmem/pmem_region.hpp"
#include "runtime/runtime.hpp"
#include "support/crash_rig.hpp"
#include "testing/durability_oracle.hpp"
#include "testing/fuzz_program.hpp"
#include "testing/seed.hpp"
#include "testing/virtual_scheduler.hpp"

namespace nvc::testing {
namespace {

constexpr std::uint64_t kDefaultBaseSeed = 20260806;

/// Per-iteration program seed: derived from the base by splitmix64 so
/// consecutive iterations explore unrelated programs; masked to int64 range
/// so the printed replay value round-trips through env_int().
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t iter) {
  std::uint64_t sm = base + iter;
  return splitmix64(sm) & 0x7fffffffffffffffULL;
}

/// Effective (seed, iteration-count) honoring the replay knobs: an explicit
/// NVC_FUZZ_SEED pins one exact program.
struct SeedPlan {
  std::uint64_t override_seed;
  bool pinned;
  std::uint64_t iters;

  std::uint64_t seed(std::uint64_t iter) const {
    return pinned ? override_seed : derive_seed(kDefaultBaseSeed, iter);
  }
};

SeedPlan seed_plan(std::uint64_t default_iters) {
  const std::int64_t env_seed = env_int("NVC_FUZZ_SEED", -1);
  SeedPlan plan;
  plan.pinned = env_seed >= 0;
  plan.override_seed = plan.pinned ? static_cast<std::uint64_t>(env_seed) : 0;
  plan.iters =
      plan.pinned
          ? 1
          : static_cast<std::uint64_t>(env_int(
                "NVC_FUZZ_ITERS", static_cast<std::int64_t>(default_iters)));
  return plan;
}

// --------------------------------------------------------------------------
// The 2x2x2 mode matrix.
// --------------------------------------------------------------------------

struct FuzzMode {
  runtime::LogSyncMode log;
  bool async_flush;
  bool async_analysis;
};

std::string mode_name(const FuzzMode& mode) {
  return std::string(runtime::to_string(mode.log)) + "-" +
         (mode.async_flush ? "asyncflush" : "syncflush") + "-" +
         (mode.async_analysis ? "asyncanalysis" : "syncanalysis");
}

const FuzzMode kAllModes[] = {
    {runtime::LogSyncMode::kStrict, false, false},
    {runtime::LogSyncMode::kStrict, false, true},
    {runtime::LogSyncMode::kStrict, true, false},
    {runtime::LogSyncMode::kStrict, true, true},
    {runtime::LogSyncMode::kBatched, false, false},
    {runtime::LogSyncMode::kBatched, false, true},
    {runtime::LogSyncMode::kBatched, true, false},
    {runtime::LogSyncMode::kBatched, true, true},
};

CrashRigConfig fuzz_rig_config(const FuzzProgram& program,
                               const FuzzMode& mode) {
  CrashRigConfig config;
  config.mode = mode.log;
  config.async_flush = mode.async_flush;
  // Deterministic everywhere: the flush ring is a manual channel (pumped
  // only by the virtual scheduler below) and async analysis uses a manual
  // analysis channel — no OS thread other than this one ever runs.
  config.manual_pipeline = true;
  config.online_policy = true;  // the analysis axis needs a sampling policy
  config.async_analysis = mode.async_analysis;
  config.contexts = program.contexts;
  config.data_lines = program.data_lines;
  return config;
}

/// Interpret the program on the rig. After every op the seeded virtual
/// scheduler decides how much "background" work happens — how many queued
/// write-backs each context's virtual flush worker performs, and whether
/// its virtual analysis worker gets a quantum. All scheduler draws depend
/// only on the program seed, never on the freeze point, so every freeze
/// value observes the same execution and the same event indexing.
void run_program(CrashRig& rig, const FuzzProgram& program) {
  std::uint64_t sm = program.seed ^ 0x5ced0123abcd7777ULL;
  VirtualScheduler scheduler(splitmix64(sm));
  for (const FuzzOp& op : program.ops) {
    switch (op.kind) {
      case FuzzOpKind::kFaseBegin:
        rig.fase_begin(op.ctx);
        break;
      case FuzzOpKind::kFaseEnd:
        rig.fase_end(op.ctx);
        break;
      case FuzzOpKind::kPstore: {
        const FuzzObject& obj = program.objects[op.object];
        const std::vector<std::uint8_t> bytes =
            payload_bytes(op.value_seed, op.len);
        rig.pstore(op.ctx, obj.offset + op.offset, bytes.data(),
                   bytes.size());
        break;
      }
      case FuzzOpKind::kPersistBarrier:
        rig.persist_barrier(op.ctx);
        break;
      case FuzzOpKind::kAlloc:
      case FuzzOpKind::kFree:
        break;  // bump-allocated offsets; nothing for the rig to do
    }
    for (std::uint32_t c = 0; c < program.contexts; ++c) {
      for (std::uint32_t n = scheduler.flush_quantum(); n > 0; --n) {
        if (!rig.pump_flush(c)) break;
      }
      if (scheduler.analysis_quantum()) (void)rig.pump_analysis(c);
    }
  }
}

/// The freeze indices to sweep: exhaustive when the run is small, else the
/// endpoints plus a seeded random sample — sorted, so the monotonicity
/// assertion applies across the sampled sweep too. NVC_FUZZ_FREEZE pins a
/// single point (the replay path).
std::vector<std::uint64_t> freeze_points(std::uint64_t total,
                                         std::uint64_t seed) {
  const std::int64_t pinned = env_int("NVC_FUZZ_FREEZE", -1);
  if (pinned >= 0) return {static_cast<std::uint64_t>(pinned)};
  constexpr std::uint64_t kExhaustive = 512;
  std::vector<std::uint64_t> points;
  if (total <= kExhaustive) {
    for (std::uint64_t e = 0; e <= total; ++e) points.push_back(e);
    return points;
  }
  std::uint64_t sm = seed ^ 0xf0f0e1e1d2d2c3c3ULL;
  Rng rng(splitmix64(sm));
  points.push_back(0);
  for (std::uint64_t i = 0; i < kExhaustive; ++i) {
    points.push_back(rng.below(total + 1));
  }
  points.push_back(total);
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  return points;
}

// --------------------------------------------------------------------------
// The tentpole: crash sweep across all eight mode combinations.
// --------------------------------------------------------------------------

class FuzzCrash : public ::testing::TestWithParam<FuzzMode> {};

TEST_P(FuzzCrash, EveryCrashStateIsACommittedFasePrefix) {
  const FuzzMode mode = GetParam();
  const std::string only = env_str("NVC_FUZZ_MODE", "");
  if (!only.empty() && only != mode_name(mode)) {
    GTEST_SKIP() << "NVC_FUZZ_MODE=" << only << " filters out this combo";
  }

  const SeedPlan plan = seed_plan(/*default_iters=*/8);
  for (std::uint64_t iter = 0; iter < plan.iters; ++iter) {
    const std::uint64_t seed = plan.seed(iter);
    const FuzzProgram program = generate_program(seed);
    const DurabilityOracle oracle(program);

    // Probe run, never frozen: learns the event count (identical for every
    // freeze value — the execution is deterministic) and pins down the
    // no-crash contract: an uninterrupted run recovers to exactly the final
    // committed image of every context.
    CrashRig probe(fuzz_rig_config(program, mode));
    run_program(probe, program);
    const std::uint64_t total = probe.events();
    for (std::size_t c = 0; c < program.contexts; ++c) {
      ASSERT_EQ(probe.recovered_data(c), oracle.final_committed(c))
          << "ctx " << c << ": uninterrupted run lost committed data\n  "
          << fuzz_replay_line(seed, mode_name(mode), total);
    }

    std::vector<int> last_index(program.contexts, -1);
    for (const std::uint64_t e : freeze_points(total, seed)) {
      CrashRig rig(fuzz_rig_config(program, mode));
      rig.freeze_at(e);
      run_program(rig, program);
      for (std::size_t c = 0; c < program.contexts; ++c) {
        const std::vector<std::uint8_t> image = rig.recovered_data(c);
        const int index = oracle.match(c, image);
        ASSERT_GE(index, 0)
            << "ctx " << c << ": crash at event " << e << "/" << total
            << " recovered a state matching no committed FASE\n  "
            << fuzz_replay_line(seed, mode_name(mode), e);
        ASSERT_GE(index, last_index[c])
            << "ctx " << c << ": durability regressed — freeze " << e
            << " recovered commit " << index << " after an earlier freeze "
            << "had already reached " << last_index[c] << "\n  "
            << fuzz_replay_line(seed, mode_name(mode), e);
        last_index[c] = index;
      }
    }
    if (env_int("NVC_FUZZ_FREEZE", -1) < 0) {
      // The unfrozen end of the sweep must have reached the final commit.
      for (std::size_t c = 0; c < program.contexts; ++c) {
        ASSERT_EQ(static_cast<std::size_t>(last_index[c]) + 1,
                  oracle.snapshots(c).size())
            << "ctx " << c << ": sweep never recovered the final commit\n  "
            << fuzz_replay_line(seed, mode_name(mode), total);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, FuzzCrash, ::testing::ValuesIn(kAllModes),
                         [](const auto& param_info) {
                           std::string name = mode_name(param_info.param);
                           std::erase(name, '-');
                           return name;
                         });

// --------------------------------------------------------------------------
// Pool-independence of the deterministic schedule (DESIGN.md §11).
// --------------------------------------------------------------------------

TEST(FuzzDeterminism, WorkerPoolsCannotPerturbManualReplays) {
  // The fuzzer's whole value rests on manual channels being invisible to
  // every pool thread: replays must be byte-identical no matter how many
  // flush/analysis workers exist or how busy they are. Run the same program
  // twice in the fully-async manual mode — the second time while local
  // 4-worker flush and analysis pools churn real channels (sweeps, steals,
  // pokes all active) — and require the same event count and the same
  // durable image, byte for byte.
  const FuzzMode mode{runtime::LogSyncMode::kBatched, true, true};
  const std::uint64_t seed = derive_seed(kDefaultBaseSeed, 0);
  const FuzzProgram program = generate_program(seed);

  CrashRig quiet(fuzz_rig_config(program, mode));
  run_program(quiet, program);
  const std::uint64_t quiet_events = quiet.events();
  std::vector<std::vector<std::uint8_t>> quiet_images;
  for (std::size_t c = 0; c < program.contexts; ++c) {
    quiet_images.push_back(quiet.durable_data(c));
  }

  core::FlushWorker flush_pool(4);
  core::AnalysisWorker analysis_pool(4);
  struct NullSink final : core::FlushSink {
    bool flush_line(LineAddr) override { return true; }
  };
  auto noisy_flush =
      flush_pool.open_channel(std::make_unique<NullSink>(), 64);
  auto noisy_analysis = analysis_pool.open_channel();
  std::atomic<bool> done{false};
  std::thread churn([&] {
    std::vector<LineAddr> burst(128);
    for (std::size_t i = 0; i < burst.size(); ++i) {
      burst[i] = static_cast<LineAddr>(i % 16);
    }
    while (!done.load(std::memory_order_acquire)) {
      for (LineAddr l = 0; l < 32; ++l) (void)noisy_flush->try_push(l);
      noisy_flush->request_wake();
      auto copy = burst;
      (void)noisy_analysis->submit(std::move(copy), core::KneeConfig{});
      std::this_thread::yield();
    }
    noisy_flush->wait_drained();
    noisy_analysis->drain();
  });

  CrashRig noisy(fuzz_rig_config(program, mode));
  run_program(noisy, program);
  EXPECT_EQ(noisy.events(), quiet_events)
      << "pool activity changed the deterministic event schedule";
  for (std::size_t c = 0; c < program.contexts; ++c) {
    EXPECT_EQ(noisy.durable_data(c), quiet_images[c])
        << "ctx " << c << ": replay no longer byte-identical under pools\n  "
        << fuzz_replay_line(seed, mode_name(mode), quiet_events);
  }

  done.store(true, std::memory_order_release);
  churn.join();
  noisy_flush->close();
  noisy_analysis->close();
}

// --------------------------------------------------------------------------
// The fault dimension: the same sweep under injected media faults.
// --------------------------------------------------------------------------

/// Fault campaign configuration: NVC_FAULT_* from the environment when the
/// operator set any (the replay path — failure messages print the active
/// fragment), otherwise defaults noisy enough that every failure class and
/// every degradation latch fires somewhere in the campaign. The injector
/// seed derives from the program seed so each iteration explores different
/// fault placements yet replays bit-for-bit.
pmem::FaultConfig fault_fuzz_config(std::uint64_t program_seed) {
  pmem::FaultConfig fault = pmem::FaultConfig::from_env();
  if (!fault.enabled()) {
    fault.rate = 0.08;           // transient per-attempt failure probability
    fault.bad_line_rate = 0.015; // permanently bad media lines
    fault.torn_rate = 0.5;       // the crash-point write-back tears
    fault.max_retries = 3;
    fault.degrade_after = 4;
  }
  // Virtual time: a retry must not busy-wait on the fuzzing thread (with
  // zero backoff a retry is just another deterministic attempt).
  fault.backoff_ns = 0;
  fault.backoff_cap_ns = 0;
  if (env_str("NVC_FAULT_SEED", "").empty() &&
      env_str("NVC_SEED", "").empty()) {
    std::uint64_t sm = program_seed ^ 0xfa17c0defa17c0deULL;
    fault.seed = splitmix64(sm);
  }
  return fault;
}

class FaultFuzzCrash : public ::testing::TestWithParam<FuzzMode> {};

TEST_P(FaultFuzzCrash, DegradedRunsStillRecoverCommittedPrefixes) {
  const FuzzMode mode = GetParam();
  const std::string only = env_str("NVC_FUZZ_MODE", "");
  if (!only.empty() && only != mode_name(mode)) {
    GTEST_SKIP() << "NVC_FUZZ_MODE=" << only << " filters out this combo";
  }

  const SeedPlan plan = seed_plan(/*default_iters=*/4);
  // Campaign aggregates: the defaults must actually exercise quarantine and
  // the degradation latches, not just survive them (asserted below).
  std::uint64_t quarantined = 0;
  std::uint64_t flush_degrades = 0;
  std::uint64_t log_degrades = 0;
  std::uint64_t suspensions = 0;
  for (std::uint64_t iter = 0; iter < plan.iters; ++iter) {
    const std::uint64_t seed = plan.seed(iter);
    const FuzzProgram program = generate_program(seed);
    const DurabilityOracle oracle(program);
    const pmem::FaultConfig fault = fault_fuzz_config(seed);
    const std::string fault_env = fault.describe();

    CrashRigConfig rig_config = fuzz_rig_config(program, mode);
    rig_config.fault = fault;

    // Probe run, never frozen: learns the event count and checks the
    // no-crash contract under faults — commits may be suspended, so the
    // recovered image matches SOME committed FASE of the context (not
    // necessarily the last one, as in the fault-free sweep).
    CrashRig probe(rig_config);
    run_program(probe, program);
    const std::uint64_t total = probe.events();
    for (std::size_t c = 0; c < program.contexts; ++c) {
      ASSERT_GE(oracle.match(c, probe.recovered_data(c)), 0)
          << "ctx " << c << ": uninterrupted faulty run recovered a state "
          << "matching no committed FASE\n  "
          << fuzz_replay_line(seed, mode_name(mode), total, fault_env);
      quarantined += probe.fault_stats(c).quarantined_count();
      flush_degrades += probe.flush_degraded(c) ? 1 : 0;
      log_degrades += probe.log_degraded(c) ? 1 : 0;
      suspensions += probe.commit_suspended(c) ? 1 : 0;
    }

    std::vector<int> last_index(program.contexts, -1);
    for (const std::uint64_t e : freeze_points(total, seed)) {
      CrashRig rig(rig_config);
      rig.freeze_at(e);
      run_program(rig, program);
      for (std::size_t c = 0; c < program.contexts; ++c) {
        const std::vector<std::uint8_t> image = rig.recovered_data(c);
        const int index = oracle.match(c, image);
        ASSERT_GE(index, 0)
            << "ctx " << c << ": crash at event " << e << "/" << total
            << " under injected faults recovered a state matching no "
            << "committed FASE\n  "
            << fuzz_replay_line(seed, mode_name(mode), e, fault_env);
        // Injector decisions are pure in (seed, line, attempt ordinal), so
        // the pre-freeze execution — fault outcomes included — is identical
        // at every freeze point and durability must still be monotone.
        ASSERT_GE(index, last_index[c])
            << "ctx " << c << ": durability regressed under faults — freeze "
            << e << " recovered commit " << index << " after an earlier "
            << "freeze had already reached " << last_index[c] << "\n  "
            << fuzz_replay_line(seed, mode_name(mode), e, fault_env);
        last_index[c] = index;
      }
    }
  }

  // Campaign-coverage asserts (deterministic: seeds derive from the fixed
  // base). Skipped on pinned replays / operator overrides, where the
  // campaign is deliberately partial.
  const bool pinned = env_int("NVC_FUZZ_SEED", -1) >= 0 ||
                      env_int("NVC_FUZZ_FREEZE", -1) >= 0 ||
                      pmem::FaultConfig::from_env().enabled() ||
                      !env_str("NVC_SEED", "").empty() ||
                      env_int("NVC_FUZZ_ITERS", -1) >= 0;
  if (pinned) return;
  EXPECT_GT(quarantined, 0u)
      << "fault campaign never quarantined a line; the bad-line rate no "
      << "longer exercises retry exhaustion";
  EXPECT_EQ(quarantined > 0, suspensions > 0)
      << "quarantine and commit suspension must latch together";
  if (mode.async_flush) {
    EXPECT_GT(flush_degrades, 0u)
        << "no context latched async->sync under a noisy medium";
  }
  if (mode.log == runtime::LogSyncMode::kBatched) {
    EXPECT_GT(log_degrades, 0u)
        << "no context latched batched->strict under a noisy medium";
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, FaultFuzzCrash,
                         ::testing::ValuesIn(kAllModes),
                         [](const auto& param_info) {
                           std::string name = mode_name(param_info.param);
                           std::erase(name, '-');
                           return name;
                         });

// --------------------------------------------------------------------------
// The admission dimension: the same sweep with write-through bypasses.
// --------------------------------------------------------------------------

class AdmitFuzzCrash : public ::testing::TestWithParam<FuzzMode> {};

TEST_P(AdmitFuzzCrash, BypassedLinesKeepTheDurabilityContract) {
  // Write-admission (DESIGN.md §12) changes WHERE a store's write-back
  // happens — immediately through the LogOrderedSink instead of at
  // eviction/FASE end — but must not change WHAT a crash can leave behind:
  // the same oracle, the same monotone durability, under every mode combo
  // and both non-trivial admission modes. NVC_ADMIT pins one admission
  // mode for replay (failure lines carry the fragment).
  const FuzzMode mode = GetParam();
  const std::string only = env_str("NVC_FUZZ_MODE", "");
  if (!only.empty() && only != mode_name(mode)) {
    GTEST_SKIP() << "NVC_FUZZ_MODE=" << only << " filters out this combo";
  }

  const core::AdmitMode sweep[] = {core::AdmitMode::kWriteOnce,
                                   core::AdmitMode::kReuse};
  const std::string admit_pin = env_str("NVC_ADMIT", "");
  const SeedPlan plan = seed_plan(/*default_iters=*/4);
  std::uint64_t bypassed_total = 0;
  for (const core::AdmitMode admit : sweep) {
    if (!admit_pin.empty() && admit_pin != core::to_string(admit)) continue;
    const std::string admit_env =
        std::string("NVC_ADMIT=") + core::to_string(admit);
    for (std::uint64_t iter = 0; iter < plan.iters; ++iter) {
      const std::uint64_t seed = plan.seed(iter);
      const FuzzProgram program = generate_program(seed);
      const DurabilityOracle oracle(program);

      CrashRigConfig rig_config = fuzz_rig_config(program, mode);
      rig_config.admission = admit;

      // Probe run, never frozen: no faults are injected, so even with
      // bypasses the uninterrupted run must recover the final commit.
      CrashRig probe(rig_config);
      run_program(probe, program);
      const std::uint64_t total = probe.events();
      bypassed_total += probe.bypassed_stores();
      for (std::size_t c = 0; c < program.contexts; ++c) {
        ASSERT_EQ(probe.recovered_data(c), oracle.final_committed(c))
            << "ctx " << c << ": uninterrupted run with admission lost "
            << "committed data\n  "
            << fuzz_replay_line(seed, mode_name(mode), total, admit_env);
      }

      std::vector<int> last_index(program.contexts, -1);
      for (const std::uint64_t e : freeze_points(total, seed)) {
        CrashRig rig(rig_config);
        rig.freeze_at(e);
        run_program(rig, program);
        for (std::size_t c = 0; c < program.contexts; ++c) {
          const int index = oracle.match(c, rig.recovered_data(c));
          ASSERT_GE(index, 0)
              << "ctx " << c << ": crash at event " << e << "/" << total
              << " with admission bypasses recovered a state matching no "
              << "committed FASE\n  "
              << fuzz_replay_line(seed, mode_name(mode), e, admit_env);
          ASSERT_GE(index, last_index[c])
              << "ctx " << c << ": durability regressed under admission — "
              << "freeze " << e << " recovered commit " << index
              << " after an earlier freeze had already reached "
              << last_index[c] << "\n  "
              << fuzz_replay_line(seed, mode_name(mode), e, admit_env);
          last_index[c] = index;
        }
      }
    }
  }

  // Campaign coverage (deterministic seeds): the sweep is only meaningful
  // if the doorkeeper actually bypassed stores somewhere. Skipped on
  // pinned replays, where the campaign is deliberately partial.
  const bool pinned = env_int("NVC_FUZZ_SEED", -1) >= 0 ||
                      env_int("NVC_FUZZ_FREEZE", -1) >= 0 ||
                      env_int("NVC_FUZZ_ITERS", -1) >= 0 ||
                      !admit_pin.empty();
  if (pinned) return;
  EXPECT_GT(bypassed_total, 0u)
      << "admission sweep never bypassed a store; the write-once doorkeeper "
      << "no longer sees first touches";
}

INSTANTIATE_TEST_SUITE_P(AllModes, AdmitFuzzCrash,
                         ::testing::ValuesIn(kAllModes),
                         [](const auto& param_info) {
                           std::string name = mode_name(param_info.param);
                           std::erase(name, '-');
                           return name;
                         });

// --------------------------------------------------------------------------
// The elision dimension: the same sweep with FliT-style write-back dedup.
// --------------------------------------------------------------------------

class ElideFuzzCrash : public ::testing::TestWithParam<FuzzMode> {};

TEST_P(ElideFuzzCrash, ElidedWriteBacksKeepTheDurabilityContract) {
  // Flush elision (DESIGN.md §13) may drop a write-back only when an
  // already-announced, not-yet-started write-back of the same line will
  // carry its bytes — so WHAT a crash can leave behind must not change:
  // same oracle, same monotone durability, every mode combo. Two extra
  // invariants ride along: a fully drained run leaves the elision table
  // quiesced (every announce retired — the seeded revert-retire bug is
  // exactly a violation of this), and the elision counters balance
  // (owners + elisions + untracked announces account for every probe).
  const FuzzMode mode = GetParam();
  const std::string only = env_str("NVC_FUZZ_MODE", "");
  if (!only.empty() && only != mode_name(mode)) {
    GTEST_SKIP() << "NVC_FUZZ_MODE=" << only << " filters out this combo";
  }

  const std::string elide_env = "NVC_ELIDE=1";
  const SeedPlan plan = seed_plan(/*default_iters=*/4);
  std::uint64_t elided_total = 0;
  for (std::uint64_t iter = 0; iter < plan.iters; ++iter) {
    const std::uint64_t seed = plan.seed(iter);
    const FuzzProgram program = generate_program(seed);
    const DurabilityOracle oracle(program);

    CrashRigConfig rig_config = fuzz_rig_config(program, mode);
    rig_config.elide = true;

    // Probe run, never frozen: the uninterrupted run must recover the
    // final commit, and — after recovered_data() drained every channel —
    // the table must hold no pending entry.
    CrashRig probe(rig_config);
    run_program(probe, program);
    const std::uint64_t total = probe.events();
    elided_total += probe.elided_flushes();
    for (std::size_t c = 0; c < program.contexts; ++c) {
      ASSERT_EQ(probe.recovered_data(c), oracle.final_committed(c))
          << "ctx " << c << ": uninterrupted run with elision lost "
          << "committed data\n  "
          << fuzz_replay_line(seed, mode_name(mode), total, elide_env);
    }
    ASSERT_EQ(probe.elision_table()->pending_count(), 0u)
        << "elision table not quiescent after a fully drained run — some "
        << "announced write-back never retired\n  "
        << fuzz_replay_line(seed, mode_name(mode), total, elide_env);
    const core::FlushElisionTable::Stats st = probe.elision_table()->stats();
    ASSERT_GE(st.announces, st.owners + st.elisions)
        << "elision counters do not balance\n  "
        << fuzz_replay_line(seed, mode_name(mode), total, elide_env);

    std::vector<int> last_index(program.contexts, -1);
    for (const std::uint64_t e : freeze_points(total, seed)) {
      CrashRig rig(rig_config);
      rig.freeze_at(e);
      run_program(rig, program);
      for (std::size_t c = 0; c < program.contexts; ++c) {
        const int index = oracle.match(c, rig.recovered_data(c));
        ASSERT_GE(index, 0)
            << "ctx " << c << ": crash at event " << e << "/" << total
            << " with flush elision recovered a state matching no "
            << "committed FASE\n  "
            << fuzz_replay_line(seed, mode_name(mode), e, elide_env);
        ASSERT_GE(index, last_index[c])
            << "ctx " << c << ": durability regressed under elision — "
            << "freeze " << e << " recovered commit " << index
            << " after an earlier freeze had already reached "
            << last_index[c] << "\n  "
            << fuzz_replay_line(seed, mode_name(mode), e, elide_env);
        last_index[c] = index;
      }
    }
  }

  // Campaign coverage (deterministic seeds): in flush-behind modes the
  // manual ring holds write-backs across ops, so re-evictions of a queued
  // line must actually elide somewhere — otherwise the dimension tests
  // nothing. Skipped on pinned replays.
  const bool pinned = env_int("NVC_FUZZ_SEED", -1) >= 0 ||
                      env_int("NVC_FUZZ_FREEZE", -1) >= 0 ||
                      env_int("NVC_FUZZ_ITERS", -1) >= 0;
  if (pinned) return;
  if (mode.async_flush) {
    EXPECT_GT(elided_total, 0u)
        << "elision campaign never elided a write-back; the flush-behind "
        << "ring no longer holds lines long enough to dedup";
  } else {
    // A synchronous write-back path has no eliding stage (WritebackPath
    // installs it only over a ring): elision must be exactly zero, and
    // durability untouched.
    EXPECT_EQ(elided_total, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, ElideFuzzCrash,
                         ::testing::ValuesIn(kAllModes),
                         [](const auto& param_info) {
                           std::string name = mode_name(param_info.param);
                           std::erase(name, '-');
                           return name;
                         });

TEST(ElideFuzzBug, SeededRevertRetireBugIsCaught) {
  // Checker validation (the acceptance bar for the elision dimension): arm
  // the "reverted flush-pending decrement" — retire() reports success but
  // leaves the pending count — and require the harness's quiescence
  // invariant to flag it, with the one-line replay attached. The bug makes
  // every later announce of a retired line elide although no write-back
  // remains scheduled; only the commit-point drain re-check stands between
  // that and silent data loss, which is exactly why the invariant must
  // stay armed in the sweep above.
  const FuzzMode mode{runtime::LogSyncMode::kStrict, true, false};
  const std::uint64_t seed = derive_seed(kDefaultBaseSeed, 0);
  const FuzzProgram program = generate_program(seed);

  CrashRigConfig rig_config = fuzz_rig_config(program, mode);
  rig_config.elide = true;
  rig_config.elide_bug_revert_retire = true;

  CrashRig rig(rig_config);
  run_program(rig, program);
  const std::uint64_t total = rig.events();
  // Quiesce exactly as the sweep does before its invariant check.
  for (std::size_t c = 0; c < program.contexts; ++c) {
    (void)rig.recovered_data(c);
  }
  EXPECT_GT(rig.elision_table()->pending_count(), 0u)
      << "the quiescence checker no longer detects a reverted retire; "
      << "a real elide-forever bug would ship undetected ("
      << fuzz_replay_line(seed, mode_name(mode), total, "NVC_ELIDE=1")
      << ")";
  // Defense in depth held: the drain re-check flushed the stranded lines,
  // so even under the bug the uninterrupted run lost nothing.
  const DurabilityOracle oracle(program);
  for (std::size_t c = 0; c < program.contexts; ++c) {
    EXPECT_EQ(rig.recovered_data(c), oracle.final_committed(c))
        << "ctx " << c
        << ": drain re-check failed to cover the buggy retire";
  }
  EXPECT_GT(rig.elision_reflushes(), 0u)
      << "the buggy run never exercised the drain re-check path";
}

// --------------------------------------------------------------------------
// Differential oracle: the analyze/MRC/knee pipeline vs. brute force.
// --------------------------------------------------------------------------

TEST(FuzzDifferential, AnalysisPipelineMatchesBruteForceReferences) {
  const SeedPlan plan = seed_plan(/*default_iters=*/8);
  for (std::uint64_t iter = 0; iter < plan.iters; ++iter) {
    const std::uint64_t seed = plan.seed(iter);
    SCOPED_TRACE(replay_hint("NVC_FUZZ_SEED", seed));
    Rng rng(seed);
    // A dense renamed trace, the exact shape the burst sampler hands to
    // analyze_burst (identities allocated from 0).
    const LineAddr ids = rng.range(4, 40);
    const std::size_t n = rng.range(64, 384);
    std::vector<LineAddr> trace(n);
    for (LineAddr& t : trace) t = rng.below(ids);

    // Interval extraction: dense fast path vs. hashed reference.
    const auto fast = core::intervals_of_dense_trace(trace, ids);
    const auto ref = core::intervals_of_trace(trace);
    ASSERT_EQ(fast.size(), ref.size());
    auto sorted = [](std::vector<core::ReuseInterval> v) {
      std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
        return a.e != b.e ? a.e < b.e : a.s < b.s;
      });
      return v;
    };
    const auto fast_sorted = sorted(fast);
    const auto ref_sorted = sorted(ref);
    for (std::size_t i = 0; i < fast_sorted.size(); ++i) {
      ASSERT_EQ(fast_sorted[i].s, ref_sorted[i].s) << "interval " << i;
      ASSERT_EQ(fast_sorted[i].e, ref_sorted[i].e) << "interval " << i;
    }

    // Linear-time reuse curve vs. the O(n^2) window enumeration.
    const auto n_time = static_cast<LogicalTime>(n);
    const auto reuse_fast = core::compute_reuse_all_k(fast, n_time);
    const auto reuse_ref = core::compute_reuse_brute_force(ref, n_time);
    for (LogicalTime k = 1; k <= n_time; ++k) {
      ASSERT_NEAR(reuse_fast.at(k), reuse_ref.at(k), 1e-7) << "k=" << k;
    }

    // Footprint curve vs. its brute-force reference.
    const auto fp_fast = core::compute_footprint_all_k(trace);
    const auto fp_ref = core::compute_footprint_brute_force(trace);
    for (LogicalTime k = 1; k <= n_time; ++k) {
      ASSERT_NEAR(fp_fast.at(k), fp_ref.at(k), 1e-7) << "k=" << k;
    }

    // End to end: analyze_burst must equal the pipeline recomposed from the
    // brute-force reuse curve — same MRC, same knee selection.
    const core::KneeConfig knee;
    const core::BurstAnalysis analysis = core::analyze_burst(trace, knee);
    const core::Mrc mrc_ref = core::mrc_from_reuse(reuse_ref, knee.max_size);
    ASSERT_EQ(analysis.mrc.max_size(), mrc_ref.max_size());
    for (std::size_t c = 1; c <= mrc_ref.max_size(); ++c) {
      ASSERT_NEAR(analysis.mrc.at(c), mrc_ref.at(c), 1e-7) << "size " << c;
      if (c >= 2) {  // LRU inclusion: the published MRC is non-increasing
        ASSERT_LE(analysis.mrc.at(c), analysis.mrc.at(c - 1) + 1e-12);
      }
    }
    const core::KneeResult selection =
        core::KneeFinder(knee).select(mrc_ref);
    EXPECT_EQ(analysis.selection.chosen_size, selection.chosen_size);
    EXPECT_EQ(analysis.selection.had_knees, selection.had_knees);
    EXPECT_EQ(analysis.selection.candidates, selection.candidates);
  }
}

// --------------------------------------------------------------------------
// Differential oracle: generated programs on the REAL runtime.
// --------------------------------------------------------------------------

std::string unique_region(const char* base) {
  static int counter = 0;
  return std::string(base) + "." + std::to_string(::getpid()) + "." +
         std::to_string(counter++);
}

TEST(FuzzRuntimeDifferential, LiveObjectsMatchTheOracleAfterRealThreads) {
  // The crash sweep runs the deterministic rig; this companion replays the
  // same generated programs on the production Runtime — one real OS thread
  // per context, real background flush/analysis workers, the real
  // allocator — and checks every live object's final bytes against the
  // oracle, plus the log's committed-at-exit invariant. (No crash injection
  // here: the real backends cannot freeze; nondeterministic interleavings
  // are exactly what the end-state check must be robust to.)
  struct RtMode {
    runtime::LogSyncMode log;
    bool async_flush;
    bool async_analysis;
  };
  const RtMode rt_modes[] = {
      {runtime::LogSyncMode::kStrict, false, false},
      {runtime::LogSyncMode::kBatched, true, true},
  };
  const SeedPlan plan = seed_plan(/*default_iters=*/4);
  for (std::uint64_t iter = 0; iter < plan.iters; ++iter) {
    const std::uint64_t seed = plan.seed(iter);
    SCOPED_TRACE(replay_hint("NVC_FUZZ_SEED", seed));
    const FuzzProgram program = generate_program(seed);
    const DurabilityOracle oracle(program);
    for (const RtMode& mode : rt_modes) {
      SCOPED_TRACE(std::string("log=") + runtime::to_string(mode.log) +
                   (mode.async_flush ? " asyncflush" : " syncflush") +
                   (mode.async_analysis ? " asyncanalysis" : ""));
      runtime::RuntimeConfig config;
      config.region_name = unique_region("fuzzrt");
      config.region_size = 1u << 20;
      config.policy = core::PolicyKind::kSoftCache;
      config.policy_config.cache_size = 4;
      config.policy_config.sampler.burst_length = 64;
      config.policy_config.sampler.hibernation_length = 32;
      config.policy_config.sampler.async_analysis = mode.async_analysis;
      config.flush = pmem::FlushKind::kCountOnly;
      config.undo_logging = true;
      config.log_sync = mode.log;
      config.async_flush = mode.async_flush;
      config.flush_queue_depth = 8;
      runtime::Runtime rt(config);

      std::vector<void*> ptrs(program.objects.size(), nullptr);
      std::vector<std::thread> threads;
      for (std::uint32_t c = 0; c < program.contexts; ++c) {
        threads.emplace_back([&, c] {
          for (const FuzzOp& op : program.ops) {
            if (op.ctx != c) continue;
            switch (op.kind) {
              case FuzzOpKind::kFaseBegin:
                rt.fase_begin();
                break;
              case FuzzOpKind::kFaseEnd:
                rt.fase_end();
                break;
              case FuzzOpKind::kPstore: {
                const std::vector<std::uint8_t> bytes =
                    payload_bytes(op.value_seed, op.len);
                rt.pstore(static_cast<char*>(ptrs[op.object]) + op.offset,
                          bytes.data(), bytes.size());
                break;
              }
              case FuzzOpKind::kPersistBarrier:
                rt.persist_barrier();
                break;
              case FuzzOpKind::kAlloc: {
                void* p = rt.pm_alloc(op.len);
                ptrs[op.object] = p;
                // The oracle's images start zeroed; match it (an
                // unprotected pstore outside any FASE, as Atlas permits
                // for initialization).
                const std::vector<std::uint8_t> zeros(op.len, 0);
                rt.pstore(p, zeros.data(), zeros.size());
                break;
              }
              case FuzzOpKind::kFree:
                rt.pm_free(ptrs[op.object]);
                ptrs[op.object] = nullptr;
                break;
            }
          }
          rt.thread_flush();
        });
      }
      for (std::thread& t : threads) t.join();

      EXPECT_FALSE(rt.needs_recovery())
          << "every FASE committed, yet a log segment wants recovery";
      for (std::uint32_t id = 0; id < program.objects.size(); ++id) {
        if (ptrs[id] == nullptr) continue;  // freed: memory may be reused
        const std::vector<std::uint8_t> expected =
            oracle.final_object_bytes(program, id);
        EXPECT_EQ(0,
                  std::memcmp(ptrs[id], expected.data(), expected.size()))
            << "object " << id << " (ctx " << program.objects[id].ctx
            << ", " << expected.size() << " bytes) diverged from the oracle";
      }
      rt.destroy_storage();
    }
  }
}

}  // namespace
}  // namespace nvc::testing
