// Crash matrix for the undo-log durability protocols (DESIGN.md §7).
//
// The freeze/restart rig lives in tests/support/crash_rig.{hpp,cpp} (it is
// shared with the crash-state fuzzer, test_fuzz_crash.cpp); this suite
// drives it through a fixed script and sweeps the durable image's freeze
// point over EVERY event index in the run (each pstore and each attempted
// line flush, on either the data or the log path). That hits all the
// interesting boundaries: before a log sync, after the sync but before the
// data flush it ordered, mid data-flush burst, after the flushes but before
// commit, and after commit. For each freeze point the test restarts from
// the durable image, runs log recovery, and asserts the data region equals
// the state after SOME committed FASE — the all-or-nothing guarantee.
//
// A separate test checks strict/batched equivalence: same script, identical
// recovered-equivalent durable data images and identical data-flush counts,
// with batched issuing strictly fewer log fences.
//
// The async dimension runs the same engine with the flush-behind pipeline
// (core/flush_pipeline.hpp) in the data path: evicted lines queue in a ring
// popped by the background FlushWorker, so a freeze can land while lines
// are still queued — those write-backs claim later event indices and are
// dropped, exactly modeling power failing with writes still in flight. The
// sweep asserts recovery lands on a committed FASE at *every* freeze point,
// and an equivalence test asserts async data traffic is identical to sync.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "support/crash_rig.hpp"

namespace nvc::runtime {
namespace {

using nvc::testing::CrashRig;
using nvc::testing::CrashRigConfig;

constexpr std::size_t kDataLines = 8;
constexpr std::size_t kDataBytes = kDataLines * kCacheLineSize;
constexpr std::size_t kCells = kDataBytes / sizeof(std::uint64_t);
constexpr int kFases = 8;
constexpr int kStoresPerFase = 6;

using DataImage = std::array<std::uint64_t, kCells>;

CrashRigConfig matrix_config(LogSyncMode mode, bool async) {
  CrashRigConfig config;  // defaults match this suite's historical layout
  config.mode = mode;
  config.async_flush = async;
  config.data_lines = kDataLines;
  return config;
}

DataImage to_image(const std::vector<std::uint8_t>& bytes) {
  DataImage out;
  EXPECT_EQ(bytes.size(), sizeof out);
  std::memcpy(out.data(), bytes.data(), sizeof out);
  return out;
}

/// Deterministic script; returns the expected data image after each
/// committed FASE (index 0 = the initial all-zero state).
std::vector<DataImage> run_script(CrashRig& rig) {
  std::vector<DataImage> snapshots;
  DataImage state{};
  snapshots.push_back(state);
  Rng rng(99);
  for (int f = 0; f < kFases; ++f) {
    rig.fase_begin();
    for (int s = 0; s < kStoresPerFase; ++s) {
      const std::size_t cell = rng.below(kCells);
      const std::uint64_t value = rng();
      rig.pstore_u64(0, cell, value);
      state[cell] = value;
    }
    rig.fase_end();
    snapshots.push_back(state);
  }
  return snapshots;
}

int snapshot_index(const std::vector<DataImage>& snapshots,
                   const DataImage& image) {
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    if (snapshots[i] == image) return static_cast<int>(i);
  }
  return -1;
}

/// What the mixed script did, for the log-traffic assertions.
struct MixedRun {
  std::vector<DataImage> snapshots;  // per committed FASE, as run_script
  std::uint64_t records = 0;         // undo records (one per pstore_u64)
  std::uint64_t logged_fases = 0;    // outermost FASEs that logged a record
};

/// Logged FASEs interleaved with FASEs that log nothing: empty ones (some
/// nested) and report-only ones. A report-only FASE writes cells of one
/// line only, so that line's single write-back makes it all-or-nothing
/// without a log; every committed FASE is a snapshot.
MixedRun run_mixed_script(CrashRig& rig) {
  constexpr std::size_t kCellsPerLine = kCacheLineSize / sizeof(std::uint64_t);
  MixedRun run;
  DataImage state{};
  run.snapshots.push_back(state);
  Rng rng(7);
  auto logged_stores = [&](int stores) {
    for (int s = 0; s < stores; ++s) {
      const std::size_t cell = rng.below(kCells);
      const std::uint64_t value = rng();
      rig.pstore_u64(0, cell, value);
      state[cell] = value;
      ++run.records;
    }
    ++run.logged_fases;
  };
  for (int f = 0; f < 2 * kFases; ++f) {
    rig.fase_begin();
    switch (f % 4) {
      case 0:
        logged_stores(kStoresPerFase);
        break;
      case 1:  // empty, nested on every other pass
        if (f % 8 == 1) {
          rig.fase_begin();
          rig.fase_end();
        }
        break;
      case 2: {  // report-only, within one line
        const std::size_t line = rng.below(kDataLines);
        const std::size_t cells = 1 + rng.below(3);
        for (std::size_t i = 0; i < cells; ++i) {
          const std::size_t cell = line * kCellsPerLine + rng.below(kCellsPerLine);
          const std::uint64_t value = rng();
          rig.pwrote_u64(0, cell, value);
          state[cell] = value;
        }
        break;
      }
      default:  // logged, with an empty inner FASE first
        rig.fase_begin();
        rig.fase_end();
        logged_stores(kStoresPerFase / 2);
        break;
    }
    rig.fase_end();
    run.snapshots.push_back(state);
  }
  return run;
}

struct MatrixParam {
  LogSyncMode mode;
  bool async;
};

class CrashMatrix : public ::testing::TestWithParam<MatrixParam> {};

/// Freeze `script` at every event of its run under (mode, async) and
/// require each recovered image to be a committed snapshot.
template <typename Script>
void sweep_every_freeze_point(LogSyncMode mode, bool async, Script script) {
  // Dry run: learn the event count and the expected per-FASE snapshots.
  CrashRig dry(matrix_config(mode, async));
  const std::vector<DataImage> snapshots = script(dry);
  const std::uint64_t total = dry.events();
  ASSERT_GT(total, 100u) << "script too small to exercise boundaries";

  // Async runs are nondeterministic in their event *indexing* (worker
  // write-backs race the application thread for slots, and each hazard
  // sync adds log flushes), so a run's total can exceed the dry run's;
  // sweep well past it so late freeze points are hit in any interleaving.
  const std::uint64_t sweep_end = async ? total + 256 : total;

  int max_recovered = -1;
  for (std::uint64_t e = 0; e <= sweep_end; ++e) {
    CrashRig rig(matrix_config(mode, async));
    rig.freeze_at(e);
    (void)script(rig);
    const DataImage image = to_image(rig.recovered_data());
    const int idx = snapshot_index(snapshots, image);
    ASSERT_GE(idx, 0) << to_string(mode) << (async ? "/async" : "/sync")
                      << ": freeze at event " << e << "/" << total
                      << " recovered a state matching no committed FASE";
    if (!async) {
      // Durability is monotone in the freeze point: a later crash can never
      // recover to an older committed state. (Async runs are separate
      // interleavings per freeze index, so cross-run monotonicity is not a
      // guarantee — all-or-nothing above is.)
      ASSERT_GE(idx, max_recovered) << to_string(mode) << ": freeze " << e;
    }
    max_recovered = std::max(max_recovered, idx);
  }
  // The unfrozen end of the sweep must have reached the final state.
  EXPECT_EQ(max_recovered, snapshot_index(snapshots, snapshots.back()));
}

TEST_P(CrashMatrix, EveryFreezePointRecoversToACommittedFase) {
  const auto [mode, async] = GetParam();
  sweep_every_freeze_point(mode, async, run_script);
}

TEST_P(CrashMatrix, FasesThatLogNothingKeepEveryFreezePointCommitted) {
  // Empty and report-only FASEs commit without touching the log; every
  // crash point around them must still recover a committed snapshot.
  const auto [mode, async] = GetParam();
  sweep_every_freeze_point(mode, async, [](CrashRig& rig) {
    return run_mixed_script(rig).snapshots;
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, CrashMatrix,
    ::testing::Values(MatrixParam{LogSyncMode::kStrict, false},
                      MatrixParam{LogSyncMode::kBatched, false},
                      MatrixParam{LogSyncMode::kStrict, true},
                      MatrixParam{LogSyncMode::kBatched, true}),
    [](const auto& param_info) {
      return std::string(to_string(param_info.param.mode)) +
             (param_info.param.async ? "Async" : "Sync");
    });

TEST(CrashEquivalence, StrictAndBatchedConvergeWithFewerLogFences) {
  CrashRig strict(matrix_config(LogSyncMode::kStrict, false));
  const auto strict_snaps = run_script(strict);
  CrashRig batched(matrix_config(LogSyncMode::kBatched, false));
  const auto batched_snaps = run_script(batched);

  // Identical durable data images (no crash) and identical data-line flush
  // traffic — batching the log must not change what the policy persists.
  ASSERT_EQ(strict_snaps, batched_snaps);
  EXPECT_EQ(strict.durable_data(), batched.durable_data());
  EXPECT_EQ(to_image(strict.durable_data()), strict_snaps.back());
  EXPECT_EQ(strict.data_flushes(), batched.data_flushes());

  // The point of the exercise: O(records) => O(epochs) log fences.
  EXPECT_LT(batched.log_fences(), strict.log_fences());
  // Strict pays 2 fences per record plus 1 per commit (+1 from format()).
  EXPECT_EQ(strict.log_fences(),
            2u * kFases * kStoresPerFase + kFases + 1);
}

TEST(CrashEquivalence, FasesThatLogNothingAddNoLogTraffic) {
  // Only logged FASEs touch the log: strict pays 2 fences per record plus
  // one per logged commit (+1 from format()), nothing for the empty and
  // report-only FASEs between them. Data traffic is the same in every mode.
  CrashRig strict(matrix_config(LogSyncMode::kStrict, false));
  const MixedRun run = run_mixed_script(strict);
  ASSERT_LT(run.logged_fases + 1, run.snapshots.size() - 1)
      << "the script must contain FASEs that log nothing";
  EXPECT_EQ(strict.log_fences(), 2 * run.records + run.logged_fases + 1);
  EXPECT_EQ(to_image(strict.durable_data()), run.snapshots.back());
  for (const auto [mode, async] :
       {MatrixParam{LogSyncMode::kBatched, false},
        MatrixParam{LogSyncMode::kStrict, true},
        MatrixParam{LogSyncMode::kBatched, true}}) {
    CrashRig rig(matrix_config(mode, async));
    EXPECT_EQ(run_mixed_script(rig).snapshots, run.snapshots);
    EXPECT_EQ(rig.durable_data(), strict.durable_data()) << to_string(mode);
    EXPECT_EQ(rig.data_flushes(), strict.data_flushes()) << to_string(mode);
  }
}

TEST(CrashEquivalence, AsyncDataTrafficIsIdenticalToSync) {
  // The pipeline moves write-backs in time, never adds or drops any: for
  // both log protocols, the async engine must produce exactly the sync
  // engine's durable image, per-FASE snapshots, and data-flush count.
  for (const LogSyncMode mode :
       {LogSyncMode::kStrict, LogSyncMode::kBatched}) {
    CrashRig sync_rig(matrix_config(mode, /*async=*/false));
    const auto sync_snaps = run_script(sync_rig);
    CrashRig async_rig(matrix_config(mode, /*async=*/true));
    const auto async_snaps = run_script(async_rig);
    ASSERT_EQ(sync_snaps, async_snaps) << to_string(mode);
    EXPECT_EQ(sync_rig.durable_data(), async_rig.durable_data())
        << to_string(mode);
    EXPECT_EQ(sync_rig.data_flushes(), async_rig.data_flushes())
        << to_string(mode);
  }
}

TEST(CrashTearBurst, MultiLineTearWindowKeepsAllOrNothing) {
  // The write-back burst racing the power cut may span SEVERAL lines (the
  // modeled write-queue depth, CrashRigConfig::tear_burst): a gapless run
  // of post-cut flushes freeze+1, freeze+2, ... each independently drops or
  // persists a torn prefix. Sweep every freeze point with tearing forced on
  // (torn_rate = 1) and assert the all-or-nothing oracle survives — torn
  // data lines are covered by undo records that were durable before the
  // flush, and torn log lines fail their check words, so neither can smuggle
  // uncommitted bytes past recovery. The sweep must also actually open a
  // multi-line window somewhere, or this test would be vacuous.
  for (const LogSyncMode mode :
       {LogSyncMode::kStrict, LogSyncMode::kBatched}) {
    CrashRigConfig config = matrix_config(mode, false);
    config.fault.torn_rate = 1.0;
    config.fault.seed = 0x7ea2;

    CrashRig dry(config);
    const auto snapshots = run_script(dry);
    const std::uint64_t total = dry.events();
    EXPECT_EQ(dry.torn_flushes(), 0u) << "no power cut, nothing may tear";

    std::uint64_t max_torn = 0;
    for (std::uint64_t e = 0; e <= total; ++e) {
      CrashRig rig(config);
      rig.freeze_at(e);
      (void)run_script(rig);
      const DataImage image = to_image(rig.recovered_data());
      ASSERT_GE(snapshot_index(snapshots, image), 0)
          << to_string(mode) << ": freeze at event " << e << "/" << total
          << " with torn burst recovered a never-committed state ("
          << rig.torn_flushes() << " torn write-backs)";
      max_torn = std::max(max_torn, rig.torn_flushes());
    }
    EXPECT_GE(max_torn, 2u)
        << to_string(mode)
        << ": the sweep never opened a multi-line tear window";
  }
}

TEST(CrashTearBurst, DepthOneWindowNeverTearsTwice) {
  // tear_burst = 1 restores the historical model: only the single write-back
  // racing the cut may land torn.
  CrashRigConfig config = matrix_config(LogSyncMode::kBatched, false);
  config.fault.torn_rate = 1.0;
  config.fault.seed = 0x7ea2;
  config.tear_burst = 1;

  CrashRig dry(config);
  const auto snapshots = run_script(dry);
  for (std::uint64_t e = 0; e <= dry.events(); e += 7) {
    CrashRig rig(config);
    rig.freeze_at(e);
    (void)run_script(rig);
    EXPECT_LE(rig.torn_flushes(), 1u) << "freeze " << e;
    ASSERT_GE(snapshot_index(snapshots, to_image(rig.recovered_data())), 0)
        << "freeze " << e;
  }
}

TEST(CrashEquivalence, BatchedRecoversIdenticallyToStrictAtSharedBoundaries) {
  // Freeze both modes at their respective FASE-commit boundaries (event
  // streams differ, so align on fractions of the run) and check both roll
  // forward/back to committed states.
  for (const double fraction : {0.25, 0.5, 0.75}) {
    DataImage images[2];
    int i = 0;
    for (const LogSyncMode mode :
         {LogSyncMode::kStrict, LogSyncMode::kBatched}) {
      CrashRig dry(matrix_config(mode, false));
      const auto snapshots = run_script(dry);
      CrashRig rig(matrix_config(mode, false));
      rig.freeze_at(static_cast<std::uint64_t>(
          fraction * static_cast<double>(dry.events())));
      (void)run_script(rig);
      images[i] = to_image(rig.recovered_data());
      ASSERT_GE(snapshot_index(snapshots, images[i]), 0)
          << to_string(mode) << " at fraction " << fraction;
      ++i;
    }
  }
}

}  // namespace
}  // namespace nvc::runtime
