// Crash-state fuzzer for the durable structure suite (`ctest -L
// structures` / `-L fuzz`): seeded turnstile interleavings over
// ShadowPSpace, a power-cut sweep across the shared event clock, and the
// durable-linearizability oracle on every cut.
//
// For each (structure, seed):
//   1. a dry run (no freeze) pins the baseline: the full history must be
//      linearizable and the elision table must quiesce;
//   2. every claimable event e gets a fresh deterministic replay with
//      freeze_at(e): flush events after e never reach the durable image,
//      while execution (and the recorded history — invocations/responses
//      claim the SAME clock) is bit-identical to the dry run;
//   3. the recovered durable contents must be explained by a linearization
//      of all ops completed by e plus any subset of the ops pending at e
//      (check_durable, linearizability.hpp).
//
// Every assertion carries a one-line NVC_FUZZ_SEED/STRUCT/FREEZE replay
// command. The suite ends by ARMING a seeded protocol bug (the early-untag
// reverted flush-pending decrement, PSpace::set_bug_early_untag) and
// demanding the same oracle CATCH it — the harness proves it can fail.
//
// Knobs: NVC_FUZZ_SEED (pin the program seed), NVC_FUZZ_STRUCT
// (queue|map|skiplist filter), NVC_FUZZ_FREEZE (pin one cut),
// NVC_FUZZ_ITERS (seeds per structure, default 3), NVC_ELIDE (default 1).
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "structures/durable_map.hpp"
#include "structures/durable_queue.hpp"
#include "structures/durable_skiplist.hpp"
#include "structures/pspace.hpp"
#include "testing/history.hpp"
#include "testing/interleave.hpp"
#include "testing/linearizability.hpp"
#include "testing/seed.hpp"

namespace {

using nvc::Rng;
using nvc::structures::DurableMap;
using nvc::structures::DurableQueue;
using nvc::structures::DurableSkiplist;
using nvc::structures::ShadowPSpace;
using nvc::testing::check_durable;
using nvc::testing::check_linearizable;
using nvc::testing::HistoryRecorder;
using nvc::testing::InterleaveScheduler;
using nvc::testing::LinVerdict;
using nvc::testing::Op;
using nvc::testing::OpCode;
using nvc::testing::QueueModel;
using nvc::testing::MapModel;
using nvc::testing::struct_replay_line;

constexpr std::uint64_t kBaseSeed = 20260808;
constexpr std::uint64_t kNoFreeze = ~std::uint64_t{0};
constexpr std::size_t kThreads = 3;
constexpr std::size_t kOpsPerThread = 4;
constexpr std::uint64_t kMaxSweep = 96;  // sample cap for long event streams

bool elide_enabled() { return nvc::env_int("NVC_ELIDE", 1) != 0; }

std::string elide_env() {
  return elide_enabled() ? std::string() : std::string("NVC_ELIDE=0");
}

struct RunOutcome {
  std::vector<Op> history;  // already cut at the freeze event
  std::uint64_t events = 0;
  std::uint64_t elisions = 0;
  std::size_t table_pending = 0;
  QueueModel::State queue_recovered;
  MapModel::State map_recovered;
};

// One deterministic execution: (structure, seed, freeze) fully determine
// the interleaving, the history, and the durable image.
template <typename MakeStructure, typename OpBody>
RunOutcome run_case(std::uint64_t seed, std::uint64_t freeze,
                    bool bug_early_untag, MakeStructure make, OpBody op_body) {
  ShadowPSpace ps(512 * 1024, elide_enabled());
  ps.set_bug_early_untag(bug_early_untag);
  ps.shadow().freeze_at(freeze);
  InterleaveScheduler sched(seed);
  ps.set_yield_hook(sched.hook());
  HistoryRecorder rec(kThreads, [&ps] { return ps.shadow().claim_event(); });

  auto structure = make(ps);
  std::vector<std::function<void(std::size_t)>> bodies;
  for (std::size_t i = 0; i < kThreads; ++i) {
    bodies.push_back([&, i, seed](std::size_t) {
      Rng rng(seed ^ (0x9E3779B9ULL * (i + 1)));
      for (std::size_t k = 0; k < kOpsPerThread; ++k) {
        op_body(*structure, rec, i, k, rng);
      }
    });
  }
  sched.run(bodies);

  RunOutcome out;
  out.events = ps.shadow().events();
  out.elisions = ps.helper_elisions();
  out.table_pending = ps.table().pending_count();
  out.history = rec.cut(freeze == kNoFreeze ? out.events + 1 : freeze);
  structure->fill_recovered(out);
  return out;
}

// Thin adapters so run_case can stay structure-agnostic.
struct QueueUnderTest {
  explicit QueueUnderTest(ShadowPSpace& ps) : q(ps) {}
  DurableQueue q;
  void fill_recovered(RunOutcome& out) const {
    for (const std::uint64_t v : q.recovered_contents()) {
      out.queue_recovered.push_back(v);
    }
  }
};

struct MapUnderTest {
  explicit MapUnderTest(ShadowPSpace& ps) : m(ps, 8) {}
  DurableMap m;
  void fill_recovered(RunOutcome& out) const {
    for (const auto& [k, v] : m.recovered_contents()) {
      out.map_recovered.emplace(k, v);
    }
  }
};

struct SkiplistUnderTest {
  explicit SkiplistUnderTest(ShadowPSpace& ps) : sl(ps) {}
  DurableSkiplist sl;
  void fill_recovered(RunOutcome& out) const {
    for (const auto& [k, v] : sl.recovered_contents()) {
      out.map_recovered.emplace(k, v);
    }
  }
};

void queue_op(QueueUnderTest& s, HistoryRecorder& rec, std::size_t thread,
              std::size_t k, Rng& rng) {
  if (rng.chance(0.6)) {
    const std::uint64_t v = 100 * (thread + 1) + k;
    const std::size_t op = rec.begin(thread, OpCode::kEnqueue, v);
    s.q.enqueue(v);
    rec.end(thread, op, true);
  } else {
    const std::size_t op = rec.begin(thread, OpCode::kDequeue, 0);
    std::uint64_t v = 0;
    const bool ok = s.q.dequeue(&v);
    rec.end(thread, op, ok, v);
  }
}

template <typename S>
void map_like_op(S& structure, HistoryRecorder& rec, std::size_t thread,
                 std::size_t k, Rng& rng) {
  const std::uint64_t key = 1 + rng.below(5);  // heavy key contention
  switch (rng.below(3)) {
    case 0: {
      const std::uint64_t v = 100 * (thread + 1) + k;
      const std::size_t op = rec.begin(thread, OpCode::kInsert, key, v);
      rec.end(thread, op, structure.insert(key, v));
      break;
    }
    case 1: {
      const std::size_t op = rec.begin(thread, OpCode::kErase, key);
      std::uint64_t v = 0;
      const bool ok = structure.erase(key, &v);
      rec.end(thread, op, ok, v);
      break;
    }
    default: {
      const std::size_t op = rec.begin(thread, OpCode::kContains, key);
      std::uint64_t v = 0;
      const bool ok = structure.contains(key, &v);
      rec.end(thread, op, ok, v);
    }
  }
}

// The freeze events to try: exhaustive when the stream is short, a seeded
// sample (always including the extremes) otherwise.
std::vector<std::uint64_t> freeze_points(std::uint64_t events,
                                         std::uint64_t seed) {
  std::vector<std::uint64_t> out;
  const std::uint64_t pinned = static_cast<std::uint64_t>(
      nvc::env_int("NVC_FUZZ_FREEZE", -1));
  if (pinned != static_cast<std::uint64_t>(-1)) return {pinned};
  if (events <= kMaxSweep) {
    for (std::uint64_t e = 0; e <= events; ++e) out.push_back(e);
    return out;
  }
  out.push_back(0);
  out.push_back(events);
  Rng rng(seed ^ 0xF1EE5EEDULL);
  for (std::uint64_t i = 0; i + 2 < kMaxSweep; ++i) {
    out.push_back(rng.below(events));
  }
  return out;
}

std::vector<std::uint64_t> seed_plan() {
  const std::int64_t pinned = nvc::env_int("NVC_FUZZ_SEED", -1);
  if (pinned >= 0) return {static_cast<std::uint64_t>(pinned)};
  std::vector<std::uint64_t> seeds;
  const std::int64_t iters = nvc::env_int("NVC_FUZZ_ITERS", 3);
  for (std::int64_t i = 0; i < iters; ++i) {
    seeds.push_back(kBaseSeed + static_cast<std::uint64_t>(i));
  }
  return seeds;
}

bool struct_selected(const char* name) {
  const std::string want = nvc::env_str("NVC_FUZZ_STRUCT", "");
  return want.empty() || want == name;
}

template <typename Model, typename MakeStructure, typename OpBody>
void sweep_structure(const char* name, MakeStructure make, OpBody op_body,
                     const typename Model::State RunOutcome::*recovered) {
  if (!struct_selected(name)) GTEST_SKIP() << "filtered by NVC_FUZZ_STRUCT";
  std::uint64_t elisions_total = 0;
  for (const std::uint64_t seed : seed_plan()) {
    const RunOutcome dry =
        run_case(seed, kNoFreeze, /*bug=*/false, make, op_body);
    ASSERT_EQ(dry.table_pending, 0u)
        << "writer tags leaked; "
        << struct_replay_line(seed, name, dry.events, elide_env());
    const auto full = check_linearizable<Model>(dry.history);
    ASSERT_EQ(full.verdict, LinVerdict::kOk)
        << full.detail << "\n"
        << struct_replay_line(seed, name, dry.events, elide_env());
    elisions_total += dry.elisions;

    for (const std::uint64_t e : freeze_points(dry.events, seed)) {
      const RunOutcome cut =
          run_case(seed, e, /*bug=*/false, make, op_body);
      const auto verdict = check_durable<Model>(cut.history, cut.*recovered);
      ASSERT_NE(verdict.verdict, LinVerdict::kViolation)
          << verdict.detail << "\n"
          << struct_replay_line(seed, name, e, elide_env());
      EXPECT_NE(verdict.verdict, LinVerdict::kBudget)
          << "shrink the workload: the bounded search gave up; "
          << struct_replay_line(seed, name, e, elide_env());
    }
  }
  if (elide_enabled() && nvc::env_int("NVC_FUZZ_SEED", -1) < 0) {
    // Campaign coverage: the sweep must actually exercise elided helper
    // flushes, or the whole suite is vacuously green.
    EXPECT_GT(elisions_total, 0u) << "no elision ever fired for " << name;
  }
}

TEST(StructFuzz, QueueSurvivesEveryPowerCut) {
  sweep_structure<QueueModel>(
      "queue",
      [](ShadowPSpace& ps) { return std::make_unique<QueueUnderTest>(ps); },
      [](QueueUnderTest& s, HistoryRecorder& rec, std::size_t t,
         std::size_t k, Rng& rng) { queue_op(s, rec, t, k, rng); },
      &RunOutcome::queue_recovered);
}

TEST(StructFuzz, MapSurvivesEveryPowerCut) {
  sweep_structure<MapModel>(
      "map",
      [](ShadowPSpace& ps) { return std::make_unique<MapUnderTest>(ps); },
      [](MapUnderTest& s, HistoryRecorder& rec, std::size_t t, std::size_t k,
         Rng& rng) { map_like_op(s.m, rec, t, k, rng); },
      &RunOutcome::map_recovered);
}

TEST(StructFuzz, SkiplistSurvivesEveryPowerCut) {
  sweep_structure<MapModel>(
      "skiplist",
      [](ShadowPSpace& ps) {
        return std::make_unique<SkiplistUnderTest>(ps);
      },
      [](SkiplistUnderTest& s, HistoryRecorder& rec, std::size_t t,
         std::size_t k, Rng& rng) { map_like_op(s.sl, rec, t, k, rng); },
      &RunOutcome::map_recovered);
}

// The harness must have teeth: arm the seeded early-untag bug (the writer
// drops its flush-pending tag before the write-back — the reverted
// decrement on the FliT face) and demand a durable-linearizability
// violation somewhere in the sweep. A helper then elides a flush of a line
// that never reached media, completes an op on top of it, and some power
// cut strands that completed op's effect.
TEST(StructFuzz, SeededElisionBugIsCaught) {
  if (!elide_enabled()) {
    GTEST_SKIP() << "bug only manifests through elision (NVC_ELIDE=1)";
  }
  if (nvc::env_int("NVC_FUZZ_SEED", -1) >= 0 ||
      nvc::env_int("NVC_FUZZ_FREEZE", -1) >= 0 ||
      !nvc::env_str("NVC_FUZZ_STRUCT", "").empty()) {
    // Replay pins target the sweep tests above; this one needs its full
    // seed x freeze campaign to guarantee the violating schedule exists.
    GTEST_SKIP() << "NVC_FUZZ_* replay pin active";
  }
  auto make = [](ShadowPSpace& ps) {
    return std::make_unique<QueueUnderTest>(ps);
  };
  auto body = [](QueueUnderTest& s, HistoryRecorder& rec, std::size_t t,
                 std::size_t k, Rng& rng) { queue_op(s, rec, t, k, rng); };
  bool caught = false;
  std::string witness;
  for (std::uint64_t i = 0; i < 48 && !caught; ++i) {
    const std::uint64_t seed = kBaseSeed + i;
    const RunOutcome dry = run_case(seed, kNoFreeze, /*bug=*/true, make, body);
    for (const std::uint64_t e : freeze_points(dry.events, seed)) {
      const RunOutcome cut = run_case(seed, e, /*bug=*/true, make, body);
      const auto verdict =
          check_durable<QueueModel>(cut.history, cut.queue_recovered);
      if (verdict.verdict == LinVerdict::kViolation) {
        caught = true;
        witness = struct_replay_line(seed, "queue", e, elide_env());
        break;
      }
    }
  }
  EXPECT_TRUE(caught)
      << "the durable-linearizability oracle missed the seeded elision bug";
  if (caught) {
    // The replay line is the debugging contract: print it on success too so
    // the checker-validation path stays visibly wired.
    SUCCEED() << "caught; " << witness;
  }
}

}  // namespace
