// Tests for the six persistence policies (paper Section IV-A): flush-count
// semantics, write combining, FASE handling, and — through the ShadowPmem
// crash model — the guarantee that every valid policy persists all data
// written in a FASE by the FASE's end.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.hpp"
#include "core/policy.hpp"
#include "pmem/shadow.hpp"
#include "support/sinks.hpp"

namespace nvc::core {
namespace {

using nvc::testing::RecordingSink;

/// Drive a policy through one FASE writing `lines`.
void run_fase(Policy& p, FlushSink& sink,
              const std::vector<LineAddr>& lines) {
  p.on_fase_begin(sink);
  for (const LineAddr l : lines) p.on_store(l, sink);
  p.on_fase_end(sink);
}

TEST(EagerPolicy, FlushesEveryStore) {
  auto p = make_policy(PolicyKind::kEager);
  RecordingSink sink;
  run_fase(*p, sink, {1, 1, 2, 1});
  EXPECT_EQ(sink.lines, (std::vector<LineAddr>{1, 1, 2, 1}));
  EXPECT_EQ(p->counters().stores, 4u);
  EXPECT_EQ(p->counters().flush_ratio(sink.lines.size()), 1.0);
}

TEST(LazyPolicy, FlushesDistinctLinesAtFaseEnd) {
  auto p = make_policy(PolicyKind::kLazy);
  RecordingSink sink;
  p->on_fase_begin(sink);
  for (const LineAddr l : {1, 2, 1, 3, 2, 1}) p->on_store(l, sink);
  EXPECT_TRUE(sink.lines.empty());  // nothing until FASE end
  p->on_fase_end(sink);
  EXPECT_EQ(sink.lines, (std::vector<LineAddr>{1, 2, 3}));
  EXPECT_EQ(p->counters().combined, 3u);
}

TEST(LazyPolicy, LowestPossibleFlushCount) {
  // LA is the paper's lower bound: flushes == distinct lines per FASE.
  auto p = make_policy(PolicyKind::kLazy);
  RecordingSink sink;
  Rng rng(4);
  std::uint64_t expected = 0;
  for (int f = 0; f < 20; ++f) {
    std::vector<LineAddr> lines;
    std::set<LineAddr> distinct;
    for (int i = 0; i < 100; ++i) {
      lines.push_back(rng.below(17));
      distinct.insert(lines.back());
    }
    expected += distinct.size();
    run_fase(*p, sink, lines);
  }
  EXPECT_EQ(sink.lines.size(), expected);
}

TEST(AtlasPolicy, CombinesRepeatsInSameSlot) {
  PolicyConfig config;
  config.atlas_table_size = 8;
  auto p = make_policy(PolicyKind::kAtlas, config);
  RecordingSink sink;
  p->on_fase_begin(sink);
  p->on_store(1, sink);
  p->on_store(1, sink);  // combined
  p->on_store(1, sink);  // combined
  EXPECT_TRUE(sink.lines.empty());
  p->on_fase_end(sink);
  EXPECT_EQ(sink.lines, (std::vector<LineAddr>{1}));
  EXPECT_EQ(p->counters().combined, 2u);
}

TEST(AtlasPolicy, DirectMappedConflictFlushesOldLine) {
  PolicyConfig config;
  config.atlas_table_size = 8;
  auto p = make_policy(PolicyKind::kAtlas, config);
  RecordingSink sink;
  p->on_fase_begin(sink);
  p->on_store(3, sink);
  p->on_store(3 + 8, sink);  // same slot (direct-mapped by line % 8)
  ASSERT_EQ(sink.lines.size(), 1u);
  EXPECT_EQ(sink.lines[0], 3u);
  p->on_fase_end(sink);
  EXPECT_EQ(sink.lines, (std::vector<LineAddr>{3, 11}));
}

TEST(AtlasPolicy, TableClearedAtFaseEnd) {
  PolicyConfig config;
  config.atlas_table_size = 8;
  auto p = make_policy(PolicyKind::kAtlas, config);
  RecordingSink sink;
  run_fase(*p, sink, {5});
  run_fase(*p, sink, {5});
  // The second FASE's write is compulsory again: two flushes total.
  EXPECT_EQ(sink.lines, (std::vector<LineAddr>{5, 5}));
}

TEST(AtlasPolicy, AssociativeVariantResolvesConflicts) {
  // Lines 3 and 11 collide in a direct-mapped 8-entry table but coexist in
  // a 2-way variant with the same 8-entry budget.
  PolicyConfig dm;
  dm.atlas_table_size = 8;
  PolicyConfig assoc = dm;
  assoc.atlas_associativity = 2;

  auto count = [](const PolicyConfig& config) {
    auto p = make_policy(PolicyKind::kAtlas, config);
    RecordingSink sink;
    p->on_fase_begin(sink);
    for (int rep = 0; rep < 100; ++rep) {
      p->on_store(3, sink);
      p->on_store(11, sink);
    }
    p->on_fase_end(sink);
    return sink.lines.size();
  };
  EXPECT_GE(count(dm), 199u);   // thrash: nearly every store flushes
  EXPECT_EQ(count(assoc), 2u);  // both lines resident; FASE-end flush only
}

TEST(AtlasPolicy, AssociativeEvictsLruWithinSet) {
  PolicyConfig config;
  config.atlas_table_size = 4;   // 2 sets x 2 ways
  config.atlas_associativity = 2;
  auto p = make_policy(PolicyKind::kAtlas, config);
  RecordingSink sink;
  p->on_fase_begin(sink);
  p->on_store(2, sink);   // set 0
  p->on_store(4, sink);   // set 0
  p->on_store(2, sink);   // refresh 2
  p->on_store(6, sink);   // set 0 full: evicts LRU = 4
  ASSERT_EQ(sink.lines.size(), 1u);
  EXPECT_EQ(sink.lines[0], 4u);
}

TEST(SoftCachePolicy, EvictsOnlyWhenOverCapacity) {
  PolicyConfig config;
  config.cache_size = 4;
  auto p = make_policy(PolicyKind::kSoftCacheOffline, config);
  RecordingSink sink;
  p->on_fase_begin(sink);
  for (LineAddr l = 1; l <= 4; ++l) p->on_store(l, sink);
  EXPECT_TRUE(sink.lines.empty());
  p->on_store(5, sink);  // evicts LRU (line 1)
  EXPECT_EQ(sink.lines, (std::vector<LineAddr>{1}));
  p->on_fase_end(sink);
  EXPECT_EQ(sink.lines.size(), 5u);  // remaining 4 flushed at FASE end
}

TEST(SoftCachePolicy, OutperformsAtlasOnLoopWorkingSet) {
  // A 20-line loop: Atlas' 8-entry direct-mapped table thrashes; SC at the
  // right size combines everything after the first pass. This is the
  // paper's core claim in miniature (Table III).
  PolicyConfig at_config;
  at_config.atlas_table_size = 8;
  PolicyConfig sc_config;
  sc_config.cache_size = 24;

  auto at = make_policy(PolicyKind::kAtlas, at_config);
  auto sc = make_policy(PolicyKind::kSoftCacheOffline, sc_config);
  RecordingSink at_sink, sc_sink;

  at->on_fase_begin(at_sink);
  sc->on_fase_begin(sc_sink);
  for (int rep = 0; rep < 100; ++rep) {
    for (LineAddr l = 1; l <= 20; ++l) {
      at->on_store(l, at_sink);
      sc->on_store(l, sc_sink);
    }
  }
  at->on_fase_end(at_sink);
  sc->on_fase_end(sc_sink);

  EXPECT_EQ(sc_sink.lines.size(), 20u);  // compulsory only
  EXPECT_GT(at_sink.lines.size(), 10 * sc_sink.lines.size());
}

TEST(SoftCachePolicy, OnlineAdaptsSizeAfterBurst) {
  PolicyConfig config;
  config.cache_size = 8;  // default start
  config.sampler.burst_length = 2000;
  config.sampler.knee.max_size = 50;
  auto p = make_policy(PolicyKind::kSoftCache, config);
  RecordingSink sink;
  EXPECT_EQ(p->current_cache_size(), 8u);
  p->on_fase_begin(sink);
  for (int i = 0; i < 2100; ++i) {
    p->on_store(static_cast<LineAddr>(i % 14), sink);
  }
  p->on_fase_end(sink);
  // After the burst the cache must have resized to ~the working set.
  EXPECT_NEAR(static_cast<double>(p->current_cache_size()), 14.0, 3.0);
}

TEST(SoftCachePolicy, FlushBufferedEmptiesCacheWithoutFaseBoundary) {
  PolicyConfig config;
  config.cache_size = 8;
  auto p = make_policy(PolicyKind::kSoftCacheOffline, config);
  RecordingSink sink;
  p->on_fase_begin(sink);
  for (LineAddr l = 1; l <= 3; ++l) p->on_store(l, sink);
  p->flush_buffered(sink);  // mid-FASE ordering point
  EXPECT_EQ(sink.lines, (std::vector<LineAddr>{1, 2, 3}));
  EXPECT_EQ(sink.drains.load(), 1u);
  EXPECT_EQ(p->counters().fases, 1u);  // not a FASE boundary
  // The cache really is empty: re-storing the same lines misses again.
  p->on_store(1, sink);
  EXPECT_EQ(p->counters().combined, 0u);
  p->on_fase_end(sink);
}

TEST(SoftCachePolicy, FlushBufferedIsNotASamplerFaseBoundary) {
  // skip_fases counts *FASE boundaries*. A mid-FASE barrier must not count:
  // a store-with-own-commit-ordering (MDB) issues many barriers per FASE,
  // and treating them as boundaries would both end the warmup skip early
  // and corrupt the renamer's epoch numbering.
  PolicyConfig config;
  config.cache_size = 8;
  config.sampler.burst_length = 8;
  config.sampler.skip_fases = 2;

  // Barriers only: the sampler must still be skipping (so no burst can
  // complete, no matter how many stores pass through).
  SoftCachePolicy barriers(config, /*online=*/true);
  RecordingSink sink_b;
  barriers.on_fase_begin(sink_b);
  for (int round = 0; round < 3; ++round) {
    for (LineAddr l = 1; l <= 4; ++l) barriers.on_store(l, sink_b);
    barriers.flush_buffered(sink_b);
  }
  barriers.on_fase_end(sink_b);
  EXPECT_EQ(barriers.sampler().bursts_completed(), 0u);

  // Same store stream split into real FASEs: two boundaries finish the
  // warmup skip, the next 8 stores fill a burst.
  SoftCachePolicy fases(config, /*online=*/true);
  RecordingSink sink_f;
  for (int round = 0; round < 4; ++round) {
    fases.on_fase_begin(sink_f);
    for (LineAddr l = 1; l <= 4; ++l) fases.on_store(l, sink_f);
    fases.on_fase_end(sink_f);
  }
  EXPECT_EQ(fases.sampler().bursts_completed(), 1u);
}

TEST(SoftCachePolicy, FlushBufferedDefersAsyncResizeToFaseBoundary) {
  // An async burst selection that lands mid-FASE must wait at the barrier
  // (a resize must never happen inside a FASE, DESIGN.md §6) and apply at
  // the next real boundary.
  PolicyConfig config;
  config.cache_size = 8;
  config.sampler.burst_length = 2000;
  config.sampler.knee.max_size = 50;
  config.sampler.async_analysis = true;
  SoftCachePolicy p(config, /*online=*/true);
  RecordingSink sink;
  p.on_fase_begin(sink);
  for (int i = 0; i < 2000; ++i) {
    p.on_store(static_cast<LineAddr>(i % 14 + 1), sink);
  }
  p.drain_analysis();  // the background selection has landed by now
  p.flush_buffered(sink);
  EXPECT_EQ(p.current_cache_size(), 8u);  // unchanged mid-FASE
  p.on_fase_end(sink);
  EXPECT_NEAR(static_cast<double>(p.current_cache_size()), 14.0, 3.0);
}

// --- the hibernation early-out: on_store() skips the sampler only once it
// can no longer act, so the cases where it still must act keep working.

TEST(SoftCachePolicy, PeriodicResamplingKeepsCompletingBursts) {
  PolicyConfig config;
  config.sampler.burst_length = 100;
  config.sampler.hibernation_length = 200;
  SoftCachePolicy p(config, /*online=*/true);
  RecordingSink sink;
  std::vector<LineAddr> lines;
  for (LineAddr i = 0; i < 100; ++i) lines.push_back(i % 9 + 1);
  for (int fase = 0; fase < 10; ++fase) run_fase(p, sink, lines);
  // 1000 stores: bursts end at stores 100, 400, 700 and 1000.
  EXPECT_GE(p.sampler().bursts_completed(), 2u);
  EXPECT_TRUE(p.sampler().wants_stores());
}

TEST(SoftCachePolicy, SkipFasesOnSingleFaseStreamStillSamples) {
  // One giant FASE never ends the warm-up skip; the sampler must still see
  // the skipped stores so its timeout (four bursts of writes) can fire.
  PolicyConfig config;
  config.sampler.burst_length = 500;
  config.sampler.skip_fases = 1;
  SoftCachePolicy p(config, /*online=*/true);
  RecordingSink sink;
  std::vector<LineAddr> lines;
  for (int i = 0; i < 4 * 500 + 600; ++i) lines.push_back(i % 9 + 1);
  run_fase(p, sink, lines);
  EXPECT_EQ(p.sampler().bursts_completed(), 1u);
  EXPECT_NEAR(static_cast<double>(p.current_cache_size()), 9.0, 2.0);
}

TEST(SoftCachePolicy, HibernatingOnlineMatchesOfflineAtSelectedSize) {
  // After the one burst of the paper's setting, online SC stops calling the
  // sampler; from the next FASE on it must flush exactly what SC-offline
  // does at the size the burst selected.
  PolicyConfig config;
  config.sampler.burst_length = 2000;
  config.sampler.knee.max_size = 50;
  SoftCachePolicy online(config, /*online=*/true);
  Rng rng(29);
  auto next_fase = [&rng] {
    std::vector<LineAddr> lines;
    for (int i = 0; i < 300; ++i) lines.push_back(rng.below(24) + 1);
    return lines;
  };
  RecordingSink warm;
  while (online.sampler().bursts_completed() == 0) {
    run_fase(online, warm, next_fase());
  }
  ASSERT_FALSE(online.sampler().wants_stores());

  PolicyConfig fixed;
  fixed.cache_size = online.current_cache_size();
  SoftCachePolicy offline(fixed, /*online=*/false);
  RecordingSink online_sink, offline_sink;
  for (int fase = 0; fase < 40; ++fase) {
    const std::vector<LineAddr> lines = next_fase();
    run_fase(online, online_sink, lines);
    run_fase(offline, offline_sink, lines);
  }
  EXPECT_EQ(online.current_cache_size(), fixed.cache_size);
  EXPECT_FALSE(online_sink.lines.empty());
  EXPECT_EQ(online_sink.lines, offline_sink.lines);
}

TEST(BestPolicy, NeverFlushes) {
  auto p = make_policy(PolicyKind::kBest);
  RecordingSink sink;
  run_fase(*p, sink, {1, 2, 3, 1, 2});
  p->finish(sink);
  EXPECT_TRUE(sink.lines.empty());
  EXPECT_EQ(p->counters().stores, 5u);
}

TEST(PolicyNames, AllSixNamed) {
  EXPECT_STREQ(to_string(PolicyKind::kEager), "ER");
  EXPECT_STREQ(to_string(PolicyKind::kLazy), "LA");
  EXPECT_STREQ(to_string(PolicyKind::kAtlas), "AT");
  EXPECT_STREQ(to_string(PolicyKind::kSoftCache), "SC");
  EXPECT_STREQ(to_string(PolicyKind::kSoftCacheOffline), "SC-offline");
  EXPECT_STREQ(to_string(PolicyKind::kBest), "BEST");
}

// --- crash-consistency property (ShadowPmem) -----------------------------------------

/// Sink that persists lines into the shadow memory.
class ShadowSink final : public FlushSink {
 public:
  explicit ShadowSink(pmem::ShadowPmem* mem) : mem_(mem) {}
  bool flush_line(LineAddr line) override { return mem_->flush_line(line); }

 private:
  pmem::ShadowPmem* mem_;
};

struct CrashCase {
  PolicyKind kind;
  // gtest names each case after a byte dump of the whole struct; implicit
  // padding would put stale stack bytes into those names, so the bytes
  // between kind and seed are an explicit zeroed member.
  std::uint8_t zero[7];
  std::uint64_t seed;
};
static_assert(sizeof(CrashCase) == 16, "CrashCase must have no padding");

class PolicyCrashConsistency : public ::testing::TestWithParam<CrashCase> {};

TEST_P(PolicyCrashConsistency, EveryFaseWriteDurableAtFaseEnd) {
  // Property: for ER, LA, AT, SC and SC-offline, a crash *between* FASEs
  // loses nothing: every line written inside a completed FASE has been
  // flushed. (BEST intentionally violates this — checked separately.)
  const CrashCase param = GetParam();
  pmem::ShadowPmem mem(64 * 1024);
  ShadowSink sink(&mem);
  PolicyConfig config;
  config.cache_size = 8;
  config.sampler.burst_length = 500;
  auto policy = make_policy(param.kind, config);
  Rng rng(param.seed);

  for (int fase = 0; fase < 30; ++fase) {
    policy->on_fase_begin(sink);
    const int writes = 1 + static_cast<int>(rng.below(60));
    for (int w = 0; w < writes; ++w) {
      // Line 0 is the Atlas table's empty sentinel (never a real persistent
      // line in the runtime), so test addresses start at line 1.
      const PmAddr addr = (1 + rng.below(1023)) * 64 + rng.below(60);
      const std::uint32_t value = static_cast<std::uint32_t>(rng());
      mem.store_value(addr, value);
      policy->on_store(line_of(addr), sink);
    }
    policy->on_fase_end(sink);
    // Crash here: all completed-FASE data must be durable.
    ASSERT_EQ(mem.dirty_line_count(), 0u)
        << to_string(param.kind) << " left unflushed lines after FASE "
        << fase;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllValidPolicies, PolicyCrashConsistency,
    ::testing::Values(CrashCase{PolicyKind::kEager, {}, 1},
                      CrashCase{PolicyKind::kLazy, {}, 2},
                      CrashCase{PolicyKind::kAtlas, {}, 3},
                      CrashCase{PolicyKind::kSoftCache, {}, 4},
                      CrashCase{PolicyKind::kSoftCacheOffline, {}, 5},
                      CrashCase{PolicyKind::kEager, {}, 6},
                      CrashCase{PolicyKind::kLazy, {}, 7},
                      CrashCase{PolicyKind::kAtlas, {}, 8},
                      CrashCase{PolicyKind::kSoftCache, {}, 9},
                      CrashCase{PolicyKind::kSoftCacheOffline, {}, 10}));

TEST(BestPolicy, IsNotCrashConsistent) {
  // Sanity for the harness: BEST must fail the durability property (it is
  // the invalid upper bound, paper Section IV-A).
  pmem::ShadowPmem mem(4096);
  ShadowSink sink(&mem);
  auto policy = make_policy(PolicyKind::kBest);
  policy->on_fase_begin(sink);
  mem.store_value<int>(0, 99);
  policy->on_store(0, sink);
  policy->on_fase_end(sink);
  EXPECT_GT(mem.dirty_line_count(), 0u);
  mem.crash();
  EXPECT_EQ(mem.load_value<int>(0), 0);  // data lost
}

// --- flush-ratio ordering property ----------------------------------------------------

TEST(PolicyOrdering, LaLeqScLeqAtLeqEr) {
  // Paper Table III ordering on any trace: LA <= SC(best size) and
  // AT <= ER; SC is never worse than AT given the adapted size.
  Rng rng(99);
  std::vector<std::vector<LineAddr>> fases;
  for (int f = 0; f < 50; ++f) {
    std::vector<LineAddr> lines;
    for (int rep = 0; rep < 8; ++rep) {
      for (LineAddr a = 1; a <= 18; ++a) lines.push_back(a);
    }
    fases.push_back(std::move(lines));
  }

  auto count = [&](PolicyKind kind, const PolicyConfig& config) {
    auto p = make_policy(kind, config);
    RecordingSink sink;
    for (const auto& f : fases) run_fase(*p, sink, f);
    return sink.lines.size();
  };

  PolicyConfig config;
  config.atlas_table_size = 8;
  config.cache_size = 20;  // SC-offline at the right size
  const auto er = count(PolicyKind::kEager, config);
  const auto la = count(PolicyKind::kLazy, config);
  const auto at = count(PolicyKind::kAtlas, config);
  const auto sc = count(PolicyKind::kSoftCacheOffline, config);

  EXPECT_LE(la, sc);
  EXPECT_LE(sc, at);
  EXPECT_LE(at, er);
  EXPECT_EQ(la, sc);  // working set fits: SC reaches the lower bound
}

}  // namespace
}  // namespace nvc::core
