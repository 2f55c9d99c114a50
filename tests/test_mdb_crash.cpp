// Crash-consistency tests for the full MDB stack: COW pages + barrier-
// ordered commit + checksummed alternating metas, running under each valid
// persistence policy against the ShadowPmem crash model.
//
// Method: the store runs against a PersistApi whose flushes land in a
// shadow durable image. At a chosen event index the durable image is
// *frozen* (no further flushes take effect) — exactly what a power failure
// at that instant would leave in NVRAM. The test then interprets the frozen
// image with Db::read_image and asserts that it is a structurally intact
// tree whose contents equal the state after some committed transaction
// (all-or-nothing per write transaction, the FASE guarantee).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/policy.hpp"
#include "mdb/btree.hpp"
#include "pmem/shadow.hpp"
#include "workloads/api.hpp"

namespace nvc::mdb {
namespace {

/// PersistApi over ShadowPmem: app writes go to a real buffer (so the Db
/// functions normally), wrote() mirrors the bytes into the shadow volatile
/// image, and policy flushes persist shadow lines. The image's own clock
/// models the power cut: shadow().freeze_at(e) drops every flush past
/// event e.
class ShadowApi final : public workloads::PersistApi {
 public:
  ShadowApi(std::size_t bytes, core::PolicyKind kind,
            const core::PolicyConfig& config)
      : buffer_(static_cast<char*>(std::aligned_alloc(64, bytes)),
                &std::free),
        shadow_(bytes),
        sink_(&shadow_),
        policy_(core::make_policy(kind, config)),
        capacity_(bytes) {
    std::memset(buffer_.get(), 0, bytes);
  }

  void* alloc(std::size_t, std::size_t size) override {
    const std::size_t off = align_up(cursor_, kCacheLineSize);
    NVC_REQUIRE(off + size <= capacity_, "shadow arena exhausted");
    cursor_ = off + size;
    return buffer_.get() + off;
  }

  void fase_begin(std::size_t) override { policy_->on_fase_begin(sink_); }
  void fase_end(std::size_t) override { policy_->on_fase_end(sink_); }
  void persist_barrier(std::size_t) override {
    policy_->flush_buffered(sink_);  // flush everything, FASE stays open
  }

  void wrote(std::size_t, const void* addr, std::size_t len) override {
    const std::size_t off =
        static_cast<std::size_t>(static_cast<const char*>(addr) -
                                 buffer_.get());
    shadow_.store(off, addr, len);
    const LineAddr first = line_of(off);
    const LineAddr last = line_of(off + len - 1);
    for (LineAddr line = first; line <= last; ++line) {
      policy_->on_store(line, sink_);
    }
  }

  pmem::ShadowPmem& shadow() noexcept { return shadow_; }

  /// The durable image a restarted process would map.
  std::vector<std::uint8_t> durable_image() const {
    std::vector<std::uint8_t> image(capacity_);
    shadow_.load_durable(0, image.data(), capacity_);
    return image;
  }

 private:
  class Sink final : public core::FlushSink {
   public:
    explicit Sink(pmem::ShadowPmem* shadow) : shadow_(shadow) {}
    bool flush_line(LineAddr line) override {
      return shadow_->flush_line(line);
    }

   private:
    pmem::ShadowPmem* shadow_;
  };

  std::unique_ptr<char, decltype(&std::free)> buffer_;
  pmem::ShadowPmem shadow_;
  Sink sink_;
  std::unique_ptr<core::Policy> policy_;
  std::size_t capacity_;
  std::size_t cursor_ = 0;
};

constexpr std::size_t kSlabPages = 192;
constexpr std::size_t kSlabBytes = kSlabPages * kPageSize;

/// Deterministic transaction script; returns per-committed-txn snapshots.
/// Formatting the store is setup: the clock starts once it is done, so
/// every event of the run is a crash point with a store to recover (an
/// interrupted mkfs leaves no filesystem).
std::map<TxnId, std::map<Key, Value>> run_script(ShadowApi& api, int txns) {
  Db db(api, kSlabPages);
  api.shadow().start_clock();
  std::map<TxnId, std::map<Key, Value>> snapshots;
  std::map<Key, Value> state;
  snapshots[0] = state;  // the freshly formatted, empty tree
  Rng rng(1234);
  for (int t = 0; t < txns; ++t) {
    auto txn = db.begin_write(0);
    for (int op = 0; op < 6; ++op) {
      const Key k = rng.below(500);
      if (rng.chance(0.8)) {
        const Value v = rng();
        txn.put(k, v);
        state[k] = v;
      } else {
        txn.del(k);
        state.erase(k);
      }
    }
    txn.commit();
    snapshots[db.last_committed()] = state;
  }
  return snapshots;
}

struct CrashCase {
  core::PolicyKind kind;
  // gtest names each case after a byte dump of the whole struct; implicit
  // padding would put stale stack bytes into those names, so the bytes
  // between kind and crash_fraction are an explicit zeroed member.
  std::uint8_t zero[7];
  double crash_fraction;  // where in the event stream the power fails
};
static_assert(sizeof(CrashCase) == 16, "CrashCase must have no padding");

class MdbCrash : public ::testing::TestWithParam<CrashCase> {};

TEST_P(MdbCrash, FrozenImageIsACommittedSnapshot) {
  const CrashCase param = GetParam();
  core::PolicyConfig config;
  config.cache_size = 8;
  config.sampler.burst_length = 1u << 20;  // never adapts mid-test

  // Dry run: learn the event count and the per-txn expected snapshots.
  ShadowApi dry(kSlabBytes + (64u << 10), param.kind, config);
  const auto snapshots = run_script(dry, 40);
  const std::uint64_t total_events = dry.shadow().events();
  ASSERT_GT(total_events, 1000u);

  // Crash run: same script, durability frozen mid-stream.
  const auto freeze_at = static_cast<std::uint64_t>(
      param.crash_fraction * static_cast<double>(total_events));
  ShadowApi crashed(kSlabBytes + (64u << 10), param.kind, config);
  crashed.shadow().freeze_at(freeze_at);
  (void)run_script(crashed, 40);

  const auto image = crashed.durable_image();
  const Db::ImageContents contents =
      Db::read_image(image.data(), kSlabBytes);

  const auto it = snapshots.find(contents.txn);
  ASSERT_NE(it, snapshots.end())
      << "durable tree claims txn " << contents.txn
      << " which never committed";
  EXPECT_EQ(contents.pairs, it->second)
      << core::to_string(param.kind) << " crashed at event " << freeze_at
      << "/" << total_events;
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndCrashPoints, MdbCrash,
    ::testing::Values(
        CrashCase{core::PolicyKind::kEager, {}, 0.05},
        CrashCase{core::PolicyKind::kEager, {}, 0.50},
        CrashCase{core::PolicyKind::kEager, {}, 0.95},
        CrashCase{core::PolicyKind::kLazy, {}, 0.10},
        CrashCase{core::PolicyKind::kLazy, {}, 0.55},
        CrashCase{core::PolicyKind::kLazy, {}, 0.90},
        CrashCase{core::PolicyKind::kAtlas, {}, 0.15},
        CrashCase{core::PolicyKind::kAtlas, {}, 0.60},
        CrashCase{core::PolicyKind::kAtlas, {}, 0.85},
        CrashCase{core::PolicyKind::kSoftCache, {}, 0.20},
        CrashCase{core::PolicyKind::kSoftCache, {}, 0.45},
        CrashCase{core::PolicyKind::kSoftCache, {}, 0.80},
        CrashCase{core::PolicyKind::kSoftCacheOffline, {}, 0.25},
        CrashCase{core::PolicyKind::kSoftCacheOffline, {}, 0.65},
        CrashCase{core::PolicyKind::kSoftCacheOffline, {}, 0.99}));

TEST(MdbCrash, ManyRandomCrashPointsUnderSc) {
  // Dense sweep under the paper's policy: 25 crash points spread across the
  // run, every one must yield a committed snapshot.
  core::PolicyConfig config;
  config.cache_size = 20;
  ShadowApi dry(kSlabBytes + (64u << 10), core::PolicyKind::kSoftCacheOffline,
                config);
  const auto snapshots = run_script(dry, 40);
  const std::uint64_t total_events = dry.shadow().events();

  Rng rng(77);
  for (int round = 0; round < 25; ++round) {
    const std::uint64_t freeze_at = rng.below(total_events + 1);
    ShadowApi crashed(kSlabBytes + (64u << 10),
                      core::PolicyKind::kSoftCacheOffline, config);
    crashed.shadow().freeze_at(freeze_at);
    (void)run_script(crashed, 40);
    const auto image = crashed.durable_image();
    const Db::ImageContents contents =
        Db::read_image(image.data(), kSlabBytes);
    const auto it = snapshots.find(contents.txn);
    ASSERT_NE(it, snapshots.end()) << "freeze " << freeze_at;
    ASSERT_EQ(contents.pairs, it->second) << "freeze " << freeze_at;
  }
}

TEST(MdbCrash, BestPolicyLosesEverything) {
  // Sanity: under BEST (no flushes ever), a crash leaves no intact meta.
  core::PolicyConfig config;
  ShadowApi api(kSlabBytes + (64u << 10), core::PolicyKind::kBest, config);
  api.shadow().freeze_at(0);  // power fails right after the format
  (void)run_script(api, 5);
  const auto image = api.durable_image();
  EXPECT_DEATH((void)Db::read_image(image.data(), kSlabBytes),
               "no intact meta");
}

}  // namespace
}  // namespace nvc::mdb
