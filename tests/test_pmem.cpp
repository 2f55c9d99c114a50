// Unit tests for the persistent-memory substrate: flush backends, mmap
// regions, the persistent allocator, and the shadow crash model.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/types.hpp"
#include "pmem/fault.hpp"
#include "pmem/flush.hpp"
#include "pmem/pmem_alloc.hpp"
#include "pmem/pmem_region.hpp"
#include "pmem/shadow.hpp"

namespace nvc::pmem {
namespace {

std::string unique_name(const char* base) {
  static int counter = 0;
  return std::string(base) + "." + std::to_string(::getpid()) + "." +
         std::to_string(counter++);
}

// --- FlushBackend ---------------------------------------------------------------

TEST(FlushBackend, CountsFlushesAndFences) {
  FlushBackend b(FlushKind::kCountOnly);
  int data[64] = {};
  b.flush(&data[0]);
  b.flush(&data[32]);
  b.fence();
  EXPECT_EQ(b.flush_count(), 2u);
  EXPECT_EQ(b.fence_count(), 1u);
  b.reset_counters();
  EXPECT_EQ(b.flush_count(), 0u);
}

TEST(FlushBackend, FlushRangeCoversEveryLine) {
  FlushBackend b(FlushKind::kCountOnly);
  alignas(64) char buf[64 * 4] = {};
  b.flush_range(buf, sizeof buf);
  EXPECT_EQ(b.flush_count(), 4u);
  b.reset_counters();
  // A 1-byte range still needs one flush.
  b.flush_range(buf, 1);
  EXPECT_EQ(b.flush_count(), 1u);
  b.reset_counters();
  // A range straddling a line boundary needs two.
  b.flush_range(buf + 60, 8);
  EXPECT_EQ(b.flush_count(), 2u);
  b.reset_counters();
  b.flush_range(buf, 0);
  EXPECT_EQ(b.flush_count(), 0u);
}

TEST(FlushBackend, RealInstructionsExecuteWhenSupported) {
  // Whichever hardware kind is available must execute without faulting on
  // ordinary memory (DRAM emulation, as in the paper).
  alignas(64) volatile char buf[64] = {};
  for (FlushKind kind : {FlushKind::kClflush, FlushKind::kClflushopt,
                         FlushKind::kClwb, FlushKind::kSimulated}) {
    FlushBackend b(kind, /*simulated_latency_ns=*/10);
    buf[0] = 1;
    b.flush(const_cast<const char*>(buf));
    b.fence();
    EXPECT_EQ(b.flush_count(), 1u);
  }
}

TEST(FlushBackend, UnsupportedKindDowngradesToSimulated) {
  // kCountOnly and kSimulated never downgrade; hardware kinds only when the
  // CPU lacks them, which we can't force here — but the constructor must
  // always yield a usable backend.
  for (FlushKind kind : {FlushKind::kClflush, FlushKind::kClflushopt,
                         FlushKind::kClwb}) {
    FlushBackend b(kind);
    alignas(64) char buf[64] = {};
    b.flush(buf);
    EXPECT_EQ(b.flush_count(), 1u);
    EXPECT_TRUE(b.kind() == kind || b.kind() == FlushKind::kSimulated);
  }
}

TEST(FlushBackend, ParseNamesRoundTrip) {
  EXPECT_EQ(parse_flush_kind("clflush"), FlushKind::kClflush);
  EXPECT_EQ(parse_flush_kind("clflushopt"), FlushKind::kClflushopt);
  EXPECT_EQ(parse_flush_kind("clwb"), FlushKind::kClwb);
  EXPECT_EQ(parse_flush_kind("sim"), FlushKind::kSimulated);
  EXPECT_EQ(parse_flush_kind("count"), FlushKind::kCountOnly);
  // Unknown names are refused, never mapped to some default backend.
  EXPECT_FALSE(parse_flush_kind("simm").has_value());
  EXPECT_FALSE(parse_flush_kind("").has_value());
  EXPECT_STREQ(to_string(FlushKind::kClflush), "clflush");
  EXPECT_STREQ(to_string(FlushKind::kCountOnly), "count");
}

// --- PmemRegion -------------------------------------------------------------------

TEST(PmemRegion, CreateWriteReopenPersists) {
  const std::string name = unique_name("region-reopen");
  {
    PmemRegion r = PmemRegion::create(name, 1 << 16);
    ASSERT_TRUE(r.valid());
    std::memcpy(r.base(), "durable!", 8);
    r.sync();
  }  // unmapped; file remains
  ASSERT_TRUE(PmemRegion::exists(name));
  {
    PmemRegion r = PmemRegion::open(name);
    ASSERT_TRUE(r.valid());
    EXPECT_EQ(r.size(), std::size_t{1 << 16});
    EXPECT_EQ(std::memcmp(r.base(), "durable!", 8), 0);
    r.close_and_destroy();
  }
  EXPECT_FALSE(PmemRegion::exists(name));
}

TEST(PmemRegion, OffsetPointerRoundTrip) {
  const std::string name = unique_name("region-offset");
  PmemRegion r = PmemRegion::create(name, 1 << 16);
  char* p = static_cast<char*>(r.base()) + 1234;
  EXPECT_EQ(r.offset_of(p), 1234u);
  EXPECT_EQ(r.at(1234), p);
  EXPECT_TRUE(r.contains(p));
  EXPECT_FALSE(r.contains(&name));
  r.close_and_destroy();
}

TEST(PmemRegion, MoveTransfersOwnership) {
  const std::string name = unique_name("region-move");
  PmemRegion a = PmemRegion::create(name, 1 << 16);
  void* base = a.base();
  PmemRegion b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): testing move
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.base(), base);
  b.close_and_destroy();
}

TEST(PmemRegion, OpenMissingThrows) {
  EXPECT_THROW(PmemRegion::open(unique_name("region-missing")),
               std::runtime_error);
}

// --- PmemAllocator -----------------------------------------------------------------

class PmemAllocatorTest : public ::testing::Test {
 protected:
  PmemAllocatorTest()
      : name_(unique_name("alloc")),
        heap_(PmemRegion::create(name_, 1 << 20), /*format=*/true) {}
  ~PmemAllocatorTest() override { PmemRegion::destroy(name_); }

  std::string name_;
  PmemAllocator heap_;
};

TEST_F(PmemAllocatorTest, AllocateGivesDistinctAlignedBlocks) {
  const POffset a = heap_.allocate(100);
  const POffset b = heap_.allocate(100);
  ASSERT_NE(a, kNullOffset);
  ASSERT_NE(b, kNullOffset);
  EXPECT_NE(a, b);
  EXPECT_EQ(a % 16, 0u);
  EXPECT_EQ(b % 16, 0u);
  EXPECT_GE(heap_.block_size(a), 100u);
}

TEST_F(PmemAllocatorTest, FreeListReusesBlocks) {
  const POffset a = heap_.allocate(64);
  heap_.deallocate(a);
  const POffset b = heap_.allocate(64);
  EXPECT_EQ(a, b);  // same size class comes back LIFO
}

TEST_F(PmemAllocatorTest, BytesInUseTracksAllocations) {
  EXPECT_EQ(heap_.bytes_in_use(), 0u);
  const POffset a = heap_.allocate(100);
  EXPECT_EQ(heap_.bytes_in_use(), 100u);
  const POffset b = heap_.allocate(28);
  EXPECT_EQ(heap_.bytes_in_use(), 128u);
  heap_.deallocate(a);
  EXPECT_EQ(heap_.bytes_in_use(), 28u);
  heap_.deallocate(b);
  EXPECT_EQ(heap_.bytes_in_use(), 0u);
}

TEST_F(PmemAllocatorTest, RootSurvivesReopen) {
  const POffset a = heap_.allocate(64);
  *heap_.resolve<std::uint64_t>(a) = 0xfeedface;
  heap_.set_root(a);

  PmemAllocator reopened(PmemRegion::open(name_), /*format=*/false);
  EXPECT_EQ(reopened.root(), a);
  EXPECT_EQ(*reopened.resolve<std::uint64_t>(reopened.root()), 0xfeedfaceu);
}

TEST_F(PmemAllocatorTest, OpenRejectsUnformattedRegion) {
  const std::string other = unique_name("alloc-raw");
  PmemRegion raw = PmemRegion::create(other, 1 << 16);
  EXPECT_THROW(PmemAllocator(std::move(raw), /*format=*/false),
               std::runtime_error);
  PmemRegion::destroy(other);
}

TEST_F(PmemAllocatorTest, ExhaustionReturnsNull) {
  // Region is 1 MiB; oversized allocations must eventually return null
  // rather than corrupting.
  POffset last = kNullOffset;
  int count = 0;
  for (; count < 64; ++count) {
    last = heap_.allocate(100 * 1024);
    if (last == kNullOffset) break;
  }
  EXPECT_EQ(last, kNullOffset);
  EXPECT_GT(count, 0);
}

TEST_F(PmemAllocatorTest, PayloadsAreCacheLineAligned) {
  // Regression: alignas(64) members in persistent structs (e.g. the queue
  // example's anchors) require line-aligned payloads; misalignment made
  // placement-new UB.
  for (const std::size_t size : {1u, 24u, 64u, 100u, 4096u}) {
    const POffset off = heap_.allocate(size);
    ASSERT_NE(off, kNullOffset);
    const auto addr = reinterpret_cast<std::uintptr_t>(heap_.resolve(off));
    EXPECT_EQ(addr % kCacheLineSize, 0u) << "size " << size;
  }
}

TEST_F(PmemAllocatorTest, RecycledBlocksKeepAlignment) {
  const POffset a = heap_.allocate(128);
  heap_.deallocate(a);
  const POffset b = heap_.allocate(100);  // same size class, recycled
  EXPECT_EQ(a, b);
  const auto addr = reinterpret_cast<std::uintptr_t>(heap_.resolve(b));
  EXPECT_EQ(addr % kCacheLineSize, 0u);
}

TEST_F(PmemAllocatorTest, ZeroByteAllocationIsValid) {
  const POffset a = heap_.allocate(0);
  EXPECT_NE(a, kNullOffset);
  heap_.deallocate(a);
}

// --- ShadowPmem -------------------------------------------------------------------

TEST(ShadowPmem, StoresVisibleOnlyAfterFlush) {
  ShadowPmem mem(4096);
  mem.store_value<int>(128, 42);
  EXPECT_EQ(mem.load_value<int>(128), 42);        // volatile view sees it
  EXPECT_EQ(mem.durable_value<int>(128), 0);       // durable view does not
  mem.flush_addr(128);
  EXPECT_EQ(mem.durable_value<int>(128), 42);
}

TEST(ShadowPmem, CrashDropsUnflushedLines) {
  ShadowPmem mem(4096);
  mem.store_value<int>(0, 1);
  mem.flush_addr(0);
  mem.store_value<int>(64, 2);  // different line, never flushed
  mem.crash();
  EXPECT_EQ(mem.load_value<int>(0), 1);
  EXPECT_EQ(mem.load_value<int>(64), 0);  // lost
  EXPECT_EQ(mem.dirty_line_count(), 0u);
}

TEST(ShadowPmem, LineGranularFlushTakesNeighborsOnSameLine) {
  ShadowPmem mem(4096);
  mem.store_value<int>(0, 7);
  mem.store_value<int>(60, 9);  // same 64B line
  mem.flush_line(0);
  EXPECT_EQ(mem.durable_value<int>(0), 7);
  EXPECT_EQ(mem.durable_value<int>(60), 9);
}

TEST(ShadowPmem, StoreSpanningLinesDirtiesBoth) {
  ShadowPmem mem(4096);
  const std::uint64_t v = 0x1122334455667788ull;
  mem.store(60, &v, sizeof v);  // straddles lines 0 and 1
  EXPECT_TRUE(mem.line_dirty(0));
  EXPECT_TRUE(mem.line_dirty(1));
  mem.flush_line(0);
  mem.flush_line(1);
  EXPECT_EQ(mem.durable_value<std::uint64_t>(60), v);
}

TEST(ShadowPmem, FlushAllPersistsEverything) {
  ShadowPmem mem(4096);
  for (PmAddr a = 0; a < 4096; a += 64) mem.store_value<int>(a, 5);
  EXPECT_EQ(mem.dirty_line_count(), 64u);
  mem.flush_all();
  EXPECT_EQ(mem.dirty_line_count(), 0u);
  mem.crash();
  for (PmAddr a = 0; a < 4096; a += 64) EXPECT_EQ(mem.load_value<int>(a), 5);
}

TEST(ShadowPmem, CountsStoresAndFlushes) {
  ShadowPmem mem(1024);
  mem.store_value<int>(0, 1);
  mem.store_value<int>(4, 2);
  mem.flush_addr(0);
  EXPECT_EQ(mem.stores(), 2u);
  EXPECT_EQ(mem.flushes(), 1u);
}

// --- ShadowPmem power-cut clock ----------------------------------------------

TEST(ShadowPmemClock, SetupEventsAreNotCounted) {
  ShadowPmem mem(4096);
  mem.freeze_at(0);
  // Before the clock starts everything is setup: index 0, never cut.
  mem.store_value<int>(0, 1);
  EXPECT_EQ(mem.claim_event(), 0u);
  mem.flush_line(0);
  EXPECT_EQ(mem.events(), 0u);
  EXPECT_EQ(mem.durable_value<int>(0), 1);
  mem.start_clock();
  EXPECT_EQ(mem.claim_event(), 1u);  // the first counted event cuts power
  mem.store_value<int>(0, 2);
  mem.flush_line(0);
  EXPECT_EQ(mem.durable_value<int>(0), 1);
}

TEST(ShadowPmemClock, FreezeAtDropsLaterFlushes) {
  ShadowPmem mem(4096);
  mem.start_clock();
  mem.freeze_at(2);
  mem.store_value<int>(0, 1);  // event 1
  mem.flush_line(0);           // event 2: powered, lands
  mem.store_value<int>(0, 2);  // event 3: past the cut
  EXPECT_TRUE(mem.flush_line(0));  // event 4: dropped, reported as done
  EXPECT_EQ(mem.events(), 4u);
  EXPECT_EQ(mem.flushes(), 1u);
  EXPECT_EQ(mem.durable_value<int>(0), 1);
  // The restart has power and a stopped clock: recovery is never cut.
  mem.crash();
  EXPECT_EQ(mem.load_value<int>(0), 1);
  mem.store_value<int>(0, 3);
  mem.flush_line(0);
  EXPECT_EQ(mem.durable_value<int>(0), 3);
  EXPECT_EQ(mem.events(), 4u);
}

/// Four dirty lines from setup, and an injector that tears every
/// write-back racing the cut.
struct ShadowPmemTear : ::testing::Test {
  ShadowPmemTear() : injector([] {
    FaultConfig config;
    config.torn_rate = 1.0;
    return config;
  }()) {
    for (PmAddr a = 0; a < 4 * kCacheLineSize; a += 8) {
      mem.store_value<std::uint64_t>(a, 0x1111111111111111ull);
    }
    mem.set_fault_injector(&injector);
    mem.start_clock();
    mem.freeze_at(0);
  }
  ShadowPmem mem{4 * kCacheLineSize};
  FaultInjector injector;
};

TEST_F(ShadowPmemTear, WindowClosesOnAnEventGap) {
  mem.flush_line(0);                  // event 1 = cut + 1: opens the window
  mem.flush_line(1);                  // event 2: same burst
  mem.store_value<int>(3 * 64, 5);    // event 3: the burst is over
  mem.flush_line(2);                  // event 4: never reached the queue
  EXPECT_EQ(mem.torn_flushes(), 2u);
  EXPECT_NE(mem.durable_value<std::uint64_t>(0), 0u);
  EXPECT_NE(mem.durable_value<std::uint64_t>(64), 0u);
  EXPECT_EQ(mem.durable_value<std::uint64_t>(128), 0u);
}

TEST_F(ShadowPmemTear, WindowClosesOnAPostCutFence) {
  mem.flush_line(0);
  mem.fence();  // ordering issued after the cut never completed
  mem.flush_line(1);
  EXPECT_EQ(mem.torn_flushes(), 1u);
  EXPECT_EQ(mem.durable_value<std::uint64_t>(64), 0u);
}

TEST_F(ShadowPmemTear, WindowClosesAtTheBurstDepth) {
  mem.set_tear_burst(2);
  for (LineAddr line = 0; line < 4; ++line) mem.flush_line(line);
  EXPECT_EQ(mem.torn_flushes(), 2u);
  EXPECT_EQ(mem.durable_value<std::uint64_t>(128), 0u);
}

TEST(ShadowPmemClock, FlusherRacingAStoreNeverPersistsPastTheCut) {
  // A flush worker and the application thread race on one line across the
  // cut. A flush claims its index atomically with its copy, so the durable
  // line only ever holds a value whose store could have beaten the cut:
  // one stored after the clock had already reached the cut never lands.
  constexpr std::uint64_t kStores = 200;
  for (std::uint64_t cut = 1; cut < 400; cut += 7) {
    ShadowPmem mem(kCacheLineSize);
    mem.start_clock();
    mem.freeze_at(cut);
    std::vector<std::uint64_t> events_before(kStores + 1, 0);
    std::atomic<bool> done{false};
    std::thread flusher([&] {
      while (!done.load(std::memory_order_acquire)) mem.flush_line(0);
    });
    for (std::uint64_t v = 1; v <= kStores; ++v) {
      events_before[v] = mem.events();
      mem.store_value<std::uint64_t>(0, v);
    }
    done.store(true, std::memory_order_release);
    flusher.join();
    const auto durable = mem.durable_value<std::uint64_t>(0);
    ASSERT_LE(durable, kStores);
    if (durable != 0) {
      EXPECT_LT(events_before[durable], cut)
          << "cut " << cut << ": value " << durable
          << " was stored after the cut and still persisted";
    }
  }
}

}  // namespace
}  // namespace nvc::pmem
