// Unit tests for the hardened-recovery building blocks (DESIGN.md §14):
// the shared checksum module, commit-granularity data-line verification,
// the heap clean-shutdown seal, untrusted header/log inspection on hostile
// bytes, and the region-open diagnostics for truncated / empty / foreign /
// version-mismatched image files. The common thread: every routine here is
// fed arbitrary garbage somewhere below and must classify, throw, or return
// a status — never abort, crash, or read out of bounds.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/checksum.hpp"
#include "common/types.hpp"
#include "pmem/pmem_alloc.hpp"
#include "pmem/pmem_region.hpp"
#include "runtime/recovery.hpp"
#include "runtime/runtime.hpp"
#include "runtime/scrub.hpp"
#include "runtime/undo_log.hpp"

namespace nvc {
namespace {

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// --- checksum module -------------------------------------------------------

TEST(Checksum, Crc32cKnownAnswers) {
  // The standard CRC32C check value (RFC 3720 appendix / every iSCSI stack).
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c("", 0), 0u);
  // 32 zero bytes, another published vector.
  const std::array<std::uint8_t, 32> zeros{};
  EXPECT_EQ(crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Checksum, Crc32cChains) {
  const char* msg = "adaptive software caching";
  const std::size_t len = std::strlen(msg);
  const std::uint32_t whole = crc32c(msg, len);
  for (std::size_t split = 0; split <= len; ++split) {
    const std::uint32_t part = crc32c(msg, split);
    EXPECT_EQ(crc32c(msg + split, len - split, part), whole) << split;
  }
}

TEST(Checksum, Crc32cMatchesTableFallback) {
  // crc32c() runs the SSE4.2 instruction where the build targets it; the
  // table loop is the NVC_NO_SIMD / portable fallback. Both must agree bit
  // for bit on every length and alignment: the 8-byte steps, the byte tail,
  // and unaligned loads.
  std::array<std::uint8_t, 320> buf{};
  std::uint64_t state = 0xc0ffee;
  for (auto& b : buf) b = static_cast<std::uint8_t>(splitmix(state));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::uint8_t* p = buf.data() + offset;
      ASSERT_EQ(crc32c(p, len), detail::crc32c_table(p, len))
          << "offset " << offset << " len " << len;
      const std::uint32_t seed = static_cast<std::uint32_t>(splitmix(state));
      ASSERT_EQ(crc32c(p, len, seed), detail::crc32c_table(p, len, seed))
          << "seeded, offset " << offset << " len " << len;
    }
  }
  // Chaining holds across the paths too: a running checksum started on one
  // and continued on the other lands on the same value.
  const std::uint32_t whole = detail::crc32c_table(buf.data(), 300);
  for (std::size_t split = 0; split <= 300; split += 7) {
    EXPECT_EQ(crc32c(buf.data() + split, 300 - split,
                     detail::crc32c_table(buf.data(), split)),
              whole)
        << split;
    EXPECT_EQ(detail::crc32c_table(buf.data() + split, 300 - split,
                                   crc32c(buf.data(), split)),
              whole)
        << split;
  }
}

TEST(Checksum, Fnv32KnownAnswers) {
  EXPECT_EQ(fnv1a32("", 0), Fnv32::kOffsetBasis);
  // FNV-1a reference vectors.
  EXPECT_EQ(fnv1a32("a", 1), 0xe40c292cu);
  EXPECT_EQ(fnv1a32("foobar", 6), 0xbf9cf968u);
}

TEST(Checksum, Fnv32MixLeIsHostEndianIndependent) {
  // mix_le must equal mixing the value's little-endian byte image, whatever
  // the host order — the durable log format is a byte stream.
  Fnv32 a;
  a.mix_le(std::uint64_t{0x1122334455667788ull});
  const std::uint8_t le[8] = {0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11};
  Fnv32 b;
  b.mix_bytes(le, sizeof(le));
  EXPECT_EQ(a.value(), b.value());
}

TEST(Checksum, UndoLogCheckWordIsTheSharedFnv) {
  // The undo log's record certification must be exactly the shared module's
  // FNV over token/len/gen/payload in that order — the durable PR 2 format.
  const std::uint64_t token = 0x00c0ffee00c0ffeeull;
  const std::uint32_t len = 24;
  const std::uint32_t gen = 7;
  std::uint8_t payload[24];
  std::uint64_t s = 42;
  for (auto& b : payload) b = static_cast<std::uint8_t>(splitmix(s));

  Fnv32 h;
  h.mix_le(token);
  h.mix_le(len);
  h.mix_le(gen);
  h.mix_bytes(payload, len);
  EXPECT_EQ(runtime::UndoLog::entry_check(token, len, gen, payload),
            h.value());
  // Any field perturbation changes the word.
  EXPECT_NE(runtime::UndoLog::entry_check(token + 1, len, gen, payload),
            h.value());
  EXPECT_NE(runtime::UndoLog::entry_check(token, len, gen + 1, payload),
            h.value());
}

// --- LineVerifyTable -------------------------------------------------------

TEST(LineVerifyTable, CommitDirtyVerifyLifecycle) {
  runtime::LineVerifyTable table(4 * kCacheLineSize);
  ASSERT_EQ(table.lines(), 4u);
  std::uint8_t line[kCacheLineSize];
  std::memset(line, 0x5a, sizeof(line));

  // Unknown lines are not checkable and verify() passes them (no false
  // positives before the first commit publishes a checksum).
  EXPECT_FALSE(table.checkable(0));
  EXPECT_TRUE(table.verify(0, line));

  table.note_commit(0, line);
  EXPECT_TRUE(table.checkable(0));
  EXPECT_TRUE(table.verify(0, line));

  // A corrupted byte fails verification...
  line[17] ^= 0x01;
  EXPECT_FALSE(table.verify(0, line));

  // ...but a line marked dirty (in-flight FASE store) is never checked.
  table.mark_dirty(0);
  EXPECT_FALSE(table.checkable(0));
  EXPECT_TRUE(table.verify(0, line));

  // The next commit republishes the new content and re-arms checking.
  table.note_commit(0, line);
  EXPECT_TRUE(table.checkable(0));
  EXPECT_TRUE(table.verify(0, line));
  line[17] ^= 0x01;
  EXPECT_FALSE(table.verify(0, line));
}

TEST(LineVerifyTable, OutOfRangeIndicesAreInert) {
  runtime::LineVerifyTable table(2 * kCacheLineSize);
  std::uint8_t line[kCacheLineSize] = {};
  table.mark_dirty(99);          // must not write anywhere
  table.note_commit(99, line);   // ditto
  EXPECT_FALSE(table.checkable(99));
  EXPECT_TRUE(table.verify(99, line));  // not checkable => passes
}

// --- heap clean-shutdown seal ---------------------------------------------

std::string unique_region(const char* tag) {
  return std::string("recovery_units_") + tag + "_" +
         std::to_string(::getpid());
}

TEST(HeapSeal, SealUnsealLifecycle) {
  const std::string name = unique_region("seal");
  pmem::PmemRegion::destroy(name);
  {
    pmem::PmemAllocator heap(pmem::PmemRegion::create(name, 256 * 1024),
                             /*format=*/true);
    EXPECT_FALSE(heap.sealed_clean());

    const std::uint64_t word = heap.seal();
    EXPECT_NE(word, 0u);
    EXPECT_TRUE(heap.sealed_clean());
    auto st = pmem::PmemAllocator::inspect(heap.region().base(),
                                           heap.region().size());
    EXPECT_TRUE(st.magic_ok);
    EXPECT_TRUE(st.version_ok);
    EXPECT_TRUE(st.sealed);
    EXPECT_TRUE(st.seal_valid);
    EXPECT_TRUE(st.bump_plausible);
    EXPECT_EQ(st.seal_gen, 1u);

    // Unseal: the image reads as dirty again.
    heap.unseal();
    EXPECT_FALSE(heap.sealed_clean());
    st = pmem::PmemAllocator::inspect(heap.region().base(),
                                      heap.region().size());
    EXPECT_FALSE(st.sealed);

    // Re-seal bumps the generation.
    heap.seal();
    st = pmem::PmemAllocator::inspect(heap.region().base(),
                                      heap.region().size());
    EXPECT_TRUE(st.seal_valid);
    EXPECT_EQ(st.seal_gen, 2u);
  }
  pmem::PmemRegion::destroy(name);
}

TEST(HeapSeal, StaleSealOverMutatedHeaderIsInvalid) {
  const std::string name = unique_region("stale_seal");
  pmem::PmemRegion::destroy(name);
  {
    pmem::PmemAllocator heap(pmem::PmemRegion::create(name, 256 * 1024),
                             /*format=*/true);
    heap.seal();
    ASSERT_TRUE(heap.sealed_clean());
    // Mutate a covered header byte (the root slot) *without* unsealing —
    // the checksum no longer matches, so the seal cannot fake cleanliness.
    auto* bytes = static_cast<std::uint8_t*>(heap.region().base());
    bytes[16] ^= 0xff;  // root field, byte 0
    EXPECT_FALSE(heap.sealed_clean());
    const auto st = pmem::PmemAllocator::inspect(heap.region().base(),
                                                 heap.region().size());
    EXPECT_TRUE(st.sealed);
    EXPECT_FALSE(st.seal_valid);
  }
  pmem::PmemRegion::destroy(name);
}

TEST(HeapSeal, InspectNeverCrashesOnGarbage) {
  std::vector<std::uint8_t> buf(4096);
  std::uint64_t s = 0xdecafull;
  for (int round = 0; round < 64; ++round) {
    for (auto& b : buf) b = static_cast<std::uint8_t>(splitmix(s));
    const auto st = pmem::PmemAllocator::inspect(buf.data(), buf.size());
    EXPECT_FALSE(st.magic_ok);  // 2^-64 false-positive budget, accepted
  }
  // Undersized and empty views must be handled too.
  for (const std::size_t size : {std::size_t{0}, std::size_t{1},
                                 std::size_t{16}, std::size_t{100}}) {
    const auto st = pmem::PmemAllocator::inspect(buf.data(), size);
    EXPECT_FALSE(st.magic_ok) << size;
  }
}

// --- region-open diagnostics ----------------------------------------------

TEST(RegionOpen, MissingFileThrowsDiagnostic) {
  EXPECT_THROW(pmem::PmemRegion::open("recovery_units_never_created"),
               std::runtime_error);
}

TEST(RegionOpen, EmptyFileThrowsDiagnostic) {
  const std::string name = unique_region("empty");
  pmem::PmemRegion::destroy(name);
  std::string path;
  {
    pmem::PmemRegion region = pmem::PmemRegion::create(name, 4096);
    path = region.path();
  }
  ASSERT_EQ(::truncate(path.c_str(), 0), 0);
  try {
    pmem::PmemRegion::open(name);
    FAIL() << "open() accepted a zero-length image";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("empty"), std::string::npos)
        << e.what();
  }
  pmem::PmemRegion::destroy(name);
}

TEST(RegionOpen, TruncatedHeapThrowsDiagnostic) {
  const std::string name = unique_region("truncated");
  pmem::PmemRegion::destroy(name);
  std::string path;
  {
    pmem::PmemAllocator heap(pmem::PmemRegion::create(name, 256 * 1024),
                             /*format=*/true);
    path = heap.region().path();
  }
  // The file survives but most of it is gone — smaller than a heap header.
  ASSERT_EQ(::truncate(path.c_str(), 128), 0);
  try {
    pmem::PmemAllocator heap(pmem::PmemRegion::open(name), /*format=*/false);
    FAIL() << "open() accepted a truncated heap image";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("too small"), std::string::npos)
        << e.what();
  }
  pmem::PmemRegion::destroy(name);
}

TEST(RegionOpen, VersionMismatchThrowsDiagnostic) {
  const std::string name = unique_region("version");
  pmem::PmemRegion::destroy(name);
  {
    pmem::PmemAllocator heap(pmem::PmemRegion::create(name, 256 * 1024),
                             /*format=*/true);
  }
  {
    pmem::PmemRegion region = pmem::PmemRegion::open(name);
    // Bump the version field (offset 8, after the 8-byte magic).
    const std::uint32_t alien = pmem::PmemAllocator::kVersion + 7;
    std::memcpy(static_cast<std::uint8_t*>(region.base()) + 8, &alien,
                sizeof(alien));
    const auto st =
        pmem::PmemAllocator::inspect(region.base(), region.size());
    EXPECT_TRUE(st.magic_ok);
    EXPECT_FALSE(st.version_ok);
    EXPECT_EQ(st.version, alien);
    try {
      pmem::PmemAllocator heap(std::move(region), /*format=*/false);
      FAIL() << "open() accepted a version-mismatched heap";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("version mismatch"),
                std::string::npos)
          << e.what();
    }
  }
  pmem::PmemRegion::destroy(name);
}

TEST(RegionOpen, ForeignBytesThrowDiagnostic) {
  const std::string name = unique_region("foreign");
  pmem::PmemRegion::destroy(name);
  {
    pmem::PmemRegion region = pmem::PmemRegion::create(name, 256 * 1024);
    std::uint64_t s = 3;
    auto* bytes = static_cast<std::uint8_t*>(region.base());
    for (std::size_t i = 0; i < 4096; ++i) {
      bytes[i] = static_cast<std::uint8_t>(splitmix(s));
    }
  }
  try {
    pmem::PmemAllocator heap(pmem::PmemRegion::open(name), /*format=*/false);
    FAIL() << "open() accepted foreign bytes as a heap";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("not a nvcache heap"),
              std::string::npos)
        << e.what();
  }
  pmem::PmemRegion::destroy(name);
}

// --- untrusted undo-log inspection ----------------------------------------

using runtime::UndoLog;

TEST(UndoLogInspect, HostileBytesNeverCrash) {
  alignas(64) std::uint8_t seg[4096];
  std::uint64_t s = 0xfacefeedull;
  for (int round = 0; round < 128; ++round) {
    for (auto& b : seg) b = static_cast<std::uint8_t>(splitmix(s));
    const UndoLog::Inspection ins = UndoLog::inspect(seg, sizeof(seg));
    // Random bytes essentially never spell the magic; whatever happens, the
    // reported extents must stay inside the segment.
    EXPECT_LE(ins.certified_extent, sizeof(seg));
    for (const std::uint64_t off : ins.offsets) EXPECT_LT(off, sizeof(seg));
    if (!ins.formatted) {
      EXPECT_TRUE(ins.offsets.empty());
    }
  }
  // Undersized views: inspect must refuse rather than read out of bounds.
  EXPECT_FALSE(UndoLog::inspect(seg, 0).formatted);
  EXPECT_FALSE(UndoLog::inspect(seg, 8).formatted);
  EXPECT_FALSE(UndoLog::inspect(nullptr, 4096).formatted);
}

TEST(UndoLogInspect, CertifiesHandcraftedChainAndStopsAtCorruption) {
  alignas(64) std::uint8_t seg[1024];
  std::memset(seg, 0, sizeof(seg));

  // Empty, committed log of generation 7.
  UndoLog::LogHeader header{};
  header.magic = UndoLog::kMagic;
  header.state = UndoLog::pack_state(7, UndoLog::kHeaderSize);
  std::memcpy(seg, &header, sizeof(header));
  UndoLog::Inspection ins = UndoLog::inspect(seg, sizeof(seg));
  EXPECT_TRUE(ins.formatted);
  EXPECT_TRUE(ins.state_plausible);
  EXPECT_TRUE(ins.tail_covered);
  EXPECT_EQ(ins.gen, 7u);
  EXPECT_EQ(ins.certified_extent, UndoLog::kHeaderSize);
  EXPECT_TRUE(ins.offsets.empty());

  // Append one certified 8-byte record and publish a covering tail.
  const std::uint64_t token = 0x140;
  std::uint8_t payload[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  UndoLog::EntryHead entry{};
  entry.addr_token = token;
  entry.len = sizeof(payload);
  entry.check = UndoLog::entry_check(token, entry.len, 7, payload);
  std::memcpy(seg + UndoLog::kHeaderSize, &entry, sizeof(entry));
  std::memcpy(seg + UndoLog::kHeaderSize + sizeof(entry), payload,
              sizeof(payload));
  const std::uint64_t tail =
      UndoLog::kHeaderSize + sizeof(entry) + sizeof(payload);
  header.state = UndoLog::pack_state(7, tail);
  std::memcpy(seg, &header, sizeof(header));

  ins = UndoLog::inspect(seg, sizeof(seg));
  ASSERT_EQ(ins.offsets.size(), 1u);
  EXPECT_EQ(ins.offsets[0], UndoLog::kHeaderSize);
  EXPECT_EQ(ins.certified_extent, tail);
  EXPECT_TRUE(ins.tail_covered);

  // A flipped payload bit breaks certification: the chain stops short of
  // the durable tail, which is exactly the "synced bytes corrupted"
  // signature the salvage pipeline reports as unrecoverable.
  seg[UndoLog::kHeaderSize + sizeof(entry) + 3] ^= 0x10;
  ins = UndoLog::inspect(seg, sizeof(seg));
  EXPECT_TRUE(ins.offsets.empty());
  EXPECT_EQ(ins.certified_extent, UndoLog::kHeaderSize);
  EXPECT_FALSE(ins.tail_covered);

  // A tail pointing outside the segment is implausible on its face.
  header.state = UndoLog::pack_state(7, sizeof(seg) + 64);
  std::memcpy(seg, &header, sizeof(header));
  ins = UndoLog::inspect(seg, sizeof(seg));
  EXPECT_TRUE(ins.formatted);
  EXPECT_FALSE(ins.state_plausible);
  EXPECT_FALSE(ins.tail_covered);
}

// --- online scrub vs. live stores ------------------------------------------

TEST(ScrubVerify, ConcurrentScrubNeverFlagsInFlightPstores) {
  // One thread runs pstore FASEs over a few lines while another pumps scrub
  // slices across the whole (small) region. Every checksum mismatch here
  // would be false: nothing corrupts the media. pstore dirties a line
  // before writing it and verify() re-reads the slot after hashing, so a
  // slice can never hash a store's bytes against the previous commit's CRC.
  const std::string name = unique_region("scrub_race");
  runtime::RuntimeConfig config;
  config.region_name = name;
  config.region_size = 64u << 10;
  config.flush = pmem::FlushKind::kCountOnly;
  config.verify_data = true;
  config.scrub = true;
  config.scrub_batch_lines = config.region_size / kCacheLineSize;
  {
    runtime::Runtime rt(config);
    constexpr std::size_t kWords = 4 * kCacheLineSize / sizeof(std::uint64_t);
    auto* words =
        static_cast<std::uint64_t*>(rt.pm_alloc(kWords * sizeof(std::uint64_t)));
    std::atomic<bool> done{false};
    std::thread scrub([&] {
      do {
        rt.scrubber()->step();
      } while (!done.load(std::memory_order_acquire));
    });
    // Values never repeat, so no commit republishes a line's old checksum.
    std::uint64_t value = 0;
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
    while (std::chrono::steady_clock::now() < until) {
      rt.fase_begin();
      for (std::size_t w = 0; w < kWords; ++w) rt.pstore(words[w], ++value);
      rt.fase_end();
    }
    done.store(true, std::memory_order_release);
    scrub.join();
    const runtime::ScrubStats stats = rt.scrub_stats();
    EXPECT_GT(stats.passes, 0u);
    EXPECT_EQ(stats.checksum_mismatches, 0u)
        << "scrub hashed in-flight store bytes against a stale commit CRC";
    rt.destroy_storage();
  }
}

}  // namespace
}  // namespace nvc
