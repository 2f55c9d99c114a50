// Salvage-mode recovery (DESIGN.md §14).
//
// Before this module, recovery *trusted* the durable image: Runtime::recover
// rebuilt UndoLog objects over the log region, and any byte pattern the
// validation asserts didn't expect aborted the process. That is the wrong
// contract for the one code path whose whole job is reading a possibly
// half-written, bit-rotted, or truncated image. RecoveryManager treats the
// image as hostile input and runs a staged pipeline:
//
//   1. validate region   — heap header magic/version/seal/bump plausibility
//                          (PmemAllocator::inspect; clean-shutdown fast path)
//   2. walk logs         — per-segment UndoLog::inspect: every record is
//                          re-certified against its check word; nothing is
//                          trusted past the first failure
//   3. replay undo       — certified records applied newest-first with the
//                          target range bounds-checked against the data
//                          region; unrecoverable segments are reformatted
//                          only after their defects are reported
//   4. verify result     — optional per-line CRC32C check of the data image
//                          against commit-time checksums (NVC_VERIFY_DATA)
//
// No stage ever aborts or UBs on arbitrary bytes: every corruption is
// *classified* into the RecoveryReport (clean / salvaged / unrecoverable,
// with per-segment outcomes and human-readable defect strings) and the image
// is rolled back to the last verifiable commit. "Unrecoverable" is an honest
// answer — it is how the pipeline guarantees it never hands back silently
// wrong data.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/write_cache.hpp"
#include "runtime/health.hpp"

namespace nvc::runtime {

/// Commit-granularity data-line checksums (NVC_VERIFY_DATA). One slot per
/// cache line of the data region packing known|dirty|CRC32C into a single
/// atomic word. Committing threads publish a line's checksum at FASE end;
/// lines mid-mutation carry the dirty bit so the scrubber and the verify
/// stage never flag a legitimately in-flight line. Volatile by design: it is
/// rebuilt as FASEs commit, and crash tests supply their own table built
/// from committed snapshots (modeling a persisted checksum arena).
class LineVerifyTable {
 public:
  explicit LineVerifyTable(std::size_t region_bytes)
      : slots_((region_bytes + kCacheLineSize - 1) / kCacheLineSize) {}

  std::size_t lines() const noexcept { return slots_.size(); }

  /// A store touched this line inside (or outside) a FASE: suppress checks
  /// until the next commit publishes a fresh checksum. Call it *before*
  /// writing the line: the release fence orders the mark ahead of the
  /// store's bytes, so a verify() that hashed any of them sees the mark.
  void mark_dirty(std::size_t idx) noexcept {
    if (idx < slots_.size()) {
      slots_[idx].fetch_or(kDirty, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_release);
    }
  }

  /// Commit point: publish the checksum of the line's committed content and
  /// clear the dirty bit.
  void note_commit(std::size_t idx, const void* line_bytes) noexcept;

  /// True when the line has a published checksum and no in-flight store.
  bool checkable(std::size_t idx) const noexcept {
    if (idx >= slots_.size()) return false;
    const std::uint64_t v = slots_[idx].load(std::memory_order_acquire);
    return (v & kKnown) != 0 && (v & kDirty) == 0;
  }

  /// Verify the line's current bytes; true = pass (or not checkable). The
  /// slot is re-read after hashing, seqlock-style: a line whose slot moved
  /// meanwhile (a store marked it dirty, or a commit republished it) is not
  /// checkable, so bytes torn by a concurrent store never count as corrupt.
  bool verify(std::size_t idx, const void* line_bytes) const noexcept;

 private:
  static constexpr std::uint64_t kKnown = 1ull << 32;
  static constexpr std::uint64_t kDirty = 1ull << 33;

  std::vector<std::atomic<std::uint64_t>> slots_;
};

/// What became of one undo-log segment during salvage.
enum class SegmentOutcome : std::uint8_t {
  kClean,          // committed log; nothing to replay
  kRolledBack,     // certified records replayed, FASE rolled back
  kStillborn,      // never formatted (all-zero slot); harmless
  kUnrecoverable,  // corruption ate state the image depended on
};

const char* to_string(SegmentOutcome outcome);
const char* to_string(RecoveryOutcome outcome);

struct SegmentReport {
  std::size_t slot = 0;
  SegmentOutcome outcome = SegmentOutcome::kClean;
  std::uint32_t generation = 0;
  std::size_t records_certified = 0;  // records that passed their check word
  std::size_t records_applied = 0;    // records actually replayed
  std::string detail;                 // one-line diagnostic (empty = fine)
};

/// The classified result of a salvage pass. `outcome` is the headline:
/// kClean (nothing to do / clean shutdown), kSalvaged (uncommitted FASEs
/// rolled back to their last verifiable commit), kUnrecoverable (corruption
/// destroyed state the all-or-nothing contract depends on — the surviving
/// image must not be trusted as committed data).
struct RecoveryReport {
  RecoveryOutcome outcome = RecoveryOutcome::kClean;
  bool clean_shutdown = false;  // valid heap seal short-circuited the walk
  bool heap_header_ok = false;
  bool heap_bump_plausible = false;
  std::size_t records_undone = 0;
  std::size_t segments_clean = 0;
  std::size_t segments_rolled_back = 0;
  std::size_t segments_stillborn = 0;
  std::size_t segments_unrecoverable = 0;
  std::size_t data_lines_failed_verify = 0;
  std::vector<SegmentReport> segments;
  /// Every corruption the pipeline classified, human-readable.
  std::vector<std::string> defects;

  bool ok() const noexcept {
    return outcome != RecoveryOutcome::kUnrecoverable;
  }
  /// One-line operator summary.
  std::string summary() const;
};

/// Raw-memory view of a persistent image: the manager never owns mappings,
/// so the Runtime (live regions) and the crash/corruption rigs (frozen
/// ShadowPmem images) share one implementation.
struct RegionView {
  void* data = nullptr;             // data region base (heap header at 0)
  std::size_t data_size = 0;
  void* logs = nullptr;             // log region base; null = no undo logs
  std::size_t log_segment_size = 0;
  std::size_t log_segments = 0;
  /// False for images whose data region is raw cells with no PmemAllocator
  /// header at offset 0 (the crash rig's shadow images): stage 1 is skipped
  /// and the region's recoverability rides on the log walk alone.
  bool heap_header = true;
  /// Optional durability sink for the bytes recovery mutates (rollback
  /// writes, log reformats). Null = mutate the mapping only (fuzzer mode,
  /// where the image is already a frozen copy).
  core::FlushSink* sink = nullptr;
};

class RecoveryManager {
 public:
  explicit RecoveryManager(RegionView view) : view_(view) {}

  /// Stage-4 data verification against commit-time checksums (optional).
  void set_verify_table(const LineVerifyTable* table) { table_ = table; }

  /// Seeded bug for the corruption fuzzer (test_recovery_fuzz): skip all
  /// checksum verification — records are trusted on their length fields
  /// alone and the data-verify stage is bypassed. This is the classic
  /// recovery bug class (a "fast path" that stops validating); the fuzzer
  /// proves the harness catches it, i.e. that corrupted images now produce
  /// silently wrong data with a clean report.
  void set_bug_skip_verification(bool on) { bug_skip_verification_ = on; }

  /// True when any log segment holds work for run(): uncommitted certified
  /// records, or corruption that salvage must classify/repair.
  bool needs_recovery() const;

  /// Run the full pipeline (see file comment). Mutates the image: certified
  /// uncommitted records are rolled back and committed, unrecoverable
  /// segments are reformatted (after reporting) so the region reopens.
  RecoveryReport run();

 private:
  void salvage_segment(std::size_t slot, RecoveryReport& report);
  void verify_data(RecoveryReport& report);
  void note_defect(RecoveryReport& report, std::string text);
  /// Persist [p, p+len) through the view's sink, if any.
  void persist(const void* p, std::size_t len);

  RegionView view_;
  const LineVerifyTable* table_ = nullptr;
  bool bug_skip_verification_ = false;
};

}  // namespace nvc::runtime
