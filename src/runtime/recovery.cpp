#include "runtime/recovery.hpp"

#include <algorithm>
#include <cstring>

#include "common/checksum.hpp"
#include "pmem/pmem_alloc.hpp"
#include "runtime/undo_log.hpp"

namespace nvc::runtime {

namespace {

/// Records replayed in bug-skip mode trust length fields alone: walk the
/// segment accepting any in-bounds entry shape without certifying a single
/// check word. This is the seeded verification-skip bug the corruption
/// fuzzer must catch — it replays whatever bytes the image holds.
std::vector<std::uint64_t> trusting_walk(const char* seg, std::size_t size) {
  std::vector<std::uint64_t> offsets;
  std::uint64_t off = UndoLog::kHeaderSize;
  while (off + sizeof(UndoLog::EntryHead) <= size) {
    UndoLog::EntryHead head;
    std::memcpy(&head, seg + off, sizeof(head));
    if (head.len < 1 || head.len > UndoLog::kMaxPayload) break;
    const std::uint64_t entry_size =
        sizeof(UndoLog::EntryHead) + align_up(head.len, 8);
    if (off + entry_size > size) break;
    offsets.push_back(off);
    off += entry_size;
  }
  return offsets;
}

bool header_all_zero(const char* seg, std::size_t size) {
  const std::size_t probe = std::min(size, sizeof(UndoLog::LogHeader));
  for (std::size_t i = 0; i < probe; ++i) {
    if (seg[i] != 0) return false;
  }
  return true;
}

}  // namespace

void LineVerifyTable::note_commit(std::size_t idx,
                                  const void* line_bytes) noexcept {
  if (idx >= slots_.size()) return;
  const std::uint64_t v = kKnown | crc32c(line_bytes, kCacheLineSize);
  slots_[idx].store(v, std::memory_order_release);
}

bool LineVerifyTable::verify(std::size_t idx,
                             const void* line_bytes) const noexcept {
  if (idx >= slots_.size()) return true;
  const std::uint64_t v = slots_[idx].load(std::memory_order_acquire);
  if ((v & kKnown) == 0 || (v & kDirty) != 0) return true;
  const std::uint32_t crc = crc32c(line_bytes, kCacheLineSize);
  // Pairs with mark_dirty's release fence: if the hash read any byte of a
  // store that began after the load above, the re-read sees its dirty mark.
  std::atomic_thread_fence(std::memory_order_acquire);
  if (slots_[idx].load(std::memory_order_relaxed) != v) return true;
  return static_cast<std::uint32_t>(v) == crc;
}

const char* to_string(SegmentOutcome outcome) {
  switch (outcome) {
    case SegmentOutcome::kClean:
      return "clean";
    case SegmentOutcome::kRolledBack:
      return "rolled-back";
    case SegmentOutcome::kStillborn:
      return "stillborn";
    case SegmentOutcome::kUnrecoverable:
      return "unrecoverable";
  }
  return "?";
}

const char* to_string(RecoveryOutcome outcome) {
  switch (outcome) {
    case RecoveryOutcome::kClean:
      return "clean";
    case RecoveryOutcome::kSalvaged:
      return "salvaged";
    case RecoveryOutcome::kUnrecoverable:
      return "unrecoverable";
  }
  return "?";
}

std::string RecoveryReport::summary() const {
  std::string s = "recovery: ";
  s += to_string(outcome);
  if (clean_shutdown) s += " (clean shutdown seal)";
  s += ", " + std::to_string(records_undone) + " records undone, ";
  s += std::to_string(segments_rolled_back) + " rolled back / " +
       std::to_string(segments_unrecoverable) + " unrecoverable of " +
       std::to_string(segments.size()) + " segments";
  if (data_lines_failed_verify > 0) {
    s += ", " + std::to_string(data_lines_failed_verify) +
         " data lines failed verification";
  }
  if (!defects.empty()) {
    s += ", " + std::to_string(defects.size()) + " defects";
  }
  return s;
}

void RecoveryManager::note_defect(RecoveryReport& report, std::string text) {
  report.defects.push_back(std::move(text));
}

void RecoveryManager::persist(const void* p, std::size_t len) {
  if (view_.sink == nullptr || len == 0) return;
  const auto addr = reinterpret_cast<PmAddr>(p);
  const LineAddr first = line_of(addr);
  const LineAddr last = line_of(addr + len - 1);
  for (LineAddr line = first; line <= last; ++line) {
    view_.sink->flush_line(line);
  }
  view_.sink->drain();
}

bool RecoveryManager::needs_recovery() const {
  if (view_.logs == nullptr) return false;
  const char* logs = static_cast<const char*>(view_.logs);
  for (std::size_t s = 0; s < view_.log_segments; ++s) {
    const char* seg = logs + s * view_.log_segment_size;
    if (header_all_zero(seg, view_.log_segment_size)) continue;
    const UndoLog::Inspection ins =
        UndoLog::inspect(seg, view_.log_segment_size);
    // Corruption needs salvage just as much as uncommitted records do: a
    // destroyed magic, an implausible tail, or a chain that stops short of
    // the durable tail all require run() to classify and repair.
    if (!ins.formatted || !ins.state_plausible || !ins.tail_covered) {
      return true;
    }
    if (ins.durable_tail > UndoLog::kHeaderSize || !ins.offsets.empty()) {
      return true;
    }
  }
  return false;
}

void RecoveryManager::salvage_segment(std::size_t slot,
                                      RecoveryReport& report) {
  char* seg = static_cast<char*>(view_.logs) + slot * view_.log_segment_size;
  const std::size_t seg_size = view_.log_segment_size;

  SegmentReport sr;
  sr.slot = slot;

  if (header_all_zero(seg, seg_size)) {
    // Never formatted: a thread slot that was never claimed (or a fresh
    // region). Nothing could have been logged, so nothing is lost.
    sr.outcome = SegmentOutcome::kStillborn;
    ++report.segments_stillborn;
    report.segments.push_back(std::move(sr));
    return;
  }

  UndoLog::Inspection ins = UndoLog::inspect(seg, seg_size);
  sr.generation = ins.gen;

  bool reformat = false;
  if (!ins.formatted) {
    sr.outcome = SegmentOutcome::kUnrecoverable;
    sr.detail = "log header magic destroyed; any covered FASE is lost";
    reformat = true;
  } else if (!ins.state_plausible) {
    sr.outcome = SegmentOutcome::kUnrecoverable;
    sr.detail = "state word implausible (durable tail " +
                std::to_string(ins.durable_tail) + " outside segment of " +
                std::to_string(seg_size) + " bytes)";
    reformat = true;
  } else {
    std::vector<std::uint64_t> offsets = std::move(ins.offsets);
    bool tail_covered = ins.tail_covered;
    if (bug_skip_verification_) {
      offsets = trusting_walk(seg, seg_size);
      tail_covered = true;  // the bug: trust whatever the image says
    }
    sr.records_certified = offsets.size();

    // Replay the verifiable records newest-first. Tokens are bounds-checked
    // against the data region even though they sit under the check word: a
    // shrunken (truncated) region legitimately invalidates old tokens, and
    // writing through one would corrupt unrelated memory.
    char* data = static_cast<char*>(view_.data);
    for (auto it = offsets.rbegin(); it != offsets.rend(); ++it) {
      UndoLog::EntryHead head;
      std::memcpy(&head, seg + *it, sizeof(head));
      if (head.addr_token + head.len > view_.data_size) {
        sr.detail = "record at offset " + std::to_string(*it) +
                    " targets bytes outside the data region (token " +
                    std::to_string(head.addr_token) + ")";
        sr.outcome = SegmentOutcome::kUnrecoverable;
        reformat = true;
        continue;
      }
      std::memcpy(data + head.addr_token, seg + *it + sizeof(head), head.len);
      persist(data + head.addr_token, head.len);
      ++sr.records_applied;
    }

    if (sr.records_applied > 0) {
      // The rollback's commit point: de-certify the replayed generation in
      // one 8-byte power-fail-atomic store, exactly as UndoLog::commit.
      UndoLog::LogHeader head;
      std::memcpy(&head, seg, sizeof(head));
      head.state = UndoLog::pack_state(ins.gen + 1, UndoLog::kHeaderSize);
      std::memcpy(seg, &head, sizeof(head));
      persist(seg, sizeof(head));
    }

    if (!tail_covered) {
      sr.outcome = SegmentOutcome::kUnrecoverable;
      sr.detail = "certified chain ends at offset " +
                  std::to_string(ins.certified_extent) +
                  ", short of durable tail " +
                  std::to_string(ins.durable_tail) +
                  "; synced records were corrupted and their undo bytes are "
                  "lost";
      reformat = true;
    } else if (sr.outcome != SegmentOutcome::kUnrecoverable) {
      sr.outcome = sr.records_applied > 0 ? SegmentOutcome::kRolledBack
                                          : SegmentOutcome::kClean;
    }
  }

  if (reformat) {
    // Report first (above), then make the slot reusable: a fresh committed
    // header two generations ahead, so no stale byte pattern left in the
    // segment can certify against the new generation.
    UndoLog::LogHeader head;
    head.magic = UndoLog::kMagic;
    head.state = UndoLog::pack_state(ins.formatted ? ins.gen + 2 : 1,
                                     UndoLog::kHeaderSize);
    std::memcpy(seg, &head, sizeof(head));
    persist(seg, sizeof(head));
  }

  switch (sr.outcome) {
    case SegmentOutcome::kClean:
      ++report.segments_clean;
      break;
    case SegmentOutcome::kRolledBack:
      ++report.segments_rolled_back;
      break;
    case SegmentOutcome::kStillborn:
      ++report.segments_stillborn;
      break;
    case SegmentOutcome::kUnrecoverable:
      ++report.segments_unrecoverable;
      break;
  }
  report.records_undone += sr.records_applied;
  if (!sr.detail.empty()) {
    note_defect(report,
                "log segment " + std::to_string(slot) + ": " + sr.detail);
  }
  report.segments.push_back(std::move(sr));
}

void RecoveryManager::verify_data(RecoveryReport& report) {
  if (table_ == nullptr || bug_skip_verification_) return;
  const char* data = static_cast<const char*>(view_.data);
  const std::size_t lines =
      std::min(table_->lines(), view_.data_size / kCacheLineSize);
  constexpr std::size_t kMaxDetailed = 8;
  for (std::size_t idx = 0; idx < lines; ++idx) {
    if (table_->verify(idx, data + idx * kCacheLineSize)) continue;
    ++report.data_lines_failed_verify;
    if (report.data_lines_failed_verify <= kMaxDetailed) {
      note_defect(report, "data line " + std::to_string(idx) +
                              " fails its commit-time checksum");
    }
  }
  if (report.data_lines_failed_verify > kMaxDetailed) {
    std::string more = "(";
    more += std::to_string(report.data_lines_failed_verify - kMaxDetailed);
    more += " more data lines fail verification)";
    note_defect(report, std::move(more));
  }
}

RecoveryReport RecoveryManager::run() {
  RecoveryReport report;

  // Stage 1: validate the heap header. A destroyed header does not stop the
  // log walk — committed data lines are still restored to their last
  // verifiable commit — but the region as a whole is unrecoverable: the
  // root pointer and allocator state can no longer be trusted. Headerless
  // views (crash-rig shadow images) skip the stage.
  if (view_.heap_header) {
    const pmem::PmemAllocator::HeaderStatus heap =
        pmem::PmemAllocator::inspect(view_.data, view_.data_size);
    report.heap_header_ok = heap.magic_ok && heap.version_ok;
    report.heap_bump_plausible = heap.bump_plausible;
    report.clean_shutdown = heap.seal_valid;
    if (!heap.magic_ok) {
      note_defect(report, "heap header magic destroyed");
    } else if (!heap.version_ok) {
      note_defect(report, "heap layout version mismatch (found " +
                              std::to_string(heap.version) + ", want " +
                              std::to_string(pmem::PmemAllocator::kVersion) +
                              ")");
    } else if (!heap.bump_plausible) {
      note_defect(report, "heap bump frontier implausible (" +
                              std::to_string(heap.bump) + " of " +
                              std::to_string(view_.data_size) + " bytes)");
    }
    if (heap.sealed && !heap.seal_valid) {
      note_defect(report,
                  "clean-shutdown seal present but its checksum does not "
                  "match the header bytes");
    }
  } else {
    report.heap_header_ok = true;
    report.heap_bump_plausible = true;
  }

  // Stages 2+3: walk and salvage every log segment.
  if (view_.logs != nullptr) {
    for (std::size_t s = 0; s < view_.log_segments; ++s) {
      salvage_segment(s, report);
    }
  }

  // Stage 4: verify the resulting data image against commit-time checksums.
  verify_data(report);

  const bool unrecoverable = !report.heap_header_ok ||
                             !report.heap_bump_plausible ||
                             report.segments_unrecoverable > 0 ||
                             report.data_lines_failed_verify > 0;
  if (unrecoverable) {
    report.outcome = RecoveryOutcome::kUnrecoverable;
  } else if (report.segments_rolled_back > 0) {
    report.outcome = RecoveryOutcome::kSalvaged;
  } else {
    report.outcome = RecoveryOutcome::kClean;
  }
  // A valid seal only means the *header* was quiescent at shutdown; log or
  // data corruption found above still overrides the clean verdict.
  report.clean_shutdown =
      report.clean_shutdown && report.outcome == RecoveryOutcome::kClean;
  return report;
}

}  // namespace nvc::runtime
