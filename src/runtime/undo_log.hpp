// Durable undo logging for failure-atomic sections.
//
// Atlas guarantees that upon a failure either all or none of a FASE's updates
// are visible in NVRAM (paper Section II-A). The mechanism is a per-thread
// persistent undo log: before data is overwritten inside a FASE, the old
// bytes are appended to the log; at the outermost FASE end the dirty data
// lines are flushed (by whichever caching policy is active) and the log is
// truncated, which is the atomic commit. Recovery after a crash rolls back
// any non-truncated records in reverse order, restoring the pre-FASE state.
//
// Two durability disciplines (LogSyncMode, DESIGN.md §7):
//
//   kStrict   every record() is made durable before it returns — two
//             flush+fence pairs per logged store (entry, then tail). This is
//             Atlas' protocol: the old-value entry is durable before the
//             in-place update can possibly reach NVRAM, sound even under
//             spontaneous hardware cache eviction.
//   kBatched  record() only appends; durability is enforced once per epoch
//             by sync() — a single flush of the dirty log range, one fence,
//             and one durable tail publish. The runtime orders sync()
//             before every software-issued data-line flush via
//             core::LogOrderedSink, which preserves the recovery invariant
//             under the simulated/shadow backends and eADR semantics (no
//             spontaneous eviction of dirty lines to NVRAM).
//
// Entries are *self-certifying*: each carries a check word mixing the
// address token, length, payload bytes, and the log generation. Recovery
// does not trust the tail beyond its durable value — it walks the entry
// chain forward and replays exactly the records whose check words validate
// against the current generation, so a tail that lags the appended entries
// (batched mode) still yields a sound rollback, and stale entries from a
// committed generation are never replayed. Rollback is the salvage
// pipeline's job (runtime/recovery.hpp), which reads segments through
// inspect().
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "core/log_ordered_sink.hpp"

namespace nvc::runtime {

/// When undo-log records become durable (see file comment).
enum class LogSyncMode : std::uint8_t {
  kStrict,   // per record: Atlas' protocol, the default
  kBatched,  // per epoch: one flush_range + fence at each sync point
};

/// Parse "strict" / "batched" (NVC_LOG_SYNC); empty for unknown.
std::optional<LogSyncMode> parse_log_sync_mode(std::string_view name);
const char* to_string(LogSyncMode mode);

/// One log segment: a fixed [base, base+size) slice of a persistent region.
/// Layout: a 64-byte header (magic + packed generation/tail state) followed
/// by entries, each [EntryHead][payload padded to 8].
class UndoLog final : public core::EpochLog {
 public:
  /// `base` must be 64-byte aligned; `size` covers header + payload.
  /// Durability traffic is issued through `sink` (the runtime passes a
  /// BackendSink over the per-thread log backend; crash tests pass a
  /// shadow-memory sink).
  UndoLog(void* base, std::size_t size, core::FlushSink* sink,
          LogSyncMode mode = LogSyncMode::kStrict);

  /// Format the segment as an empty, committed log (generation 1).
  void format();

  /// True if the header magic is valid (segment was formatted).
  bool valid() const;

  /// Append the current content of [addr, addr+len) as an undo record.
  /// kStrict: durable before returning. kBatched: durable at the next
  /// sync()/strict boundary. len <= kMaxPayload. `addr_token` is the
  /// position-independent token stored in the record (the caller maps
  /// pointers to region offsets).
  void record(std::uint64_t addr_token, const void* current_bytes,
              std::uint32_t len);

  /// Epoch boundary (core::EpochLog): make every appended record durable.
  /// O(1) no-op when nothing has been appended since the last sync.
  /// Returns false when the log media rejected a write-back: the pending
  /// entries (or the tail covering them) are NOT durable, synced state is
  /// unchanged, and callers must not flush data those entries cover.
  bool sync() override;

  /// Commit: truncate the log durably and advance the generation (the
  /// FASE's updates become permanent; stale entry bytes left in the segment
  /// no longer certify). A single flush+fence of the header word. Returns
  /// false when the header write-back failed: the generation does NOT
  /// advance (volatile and durable state are restored to the pre-commit
  /// view), so the FASE stays uncommitted and recovery would roll it back.
  ///
  /// An empty generation commits for free: when nothing was appended since
  /// format() or the last commit (synced or not), commit() writes nothing
  /// and returns true, leaving the generation as it is — the durable header
  /// already reads (gen, kHeaderSize) and nothing past it certifies, so
  /// every crash point recovers exactly as with the bump (DESIGN.md §7). A
  /// reopened segment's first commit always writes: entries a previous run
  /// appended past a torn gap may still certify under the inherited
  /// generation.
  bool commit();

  /// Graceful degradation latch: switch a batched log to strict, per-record
  /// durability. Callers sync() first so no appended entry is left behind
  /// under the old discipline. Irreversible by design.
  void degrade_to_strict() noexcept { mode_ = LogSyncMode::kStrict; }

  /// Reroute durability traffic (WritebackPath puts its retry layer over
  /// the sink the log was built with). Call before the first write.
  void set_sink(core::FlushSink* sink) noexcept { sink_ = sink; }

  /// Durable tail offset (kHeaderSize when empty/committed). In batched
  /// mode this lags appended_tail() until the next sync().
  std::uint64_t tail() const;
  std::uint64_t appended_tail() const noexcept { return appended_tail_; }

  std::size_t capacity() const noexcept { return size_; }
  std::uint64_t records() const noexcept { return records_; }
  std::uint64_t bytes_logged() const noexcept { return bytes_logged_; }
  /// Number of sync points that actually persisted pending entries — one
  /// per record in strict mode, one per epoch in batched mode.
  std::uint64_t sync_points() const noexcept { return sync_points_; }
  LogSyncMode mode() const noexcept { return mode_; }

  static constexpr std::uint32_t kMaxPayload = 256;
  static constexpr std::size_t kHeaderSize = kCacheLineSize;

  // The durable layout is public: the salvage-mode RecoveryManager and the
  // image fuzzer read (and deliberately corrupt) segments without an UndoLog
  // object, so they need the header/entry shapes and the state packing.
  struct LogHeader {
    std::uint64_t magic;
    std::uint64_t state;  // generation << 32 | tail (one atomic 8-byte word)
  };
  struct EntryHead {
    std::uint64_t addr_token;
    std::uint32_t len;
    std::uint32_t check;  // self-certifying word over token/len/gen/payload
  };
  static constexpr std::uint64_t kMagic = 0x4e5643554e444f4cULL;  // NVCUNDOL

  static std::uint64_t pack_state(std::uint32_t gen,
                                  std::uint64_t tail) noexcept {
    return (static_cast<std::uint64_t>(gen) << 32) | tail;
  }
  static std::uint32_t state_gen(std::uint64_t state) noexcept {
    return static_cast<std::uint32_t>(state >> 32);
  }
  static std::uint64_t state_tail(std::uint64_t state) noexcept {
    return state & 0xffffffffULL;
  }

  /// Self-certifying check word over token/len/generation/payload (FNV-1a
  /// via common/checksum.hpp; the mix order is the durable format).
  static std::uint32_t entry_check(std::uint64_t addr_token, std::uint32_t len,
                                   std::uint32_t gen,
                                   const void* payload) noexcept;

  /// Untrusted read of a raw log segment: never aborts, never reads outside
  /// [base, base+size). The salvage pipeline's view of a segment whose
  /// bytes may be arbitrary garbage.
  struct Inspection {
    bool formatted = false;        // header magic validates
    bool state_plausible = false;  // durable tail lands inside the segment
    bool tail_covered = false;     // certified chain reaches the durable tail
    std::uint32_t gen = 0;
    std::uint64_t durable_tail = 0;
    std::uint64_t certified_extent = 0;   // end offset of the certified chain
    std::vector<std::uint64_t> offsets;   // certified entries, oldest first
  };
  static Inspection inspect(const void* base, std::size_t size);

 private:
  LogHeader* header() const { return reinterpret_cast<LogHeader*>(base_); }
  bool persist(const void* p, std::size_t len);
  bool publish_state(std::uint32_t gen, std::uint64_t tail);

  char* base_;
  std::size_t size_;
  core::FlushSink* sink_;
  LogSyncMode mode_;
  std::uint32_t gen_ = 0;
  std::uint64_t appended_tail_ = kHeaderSize;  // includes unsynced entries
  std::uint64_t synced_tail_ = kHeaderSize;    // durable prefix
  bool inherited_gen_ = false;  // reopened, not yet committed (see commit())
  std::uint64_t records_ = 0;
  std::uint64_t bytes_logged_ = 0;
  std::uint64_t sync_points_ = 0;
};

}  // namespace nvc::runtime
