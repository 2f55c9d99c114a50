// Online scrubbing (DESIGN.md §14): a background pass that re-reads the
// persistent image while the runtime serves traffic, piggybacked on the
// flush-worker pool's idle hook (core::IdleTask): a slice runs each time a
// pool worker goes idle — after every doze-tick sweep, never inside an
// eviction storm's spin window.
//
// Each slice (one idle_step) does a bounded amount of work:
//
//   metadata — the heap header and the per-slot undo-log header magics are
//     checked against redundant copies: a DRAM mirror of the heap header the
//     Runtime refreshes under its allocation lock at every legitimate
//     mutation (so the mirror is authoritative by construction), and the
//     compile-time log magic constant. Detectably corrupt metadata is
//     *repaired* in place and counted.
//   data lines — a batch of NVC_SCRUB_BATCH lines is swept per slice:
//     lines the FaultInjector's persistent-fault model marks bad are
//     quarantined into the PR 5 FaultStats machinery (commit suspension and
//     HealthReport pick them up exactly as write-path quarantines), and —
//     when NVC_VERIFY_DATA is on — clean, committed lines are verified
//     against their commit-time CRC32C; mismatches are counted and reported
//     (data has no redundant copy to repair from; honesty over heroics).
//
// Thread-safety: slices self-serialize on a try-lock (two pool workers never
// scrub concurrently; a busy scrubber is simply skipped), the heap-header
// check runs under the Runtime's allocation lock so it can never race a
// legitimate mutation, and the verify table's dirty bits suppress checks on
// lines with in-flight stores.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.hpp"
#include "core/fault_sink.hpp"
#include "core/flush_pipeline.hpp"
#include "pmem/fault.hpp"
#include "pmem/wear.hpp"
#include "runtime/recovery.hpp"

namespace nvc::runtime {

struct ScrubConfig {
  /// Data lines re-read per idle slice (NVC_SCRUB_BATCH).
  std::size_t batch_lines = 64;
  /// Restore detectably corrupt metadata from redundant copies
  /// (NVC_SCRUB_REPAIR; off = detect and count only).
  bool repair_metadata = true;
};

struct ScrubStats {
  std::uint64_t slices = 0;          // idle steps that did work
  std::uint64_t passes = 0;          // full sweeps of the data region
  std::uint64_t lines_scanned = 0;
  std::uint64_t metadata_repairs = 0;
  std::uint64_t checksum_mismatches = 0;
  std::uint64_t media_quarantines = 0;
};

class Scrubber final : public core::IdleTask {
 public:
  Scrubber(ScrubConfig config, void* data, std::size_t data_size, void* logs,
           std::size_t log_segment_size, std::size_t log_segments);

  // --- wiring (all optional; call before the first slice) -------------------

  /// The owner's lock guarding heap-header mutations (Runtime's allocation
  /// mutex). Header checks/repairs run under it; without one the header
  /// phase is skipped (no way to exclude a racing legitimate mutation).
  void set_header_lock(std::mutex* lock) { header_lock_ = lock; }
  /// Commit-time data checksums (NVC_VERIFY_DATA).
  void set_verify_table(std::shared_ptr<const LineVerifyTable> table) {
    table_ = std::move(table);
  }
  /// Persistent-fault model: lines it marks bad are quarantined.
  void set_injector(std::shared_ptr<pmem::FaultInjector> injector) {
    injector_ = std::move(injector);
  }
  /// Quarantine destination (shared with the runtime's fault machinery).
  void set_fault_stats(std::shared_ptr<core::FaultStats> stats) {
    fault_stats_ = std::move(stats);
  }
  /// Endurance accounting: metadata repairs are media writes too.
  void set_wear(std::shared_ptr<pmem::WearTracker> wear) {
    wear_ = std::move(wear);
  }

  /// Owner hook: the heap header was legitimately mutated — refresh the
  /// mirror. MUST be called under the same lock passed to set_header_lock
  /// (the Runtime calls it from its allocation paths).
  void refresh_header_mirror();

  // --- execution ------------------------------------------------------------

  /// One bounded slice (core::IdleTask). Returns true when anything was
  /// scanned; false when another slice is already running.
  bool idle_step() override;

  /// Manual pump for tests/benchmarks: same slice as idle_step.
  bool step() { return idle_step(); }

  /// Stop scrubbing and wait out any in-flight slice. After this returns no
  /// step will touch the region again — the owner calls it before unmapping
  /// (a pool worker may hold a locked shared_ptr mid-slice; the weak_ptr
  /// expiring alone cannot interrupt that).
  void shutdown();

  ScrubStats stats() const;

 private:
  void scrub_metadata();
  void scrub_data_batch();

  const ScrubConfig config_;
  char* const data_;
  const std::size_t data_size_;
  char* const logs_;
  const std::size_t log_segment_size_;
  const std::size_t log_segments_;

  std::mutex* header_lock_ = nullptr;
  std::shared_ptr<const LineVerifyTable> table_;
  std::shared_ptr<pmem::FaultInjector> injector_;
  std::shared_ptr<core::FaultStats> fault_stats_;
  std::shared_ptr<pmem::WearTracker> wear_;

  /// Serializes slices across pool workers (try-lock: a busy scrubber is
  /// skipped, never waited on).
  std::mutex slice_mutex_;
  std::atomic<bool> stopped_{false};
  /// Heap-header mirror (refreshed by the owner under header_lock_).
  std::vector<char> header_mirror_;
  bool mirror_valid_ = false;

  std::size_t cursor_ = 0;  // next data line to scan (under slice_mutex_)
  std::atomic<std::uint64_t> slices_{0};
  std::atomic<std::uint64_t> passes_{0};
  std::atomic<std::uint64_t> lines_scanned_{0};
  std::atomic<std::uint64_t> metadata_repairs_{0};
  std::atomic<std::uint64_t> checksum_mismatches_{0};
  std::atomic<std::uint64_t> media_quarantines_{0};
};

}  // namespace nvc::runtime
