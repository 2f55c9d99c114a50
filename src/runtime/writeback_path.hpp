// One context's write-back route, composed in one place (DESIGN.md §8).
// Runtime's per-thread contexts and the crash rig's logical contexts both
// flush through a WritebackPath:
//
//   route() ─► LogOrderedSink (with a log) ─► ElidingSink (elision, async)
//           ─► AsyncFlushSink ─ ring ─► worker: make_worker_sink() stack
//                │ ring full
//                ▼
//           RetiringSink (elision) ─► FaultTolerantSink (faults) ─► medium
//
// Without a channel the route is the log-ordered retrying medium sink.
// With faults and a channel, maybe_degrade() swaps route() to a degraded
// route built up front: log order over the retrying synchronous sink,
// bypassing ring and elision (§10).
#pragma once

#include <cstdint>
#include <memory>

#include "common/types.hpp"
#include "core/elision.hpp"
#include "core/elision_sink.hpp"
#include "core/fault_sink.hpp"
#include "core/flush_pipeline.hpp"
#include "core/log_ordered_sink.hpp"
#include "pmem/fault.hpp"
#include "runtime/undo_log.hpp"

namespace nvc::runtime {

/// The retry schedule of the fault-tolerant layers, taken from the
/// (pmem-side) fault config so one surface controls both.
core::RetryPolicy retry_policy(const pmem::FaultConfig& fault) noexcept;

/// Worker-side stack for a FlushChannel: `issue` (the sink performing the
/// write-back) under retry/quarantine when `faults` is set, under a
/// RetiringSink when `elision` is set — outermost, so a line retires before
/// its write-back starts and before any retry. The stack shares ownership
/// of `faults` and `elision`: the channel owning it may outlive the context.
std::unique_ptr<core::FlushSink> make_worker_sink(
    std::unique_ptr<core::FlushSink> issue,
    std::shared_ptr<core::FaultStats> faults, core::RetryPolicy retry,
    std::shared_ptr<core::FlushElisionTable> elision);

class WritebackPath {
 public:
  struct Inputs {
    core::FlushSink* data = nullptr;      // the medium's sync data sink
    core::FlushSink* log_sink = nullptr;  // the medium's log sink
    /// Null runs without log ordering. With faults, the log is rerouted
    /// through a retry layer over `log_sink`.
    UndoLog* log = nullptr;
    /// Non-null arms retry/quarantine, both latches and commit suspension.
    std::shared_ptr<core::FaultStats> faults;
    core::RetryPolicy retry;
    /// Used only with a channel: synchronous flushing queues nothing, so
    /// there is nothing to dedup.
    std::shared_ptr<core::FlushElisionTable> elision;
    /// Already opened (worker side from make_worker_sink); null = sync.
    std::shared_ptr<core::FlushChannel> channel;
    core::FlushDeviceModel device;
  };

  explicit WritebackPath(Inputs in);

  WritebackPath(const WritebackPath&) = delete;
  WritebackPath& operator=(const WritebackPath&) = delete;

  /// The sink FASE traffic flows through right now.
  core::FlushSink& route() const noexcept { return *route_; }

  /// Write-after-enqueue hazard (§8/§13), run after the store's undo
  /// records and before its data write to lines [first, last]: if one of
  /// them may still be queued — in this context's ring, or (with elision)
  /// announced by any context — its pending write-back can carry the new
  /// bytes, so the records must be durable first. Requires a log.
  void before_store(LineAddr first, LineAddr last) {
    if (async_ == nullptr || (flush_degraded_ && elision_ == nullptr)) return;
    check_hazard(first, last);
  }

  /// Graceful-degradation latches (§10), both one-way: once quarantines or
  /// `degrade_after` transients are seen, async→sync (drain the ring, swap
  /// route() to the degraded route) and batched→strict log sync.
  void maybe_degrade(std::uint64_t degrade_after) {
    if (faults_ != nullptr) degrade(degrade_after);
  }

  /// Commit suspension: false from the first quarantine on. A quarantined
  /// line means some write-back of this context is permanently lost;
  /// committing would truncate the undo records still covering it, so the
  /// commit point stays pinned at the last good commit.
  bool commit_allowed() noexcept {
    if (!commit_suspended_ && faults_ != nullptr &&
        faults_->quarantined_count() > 0) {
      commit_suspended_ = true;
    }
    return !commit_suspended_;
  }

  const core::FaultStats* faults() const noexcept { return faults_.get(); }
  core::FlushChannel* channel() const noexcept { return channel_.get(); }
  bool flush_degraded() const noexcept { return flush_degraded_; }
  bool log_degraded() const noexcept { return log_degraded_; }
  bool commit_suspended() const noexcept { return commit_suspended_; }
  /// Write-backs the eliding stage skipped / re-flushed at a drain.
  std::uint64_t elided_count() const noexcept {
    return eliding_ != nullptr ? eliding_->elided_count() : 0;
  }
  std::uint64_t reflushed_count() const noexcept {
    return eliding_ != nullptr ? eliding_->reflushed_count() : 0;
  }

 private:
  void check_hazard(LineAddr first, LineAddr last);
  void degrade(std::uint64_t degrade_after);
  /// `inner` behind a log-ordering stage when there is a log.
  core::FlushSink* ordered(core::FlushSink* inner,
                           std::unique_ptr<core::LogOrderedSink>& slot);

  UndoLog* log_;
  std::shared_ptr<core::FaultStats> faults_;
  std::unique_ptr<core::FaultTolerantSink> retry_data_;
  std::unique_ptr<core::FaultTolerantSink> retry_log_;
  std::shared_ptr<core::FlushElisionTable> elision_;
  std::shared_ptr<core::FlushChannel> channel_;
  /// Elision: the ring-full fallback writes back on this thread, bypassing
  /// the worker-side RetiringSink, so it retires too — every owner path
  /// retires exactly once, whichever side performs the write.
  std::unique_ptr<core::RetiringSink> retiring_fallback_;
  /// Declared after the sinks it falls back to: its destructor drains the
  /// ring through them.
  std::unique_ptr<core::AsyncFlushSink> async_;
  std::unique_ptr<core::ElidingSink> eliding_;
  std::unique_ptr<core::LogOrderedSink> ordered_;
  std::unique_ptr<core::LogOrderedSink> ordered_sync_;
  core::FlushSink* route_ = nullptr;
  /// Degraded route (faults + channel only).
  core::FlushSink* degraded_ = nullptr;
  bool flush_degraded_ = false;
  bool log_degraded_ = false;
  bool commit_suspended_ = false;
};

}  // namespace nvc::runtime
