// Reusable freeze/restart rig for crash-consistency tests (DESIGN.md §9).
//
// A driver over shipped runtime code: each logical context is a
// runtime::FaseContext — the FASE protocol Runtime runs, over the same
// WritebackPath composition — whose data region and log segment both live
// inside one pmem::ShadowPmem image. The power-cut model is the image's
// own event clock: every pstore and every attempted line flush (data or log
// path) claims the next event index atomically with its copy, and
// freeze_at(e) models power failing at that instant — flushes that claim a
// later index are dropped, exactly as write-backs still in flight at a
// power cut never persist (the gapless burst racing the cut may land torn
// when an injector is attached). recovered_data() then restarts from the
// durable image, runs the runtime's salvage pipeline (RecoveryManager) over
// it, and returns what a restarted process would see — the caller checks it
// against the set of committed states.
//
// What the rig adds around the shipped protocol:
//
//   * several logical contexts (runtime threads), each with a private data
//     region, policy, and log segment, sharing the image and its clock;
//   * byte-granularity pstores of any size/alignment into the shadow image;
//   * a *deterministic* flush-behind mode (manual_pipeline): the ring is
//     never served by the background worker — queued write-backs run only
//     when the test's virtual scheduler calls pump_flush() — so the whole
//     interleaving replays from a seed on one OS thread;
//   * an online-sampling policy mode with synchronous or manual-async burst
//     analysis (pump_analysis()), covering the analysis axis of the
//     mode matrix.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/policy.hpp"
#include "pmem/fault.hpp"
#include "pmem/shadow.hpp"
#include "runtime/fase_context.hpp"

namespace nvc::testing {

struct CrashRigConfig {
  runtime::LogSyncMode mode = runtime::LogSyncMode::kStrict;
  /// Flush-behind pipeline in the data path (ring + AsyncFlushSink).
  bool async_flush = false;
  /// With async_flush: open a manual channel the background worker never
  /// sweeps; queued lines are written back only by pump_flush() and by the
  /// helping drain. Deterministic — the fuzzer's configuration.
  bool manual_pipeline = false;
  /// SC online policy (bursty sampling + knee-selected resizes at FASE
  /// boundaries) instead of SC-offline at a fixed size.
  bool online_policy = false;
  /// With online_policy: hand burst analysis to a manual channel, run only
  /// by pump_analysis() (deterministic async analysis). Without it the
  /// analysis runs synchronously inside the completing on_store().
  bool async_analysis = false;

  std::size_t contexts = 1;
  std::size_t data_lines = 8;         // per-context data region, in lines
  std::size_t log_bytes = 32u << 10;  // per-context log segment
  std::size_t cache_size = 2;  // tiny: mid-FASE evictions => many epochs
  std::size_t flush_ring = 8;  // small: overflow fallback gets exercised

  /// Media-fault dimension: when enabled(), the rig owns a FaultInjector
  /// attached to the shadow image, arms each WritebackPath's retry/
  /// quarantine layer (the config's RetryPolicy fields), degradation
  /// latches and commit suspension, and lets write-backs racing the power
  /// cut land torn. Decisions derive from fault.seed, so runs replay.
  pmem::FaultConfig fault;
  /// Max lines of the write-back burst racing the power cut that may land
  /// torn/dropped (the modeled write-queue depth; see
  /// pmem::ShadowPmem::set_tear_burst).
  std::size_t tear_burst = 8;
  /// Online sampler knobs (scaled down so short scripts complete bursts).
  std::uint64_t burst_length = 48;
  std::uint64_t hibernation_length = 32;
  /// Write-admission dimension (DESIGN.md §12): bypassed stores write
  /// through the same LogOrderedSink route as evictions, so the durability
  /// oracle must hold unchanged under every mode. kReuse attaches only in
  /// online_policy configurations (make_policy's rule).
  core::AdmitMode admission = core::AdmitMode::kAlways;

  /// Flush-elision dimension (DESIGN.md §13): one FlushElisionTable shared
  /// by all contexts' WritebackPaths. It elides only with async_flush (a
  /// synchronous path has no eliding stage). The durability oracle
  /// must hold unchanged: elision may only drop write-backs whose bytes an
  /// already-scheduled write-back carries, and the commit-point drain
  /// re-flushes elided lines still pending.
  bool elide = false;
  /// Checker-validation hook: arm FlushElisionTable::set_bug_revert_retire
  /// on the rig's table, the "reverted flush-pending decrement". The fuzz
  /// harness must catch it (quiescence invariant / durability oracle).
  bool elide_bug_revert_retire = false;
};

class CrashRig {
 public:
  explicit CrashRig(const CrashRigConfig& config);
  ~CrashRig();

  CrashRig(const CrashRig&) = delete;
  CrashRig& operator=(const CrashRig&) = delete;

  // --- script surface (mirrors the Runtime API) ----------------------------

  void fase_begin(std::size_t ctx = 0);
  /// Returns true when the outermost end committed the FASE durably; false
  /// for inner ends, suspended commits (quarantine), and failed commits —
  /// the caller's oracle bookkeeping must not advance its committed
  /// snapshot on false.
  bool fase_end(std::size_t ctx = 0);

  /// Instrumented persistent store of `len` bytes at byte offset `addr` of
  /// context `ctx`'s data region. Must be inside a FASE.
  void pstore(std::size_t ctx, PmAddr addr, const void* bytes,
              std::size_t len);

  void pstore_u64(std::size_t ctx, std::size_t cell, std::uint64_t value) {
    pstore(ctx, cell * sizeof(std::uint64_t), &value, sizeof value);
  }

  /// Report-only store (Runtime::pwrote): the bytes land and their lines
  /// reach the policy, but no undo record is logged — nothing rolls them
  /// back. Must be inside a FASE.
  void pwrote(std::size_t ctx, PmAddr addr, const void* bytes,
              std::size_t len);

  void pwrote_u64(std::size_t ctx, std::size_t cell, std::uint64_t value) {
    pwrote(ctx, cell * sizeof(std::uint64_t), &value, sizeof value);
  }

  /// Mid-FASE persistence barrier: flush everything the context's policy
  /// has buffered, without signalling a FASE boundary.
  void persist_barrier(std::size_t ctx = 0);

  // --- virtual-scheduler hooks (manual modes) ------------------------------

  /// Write back one queued line of `ctx`'s flush ring, if any (true when a
  /// line was flushed). No-op without a flush channel. `worker` is the
  /// virtual pool-worker index the simulated schedule charges the flush to
  /// (attribution only — the rig stays single-threaded deterministic).
  bool pump_flush(std::size_t ctx = 0, std::size_t worker = 0);

  /// Run one handed-off burst analysis of `ctx`'s sampler, if any (true
  /// when a job ran). No-op unless async_analysis. `worker` as above.
  bool pump_analysis(std::size_t ctx = 0, std::size_t worker = 0);

  // --- crash injection ------------------------------------------------------

  /// Power fails once `events()` reaches `event`: later flushes are lost.
  void freeze_at(std::uint64_t event) { shadow_.freeze_at(event); }
  std::uint64_t events() const { return shadow_.events(); }

  /// Restart after the (frozen) power failure: reload from the durable
  /// image, run the salvage pipeline over every context's log segment
  /// (persisting the rolled-back bytes), and return the durable data region
  /// of `ctx` a restarted process would see. Recovery runs once; later
  /// calls return slices of the same recovered image.
  std::vector<std::uint8_t> recovered_data(std::size_t ctx = 0);

  /// Durable bytes of `ctx`'s data region, no crash/recovery.
  std::vector<std::uint8_t> durable_data(std::size_t ctx = 0) const;

  /// The entire durable image — all data regions followed by all log
  /// segments — with no crash/recovery applied. The corruption fuzzer
  /// freezes a run, snapshots this, mutates it, and hands it to the
  /// salvage pipeline (see image_data_offset/image_log_offset for layout).
  std::vector<std::uint8_t> durable_image() const;
  /// Byte offset of `ctx`'s data region within durable_image().
  PmAddr image_data_offset(std::size_t ctx) const noexcept {
    return data_offset(ctx);
  }
  /// Byte offset of `ctx`'s log segment within durable_image().
  PmAddr image_log_offset(std::size_t ctx) const noexcept {
    return log_offset(ctx);
  }
  std::size_t log_bytes() const noexcept { return config_.log_bytes; }

  // --- counters -------------------------------------------------------------

  std::uint64_t data_flushes() const noexcept;  // summed over contexts
  std::uint64_t log_fences() const noexcept;
  /// Stores written through by the admission filter (summed over contexts).
  std::uint64_t bypassed_stores() const noexcept;
  /// Elision dimension: write-backs skipped / drain re-flushes (summed).
  std::uint64_t elided_flushes() const noexcept;
  std::uint64_t elision_reflushes() const noexcept;
  const core::FlushElisionTable* elision_table() const noexcept {
    return elision_.get();
  }

  std::size_t contexts() const noexcept { return contexts_.size(); }
  std::size_t data_bytes() const noexcept {
    return config_.data_lines * kCacheLineSize;
  }

  // --- fault/health surface (mirrors runtime::HealthReport) ----------------

  const pmem::FaultInjector* injector() const noexcept {
    return injector_.get();
  }
  const core::FaultStats& fault_stats(std::size_t ctx = 0) const;
  bool flush_degraded(std::size_t ctx = 0) const;
  bool log_degraded(std::size_t ctx = 0) const;
  bool commit_suspended(std::size_t ctx = 0) const;
  std::uint64_t torn_flushes() const noexcept { return shadow_.torn_flushes(); }

 private:
  struct ShadowSink;
  struct Context;

  PmAddr data_offset(std::size_t ctx) const noexcept {
    return ctx * data_bytes();
  }
  PmAddr log_offset(std::size_t ctx) const noexcept {
    return config_.contexts * data_bytes() + ctx * config_.log_bytes;
  }

  void recover_all();

  CrashRigConfig config_;
  pmem::ShadowPmem shadow_;
  std::unique_ptr<pmem::FaultInjector> injector_;  // null when faults off
  /// Elision dimension (null when config_.elide is off). Shared with the
  /// worker side of each context's FlushChannel.
  std::shared_ptr<core::FlushElisionTable> elision_;
  LineAddr log_shift_;  // pointer-line -> shadow-offset-line translation
  bool recovered_ = false;
  std::vector<std::unique_ptr<Context>> contexts_;
};

}  // namespace nvc::testing
