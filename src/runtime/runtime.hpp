// The FASE runtime: the piece Atlas implements with an LLVM pass plus a
// runtime library. Our LLVM-pass substitution (see DESIGN.md) is an explicit
// instrumentation API with identical semantics:
//
//   Runtime rt(config);
//   {
//     FaseScope fase(rt);              // lock-acquire in Atlas terms
//     rt.pstore(&node->next, value);   // instrumented persistent store
//   }                                  // FASE end: policy flush + log commit
//
// Responsibilities:
//   * owns the persistent data region and heap (pmem::PmemAllocator);
//   * maintains one ThreadContext per thread: flush backends plus a
//     FaseContext (runtime/fase_context.hpp) holding the caching policy
//     instance, undo-log segment and write-back path — all thread-private,
//     lock-free on the hot path (paper Section II-B);
//   * FASE nesting: only outermost begin/end reach the policy and the log
//     commit (a FASE is lock-scoped and may nest, unlike a transaction);
//   * durable undo logging + recovery for failure atomicity;
//   * aggregation of per-thread statistics for the benchmark harness.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/elision.hpp"
#include "core/fault_sink.hpp"
#include "core/policy.hpp"
#include "pmem/fault.hpp"
#include "pmem/flush.hpp"
#include "pmem/pmem_alloc.hpp"
#include "pmem/pmem_region.hpp"
#include "runtime/health.hpp"
#include "runtime/recovery.hpp"
#include "runtime/undo_log.hpp"

namespace nvc::runtime {

class Scrubber;
struct ScrubStats;

struct RuntimeConfig {
  std::string region_name = "default";
  std::size_t region_size = 64u << 20;  // data region bytes
  /// If false, open an existing region (recovery / restart path).
  bool fresh = true;

  core::PolicyKind policy = core::PolicyKind::kSoftCache;
  core::PolicyConfig policy_config;

  pmem::FlushKind flush = pmem::default_flush_kind();
  std::uint32_t simulated_flush_ns = 100;

  /// Flush-behind pipeline (NVC_FLUSH_ASYNC=1): data-line write-backs are
  /// enqueued to the shared background FlushWorker instead of executing on
  /// the application thread; commit points (drain) wait on a completion
  /// ticket. Synchronous flushing stays the default (DESIGN.md §8).
  bool async_flush = false;
  /// Per-thread flush ring capacity in lines (NVC_FLUSH_QUEUE; power of
  /// two). A full ring falls back to a synchronous local flush.
  std::size_t flush_queue_depth = 1024;

  /// Durable undo logging (off for pure flush-counting experiments).
  bool undo_logging = false;
  /// When records become durable: per record (kStrict, Atlas' protocol) or
  /// once per epoch at ordered sync points (kBatched — see DESIGN.md §7 for
  /// the ordering invariant and the eADR/simulated-backend assumption).
  LogSyncMode log_sync = LogSyncMode::kStrict;
  std::size_t log_segment_size = 1u << 20;
  std::size_t max_threads = 64;

  /// Media-fault injection and tolerance (NVC_FAULT_*, DESIGN.md §10). When
  /// fault.enabled() the runtime owns a FaultInjector consulted by every
  /// flush backend, wraps the flush paths in retrying FaultTolerantSinks,
  /// and latches graceful degradation (async→sync flushing, batched→strict
  /// logging) once the media misbehaves. Default-constructed = disabled:
  /// the fault-free hot path is untouched.
  pmem::FaultConfig fault;

  /// Endurance accounting (NVC_WEAR, DESIGN.md §12): attach one shared
  /// pmem::WearTracker to every flush backend — application-thread and
  /// worker-side — so stats()/health() can report bytes written to media
  /// and per-line wear. Off by default: the write-back hot path then keeps
  /// a single null-pointer test.
  bool wear_tracking = false;

  /// FliT-style flush elision (NVC_ELIDE=1, DESIGN.md §13): one shared
  /// core::FlushElisionTable dedups scheduled write-backs across contexts —
  /// an eviction of a line whose write-back is already announced and not
  /// yet started is skipped, and every commit-point drain re-checks its
  /// elided lines. Only write-backs queued in a ring can be announced and
  /// not yet started, so this has no effect without async_flush. Off by
  /// default: the sink stack is unchanged.
  bool elide = false;

  /// Commit-granularity data verification (NVC_VERIFY_DATA=1, DESIGN.md
  /// §14): every FASE commit publishes a CRC32C per touched data line into
  /// a shared LineVerifyTable; the online scrubber and the recovery
  /// pipeline's verify stage check lines against it. Off by default: the
  /// store path keeps a single null-pointer test.
  bool verify_data = false;

  /// Online scrubbing (NVC_SCRUB=1, DESIGN.md §14): register a background
  /// Scrubber on the flush-worker pool's idle hook — it re-reads the image
  /// whenever a pool worker goes idle, repairs detectably corrupt
  /// metadata from redundant copies, and quarantines lines the fault
  /// model marks bad. Requires nothing else; combines with verify_data for
  /// data-line checking.
  bool scrub = false;
  /// Data lines re-read per idle slice (NVC_SCRUB_BATCH).
  std::size_t scrub_batch_lines = 64;

  /// `base` with every set NVC_* runtime knob overlaid (README knob table):
  /// the flush, log, wear, elision and scrub fields, the policy section
  /// (NVC_BURST, NVC_SKIP_FASES, NVC_ASYNC, NVC_ADMIT*) and the fault
  /// section (NVC_FAULT_*; NVC_FAULT_SEED falls back to NVC_SEED). Unset or
  /// empty knobs keep the base value. A malformed value throws
  /// std::invalid_argument naming the knob and the values it accepts.
  static RuntimeConfig from_env(RuntimeConfig base);
};

/// Statistics aggregated over all thread contexts.
struct RuntimeStats {
  std::uint64_t stores = 0;
  std::uint64_t combined = 0;
  std::uint64_t fases = 0;
  std::uint64_t flushes = 0;       // data lines written back to NVRAM
  std::uint64_t log_flushes = 0;   // undo-log lines written back
  std::uint64_t fences = 0;
  std::uint64_t log_fences = 0;    // fences on the undo-log path
  std::uint64_t instructions = 0;  // policy bookkeeping estimate
  std::uint64_t log_records = 0;
  std::uint64_t log_bytes = 0;
  std::uint64_t log_syncs = 0;     // log sync points (epochs in kBatched)
  // Media-fault tolerance (all zero when no injector is attached):
  std::uint64_t transient_faults = 0;  // rejected write-back attempts
  std::uint64_t flush_retries = 0;     // retry attempts issued
  std::uint64_t quarantined_lines = 0; // lines that exhausted retries
  std::uint64_t flush_degrades = 0;    // contexts latched async -> sync
  std::uint64_t log_degrades = 0;      // contexts latched batched -> strict
  // Write admission (NVC_ADMIT; zero under the default `always` mode):
  std::uint64_t bypassed_stores = 0;   // stores written through past a cache
  // Flush elision (NVC_ELIDE=1; zero when off):
  std::uint64_t elided_flushes = 0;     // scheduled write-backs skipped
  std::uint64_t elision_reflushes = 0;  // drain re-checks that flushed
  // Endurance accounting (NVC_WEAR=1; all zero when tracking is off):
  std::uint64_t media_line_writes = 0;   // write-backs that reached media
  std::uint64_t media_bytes_written = 0; // media_line_writes * line size
  std::uint64_t wear_lines_touched = 0;  // distinct lines written
  std::uint64_t wear_max_line_writes = 0;
  double wear_mean_line_writes = 0.0;
  double wear_leveling_skew = 0.0;       // max/mean - 1 (0 = leveled)
  std::size_t threads = 0;
  std::vector<std::size_t> cache_sizes;  // per-thread selected sizes (SC)

  double flush_ratio() const noexcept {
    return stores == 0
               ? 0.0
               : static_cast<double>(flushes) / static_cast<double>(stores);
  }
};

class Runtime {
 public:
  explicit Runtime(RuntimeConfig config);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- persistent heap ------------------------------------------------------

  /// Allocate persistent memory (durable location, not failure-atomic).
  void* pm_alloc(std::size_t size);
  void pm_free(void* p);

  /// Durable root pointer, the recovery entry point.
  void set_root(void* p);
  void* get_root() const;

  template <typename T>
  T* pm_new() {
    return static_cast<T*>(pm_alloc(sizeof(T)));
  }

  // --- FASEs and instrumented stores ---------------------------------------

  /// Enter a failure-atomic section on this thread (nestable).
  void fase_begin();

  /// Leave a FASE; the outermost end flushes per policy and commits the log.
  void fase_end();

  /// Instrumented persistent store: logs the old value (if logging), applies
  /// the write, and reports the line to the caching policy. Must run inside
  /// a FASE for atomicity; outside a FASE it degrades to store+report, as
  /// Atlas permits for unprotected persistent writes.
  void pstore(void* dst, const void* src, std::size_t len);

  template <typename T>
  void pstore(T& dst, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    pstore(&dst, &value, sizeof(T));
  }

  /// Report-only variant: the caller already wrote [addr, addr+len) (e.g.
  /// via a library like memcpy) and needs it tracked for persistence. With
  /// verify_data on, a concurrent scrub slice can hash the new bytes before
  /// this call dirties their lines and count a false mismatch; pstore has
  /// no such window (DESIGN.md §14).
  void pwrote(const void* addr, std::size_t len);

  /// Mid-FASE persistence barrier: flush everything this thread's policy
  /// has buffered and fence. Used by stores with their own commit ordering
  /// (e.g. MDB writes data pages durably before publishing the new meta).
  void persist_barrier();

  // --- recovery -------------------------------------------------------------

  /// True if any thread's log segment holds uncommitted records — or
  /// corruption the salvage pipeline needs to classify and repair.
  bool needs_recovery() const;

  /// Run the salvage-mode recovery pipeline (runtime/recovery.hpp): roll
  /// back uncommitted FASEs to their last verifiable commit, classify every
  /// corruption, reformat unrecoverable log segments. Returns records
  /// undone; the full report is available from last_recovery() and the
  /// headline from health().
  std::size_t recover();

  /// Classified report of the most recent recover() (default-constructed
  /// if recovery never ran; see HealthReport::recovery_ran).
  RecoveryReport last_recovery() const;

  // --- introspection ---------------------------------------------------------

  /// Aggregate statistics over every thread that used this runtime.
  RuntimeStats stats() const;

  /// Aggregate media-health view: fault counters, quarantined lines, and
  /// which degradation latches have fired (runtime/health.hpp).
  HealthReport health() const;

  /// Drain this thread's context: flush anything buffered (program end).
  void thread_flush();

  const RuntimeConfig& config() const noexcept { return config_; }
  pmem::PmemAllocator& allocator() noexcept { return *allocator_; }

  /// Commit-time data checksums (null unless config.verify_data).
  const LineVerifyTable* verify_table() const noexcept {
    return verify_table_.get();
  }
  /// The online scrubber (null unless config.scrub). Exposed so tests and
  /// benchmarks can pump slices manually instead of waiting for pool idle.
  Scrubber* scrubber() noexcept { return scrubber_.get(); }
  /// Scrubber counters (all zero when scrubbing is off).
  ScrubStats scrub_stats() const;

  /// Remove the backing files (test teardown).
  void destroy_storage();

 private:
  struct ThreadContext;

  ThreadContext& ctx();
  ThreadContext& ctx_slow();
  /// Dirty the store's verify-table lines and record them for the commit
  /// (NVC_VERIFY_DATA only; callers test verify_table_).
  void mark_unverified(ThreadContext& c, const void* addr, std::size_t len);
  /// Publish commit-time checksums for the FASE's touched lines
  /// (NVC_VERIFY_DATA; no-op otherwise).
  void publish_commit(ThreadContext& c);
  /// Raw-memory view of the live regions for the recovery pipeline.
  RegionView region_view(core::FlushSink* sink) const;

  RuntimeConfig config_;
  /// Media-fault decision source (null when config_.fault is disabled).
  /// Shared: the worker-side IssueSink inside a FlushChannel keeps a
  /// reference, and a channel may outlive the Runtime.
  std::shared_ptr<pmem::FaultInjector> injector_;
  /// Endurance accounting (null unless config_.wear_tracking). Shared for
  /// the same lifetime reason: worker-side backends hold a reference.
  std::shared_ptr<pmem::WearTracker> wear_;
  /// Flush-elision table (null unless config_.elide with
  /// config_.async_flush). One table for all
  /// contexts — cross-thread dedup is the point — and shared because the
  /// worker-side RetiringSink inside a FlushChannel may outlive us.
  std::shared_ptr<core::FlushElisionTable> elision_;
  std::unique_ptr<pmem::PmemAllocator> allocator_;
  pmem::PmemRegion log_region_;
  std::uint64_t instance_id_;
  /// Commit-time data-line checksums (null unless config_.verify_data).
  /// Shared: the scrubber holds a reference and is itself kept alive by the
  /// worker pool only through a weak_ptr, but belt-and-braces beats a
  /// dangle.
  std::shared_ptr<LineVerifyTable> verify_table_;
  /// Online scrubber (null unless config_.scrub). shared_ptr because the
  /// pool's idle hook tracks it via weak_ptr — destruction is deregistration.
  std::shared_ptr<Scrubber> scrubber_;
  /// Quarantine destination for scrub discoveries (allocated only when an
  /// armed injector exists). Separate from the per-context FaultStats —
  /// scrub findings are global, not attributable to one thread — and merged
  /// into health() alongside them.
  std::shared_ptr<core::FaultStats> scrub_faults_;
  /// Most recent salvage report (guarded by recovery_mutex_).
  mutable std::mutex recovery_mutex_;
  RecoveryReport last_recovery_;
  bool recovery_ran_ = false;

  /// Guards the persistent heap (allocate/free/root). Separate from
  /// contexts_mutex_ so allocation never contends with thread registration
  /// or stats().
  mutable std::mutex alloc_mutex_;

  mutable std::mutex contexts_mutex_;
  std::vector<std::unique_ptr<ThreadContext>> contexts_;
};

/// RAII failure-atomic section (maps to Atlas' lock-based FASE).
class FaseScope {
 public:
  explicit FaseScope(Runtime& rt) : rt_(rt) { rt_.fase_begin(); }
  ~FaseScope() { rt_.fase_end(); }
  FaseScope(const FaseScope&) = delete;
  FaseScope& operator=(const FaseScope&) = delete;

 private:
  Runtime& rt_;
};

}  // namespace nvc::runtime
