#include "runtime/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <unordered_map>

#include "common/assert.hpp"
#include "core/flush_pipeline.hpp"
#include "pmem/wear.hpp"
#include "runtime/backend_sink.hpp"
#include "runtime/fase_context.hpp"
#include "runtime/scrub.hpp"
#include "runtime/writeback_path.hpp"

namespace nvc::runtime {

namespace {

std::uint64_t next_instance_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Device timing model for the async sink: active only when the backend
/// resolves to the simulated kind (hardware kinds self-time). Occupancy is
/// a quarter of the full write latency — a pipelined device accepts lines
/// ~4x faster than one synchronous strongly-ordered flush completes (see
/// DESIGN.md §8).
core::FlushDeviceModel device_model(const RuntimeConfig& config) {
  core::FlushDeviceModel model;
  const pmem::FlushBackend probe(config.flush, config.simulated_flush_ns);
  if (probe.kind() == pmem::FlushKind::kSimulated) {
    model.latency_ns = config.simulated_flush_ns;
    model.issue_ns = std::max<std::uint32_t>(1, config.simulated_flush_ns / 4);
  }
  return model;
}

/// The context's write-back route over its backend sinks. With async_flush
/// it opens the thread's ring to the shared flush worker; the channel owns
/// the worker-side stack (posted write-backs, private backend) so it stays
/// valid even if the worker holds it after the runtime dies.
WritebackPath::Inputs writeback_inputs(
    const RuntimeConfig& config,
    const std::shared_ptr<pmem::FaultInjector>& injector,
    const std::shared_ptr<pmem::WearTracker>& wear,
    const std::shared_ptr<core::FlushElisionTable>& elision,
    BackendSink* data, BackendSink* log_sink) {
  // The retry/quarantine layer arms only when the injector can actually
  // fire. An attached-but-idle injector (NVC_FAULT_ATTACH with every rate
  // zero) keeps the application-thread backend hooks in place — that is
  // what BM_PstoreFaseFaultIdle prices — but a retry of a flush that
  // cannot fail is dead weight on every write-back.
  auto faults = injector != nullptr && !injector->idle()
                    ? std::make_shared<core::FaultStats>()
                    : nullptr;
  std::shared_ptr<core::FlushChannel> channel;
  if (config.async_flush) {
    // Sanitize the configured depth (it arrives from NVC_FLUSH_QUEUE in the
    // harness): clamp to a sane range and round up to the power of two the
    // ring requires, instead of aborting on a typo.
    const std::size_t depth = std::bit_ceil(std::clamp<std::size_t>(
        config.flush_queue_depth, 16, std::size_t{1} << 20));
    auto issue =
        std::make_unique<IssueSink>(config.flush, config.simulated_flush_ns);
    // The worker backend shares ownership of the tracker (this channel may
    // outlive the Runtime); its recordings go through the tracker's
    // atomics, never its plain counters, so stats() stays race-free.
    if (wear != nullptr) issue->backend().set_wear_tracker(wear);
    if (faults != nullptr) issue->set_fault_injector(injector);
    channel = core::FlushWorker::shared().open_channel(
        make_worker_sink(std::move(issue), faults, retry_policy(config.fault),
                         elision),
        depth);
  }
  return {.data = data,
          .log_sink = log_sink,
          .faults = std::move(faults),
          .retry = retry_policy(config.fault),
          .elision = elision,
          .channel = std::move(channel),
          .device = device_model(config)};
}

}  // namespace

struct Runtime::ThreadContext {
  ThreadContext(const RuntimeConfig& config, std::size_t slot_index,
                void* log_base,
                const std::shared_ptr<pmem::FaultInjector>& injector,
                const std::shared_ptr<pmem::WearTracker>& wear,
                const std::shared_ptr<core::FlushElisionTable>& elision)
      : slot(slot_index),
        backend(config.flush, config.simulated_flush_ns),
        log_backend(config.flush, config.simulated_flush_ns),
        sink(&backend),
        log_sink(&log_backend),
        fase(core::make_policy(config.policy, config.policy_config),
             log_base != nullptr
                 ? std::make_unique<UndoLog>(log_base, config.log_segment_size,
                                             &log_sink, config.log_sync)
                 : nullptr,
             writeback_inputs(config, injector, wear, elision, &sink,
                              &log_sink)) {
    if (injector != nullptr) {
      backend.set_fault_injector(injector.get());
      log_backend.set_fault_injector(injector.get());
    }
    if (wear != nullptr) {
      backend.set_wear_tracker(wear);
      log_backend.set_wear_tracker(wear);
    }
  }

  std::size_t slot;
  pmem::FlushBackend backend;      // data-line flushes (the paper's metric)
  pmem::FlushBackend log_backend;  // undo-log persistence traffic
  BackendSink sink;
  BackendSink log_sink;
  /// Declared after the sinks it routes into: its write-back path drains
  /// the flush ring on destruction while they (and the data region —
  /// contexts die before the allocator in ~Runtime) are still alive.
  FaseContext fase;
  /// Data-region line indices this FASE has touched (NVC_VERIFY_DATA only;
  /// stays empty otherwise). fase_end publishes their commit-time checksums
  /// into the shared LineVerifyTable after a successful log commit.
  std::vector<std::size_t> touched_lines;
};

Runtime::Runtime(RuntimeConfig config)
    : config_(std::move(config)), instance_id_(next_instance_id()) {
  NVC_REQUIRE(config_.region_size >= (1u << 16));
  NVC_REQUIRE(config_.max_threads >= 1);

  if (config_.fault.enabled()) {
    injector_ = std::make_shared<pmem::FaultInjector>(config_.fault);
  }
  if (config_.wear_tracking) {
    wear_ = std::make_shared<pmem::WearTracker>();
  }
  if (config_.elide && config_.async_flush) {
    // Elision dedups write-backs still queued in some ring; synchronous
    // flushing queues nothing, so there is nothing to dedup.
    elision_ = std::make_shared<core::FlushElisionTable>();
  }

  pmem::PmemRegion data =
      config_.fresh
          ? pmem::PmemRegion::create(config_.region_name, config_.region_size)
          : pmem::PmemRegion::open(config_.region_name);
  allocator_ =
      std::make_unique<pmem::PmemAllocator>(std::move(data), config_.fresh);
  if (!config_.fresh) {
    // Consume the clean-shutdown proof before any mutation: a crash from
    // here on must reopen as *unsealed* (the seal only ever vouches for an
    // image no live runtime can still be dirtying).
    allocator_->unseal();
    pmem::FlushBackend backend(config_.flush, config_.simulated_flush_ns);
    backend.flush_range(static_cast<char*>(allocator_->region().base()) +
                            pmem::PmemAllocator::seal_offset(),
                        sizeof(std::uint64_t));
    backend.fence();
  }
  if (config_.verify_data) {
    verify_table_ =
        std::make_shared<LineVerifyTable>(allocator_->region().size());
  }
  // Contexts hash admission-doorkeeper slots relative to the region base so
  // bypass/readmit decisions replay bit-for-bit across processes (ASLR moves
  // the mapping; line offsets within the region do not).
  config_.policy_config.admission.line_base =
      reinterpret_cast<std::uintptr_t>(allocator_->region().base()) /
      kCacheLineSize;

  if (config_.undo_logging) {
    const std::string log_name = config_.region_name + ".log";
    const std::size_t log_size =
        config_.log_segment_size * config_.max_threads;
    if (config_.fresh || !pmem::PmemRegion::exists(log_name)) {
      log_region_ = pmem::PmemRegion::create(log_name, log_size);
      pmem::FlushBackend backend(config_.flush, config_.simulated_flush_ns);
      BackendSink sink(&backend);
      for (std::size_t s = 0; s < config_.max_threads; ++s) {
        UndoLog(static_cast<char*>(log_region_.base()) +
                    s * config_.log_segment_size,
                config_.log_segment_size, &sink)
            .format();
      }
    } else {
      log_region_ = pmem::PmemRegion::open(log_name);
    }
  }

  if (config_.scrub) {
    scrubber_ = std::make_shared<Scrubber>(
        config_.scrub_batch_lines, allocator_->region().base(),
        allocator_->region().size(),
        log_region_.valid() ? log_region_.base() : nullptr,
        config_.log_segment_size,
        log_region_.valid() ? config_.max_threads : 0);
    scrubber_->set_header_lock(&alloc_mutex_);
    if (verify_table_ != nullptr) scrubber_->set_verify_table(verify_table_);
    if (injector_ != nullptr && !injector_->idle()) {
      // Same armed/idle rule as the per-context fault machinery: an idle
      // injector never marks a line bad, so the media check would be dead
      // weight on every scanned line.
      scrub_faults_ = std::make_shared<core::FaultStats>();
      scrubber_->set_injector(injector_);
      scrubber_->set_fault_stats(scrub_faults_);
    }
    if (wear_ != nullptr) scrubber_->set_wear(wear_);
    {
      std::lock_guard<std::mutex> lock(alloc_mutex_);
      scrubber_->refresh_header_mirror();
    }
    // The pool holds only a weak_ptr: resetting scrubber_ is deregistration.
    core::FlushWorker::shared().register_idle_task(scrubber_);
  }
}

Runtime::~Runtime() {
  // A pool worker may be mid-slice holding a locked shared_ptr; the weak_ptr
  // expiring cannot interrupt that, so stop the scrubber and wait out any
  // in-flight slice before the region can be unmapped below.
  if (scrubber_ != nullptr) scrubber_->shutdown();

  // Seal the heap iff shutdown is provably clean: every context quiescent
  // (no open FASE, no suspended commit) and every write-back ring drained.
  // The seal is the recovery pipeline's clean-shutdown fast path; writing it
  // over a dirty image would vouch for bytes still in flight.
  bool quiescent = allocator_ != nullptr;
  {
    std::lock_guard<std::mutex> lock(contexts_mutex_);
    for (const auto& c : contexts_) {
      const WritebackPath& path = c->fase.path();
      if (path.channel()) path.channel()->wait_drained();
      if (c->fase.depth() != 0 || path.commit_suspended()) quiescent = false;
      if (path.faults() != nullptr && path.faults()->quarantined_count() > 0) {
        quiescent = false;
      }
    }
  }
  if (scrub_faults_ != nullptr && scrub_faults_->quarantined_count() > 0) {
    quiescent = false;
  }
  if (quiescent) {
    std::lock_guard<std::mutex> lock(alloc_mutex_);
    allocator_->seal();
    pmem::FlushBackend backend(config_.flush, config_.simulated_flush_ns);
    backend.flush_range(allocator_->region().base(),
                        pmem::PmemAllocator::header_size());
    backend.fence();
  }
}

Runtime::ThreadContext& Runtime::ctx() {
  // Single-entry fast path: a thread overwhelmingly talks to one Runtime, so
  // pstore/fase_begin/fase_end resolve their context with one compare
  // instead of a hash-map probe. Instance ids are never reused, so a stale
  // entry can only miss, never alias another runtime.
  thread_local std::uint64_t tl_last_instance = 0;
  thread_local ThreadContext* tl_last_ctx = nullptr;
  if (tl_last_instance == instance_id_) return *tl_last_ctx;
  ThreadContext& c = ctx_slow();
  tl_last_instance = instance_id_;
  tl_last_ctx = &c;
  return c;
}

Runtime::ThreadContext& Runtime::ctx_slow() {
  // Per-(thread, runtime-instance) context cache. Keyed by instance id so a
  // Runtime reallocated at the same address cannot alias a stale entry.
  thread_local std::unordered_map<std::uint64_t, ThreadContext*> tl_cache;
  auto it = tl_cache.find(instance_id_);
  if (it != tl_cache.end()) return *it->second;

  std::lock_guard<std::mutex> lock(contexts_mutex_);
  const std::size_t slot = contexts_.size();
  NVC_REQUIRE(slot < config_.max_threads || !config_.undo_logging,
              "more threads than configured log segments");
  void* log_base =
      config_.undo_logging
          ? static_cast<char*>(log_region_.base()) +
                slot * config_.log_segment_size
          : nullptr;
  contexts_.push_back(std::make_unique<ThreadContext>(config_, slot, log_base,
                                                      injector_, wear_,
                                                      elision_));
  ThreadContext* c = contexts_.back().get();
  tl_cache.emplace(instance_id_, c);
  return *c;
}

void* Runtime::pm_alloc(std::size_t size) {
  std::lock_guard<std::mutex> lock(alloc_mutex_);
  const pmem::POffset off = allocator_->allocate(size);
  NVC_REQUIRE(off != pmem::kNullOffset, "persistent region exhausted");
  if (scrubber_ != nullptr) scrubber_->refresh_header_mirror();
  return allocator_->resolve(off);
}

void Runtime::pm_free(void* p) {
  if (p == nullptr) return;
  std::lock_guard<std::mutex> lock(alloc_mutex_);
  allocator_->deallocate(allocator_->offset_of(p));
  if (scrubber_ != nullptr) scrubber_->refresh_header_mirror();
}

void Runtime::set_root(void* p) {
  std::lock_guard<std::mutex> lock(alloc_mutex_);
  allocator_->set_root(p == nullptr ? pmem::kNullOffset
                                    : allocator_->offset_of(p));
  if (scrubber_ != nullptr) scrubber_->refresh_header_mirror();
}

void* Runtime::get_root() const {
  std::lock_guard<std::mutex> lock(alloc_mutex_);
  return allocator_->resolve(allocator_->root());
}

void Runtime::fase_begin() { ctx().fase.begin(config_.fault.degrade_after); }

void Runtime::fase_end() {
  ThreadContext& c = ctx();
  // Touched lines of a suspended or failed commit stay dirty in the verify
  // table — their content was never committed, so no checksum may vouch
  // for it.
  if (c.fase.end()) publish_commit(c);
}

void Runtime::publish_commit(ThreadContext& c) {
  if (verify_table_ == nullptr || c.touched_lines.empty()) return;
  std::sort(c.touched_lines.begin(), c.touched_lines.end());
  c.touched_lines.erase(
      std::unique(c.touched_lines.begin(), c.touched_lines.end()),
      c.touched_lines.end());
  const char* base = static_cast<const char*>(allocator_->region().base());
  for (const std::size_t idx : c.touched_lines) {
    verify_table_->note_commit(idx, base + idx * kCacheLineSize);
  }
  c.touched_lines.clear();
}

void Runtime::pstore(void* dst, const void* src, std::size_t len) {
  NVC_REQUIRE(len > 0);
  ThreadContext& c = ctx();
  const auto a = reinterpret_cast<PmAddr>(dst);
  const LineAddr first = line_of(a);
  const LineAddr last = line_of(a + len - 1);
  if (c.fase.logging()) {
    // Log the old value before overwriting (undo logging).
    c.fase.log_store(allocator_->region().offset_of(dst), dst, len, first,
                     last);
  }
  // Dirty the verify-table lines *before* the write: a scrub slice running
  // concurrently must never hash the new bytes against the old commit's
  // checksum (LineVerifyTable::verify re-reads the slot after hashing).
  if (verify_table_ != nullptr) mark_unverified(c, dst, len);
  std::memcpy(dst, src, len);
  c.fase.stored(first, last);
}

void Runtime::persist_barrier() {
  // Flush everything the policy has buffered and drain — without signalling
  // a FASE boundary (the FASE stays open; the sampling policy's renamer
  // epoch and deferred resize application must not fire mid-FASE).
  ctx().fase.barrier();
}

void Runtime::pwrote(const void* addr, std::size_t len) {
  NVC_REQUIRE(len > 0);
  ThreadContext& c = ctx();
  // Report-only: the bytes already landed, so a scrub slice may have hashed
  // them before this marks the lines dirty (DESIGN.md §14).
  if (verify_table_ != nullptr) mark_unverified(c, addr, len);
  const auto a = reinterpret_cast<PmAddr>(addr);
  c.fase.stored(line_of(a), line_of(a + len - 1));
}

void Runtime::mark_unverified(ThreadContext& c, const void* addr,
                              std::size_t len) {
  // NVC_VERIFY_DATA: dirty every touched line (suppressing scrub checks
  // while content is in flight). Lines touched inside a FASE are recorded
  // so fase_end can publish their checksums at the commit point; stores
  // outside any FASE leave the line permanently dirty — there is no commit
  // whose content a checksum could vouch for.
  const auto a = reinterpret_cast<PmAddr>(addr);
  const auto base = reinterpret_cast<PmAddr>(allocator_->region().base());
  if (a < base || a + len > base + allocator_->region().size()) return;
  const LineAddr base_line = line_of(base);
  for (LineAddr line = line_of(a); line <= line_of(a + len - 1); ++line) {
    const auto idx = static_cast<std::size_t>(line - base_line);
    verify_table_->mark_dirty(idx);
    if (c.fase.depth() > 0) c.touched_lines.push_back(idx);
  }
}

RegionView Runtime::region_view(core::FlushSink* sink) const {
  RegionView view;
  view.data = allocator_->region().base();
  view.data_size = allocator_->region().size();
  view.logs = log_region_.valid() ? log_region_.base() : nullptr;
  view.log_segment_size = config_.log_segment_size;
  view.log_segments = log_region_.valid() ? config_.max_threads : 0;
  view.sink = sink;
  return view;
}

bool Runtime::needs_recovery() const {
  if (!config_.undo_logging || !log_region_.valid()) return false;
  return RecoveryManager(region_view(nullptr)).needs_recovery();
}

std::size_t Runtime::recover() {
  if (!config_.undo_logging || !log_region_.valid()) return 0;
  pmem::FlushBackend backend(config_.flush, config_.simulated_flush_ns);
  BackendSink sink(&backend);
  RecoveryManager manager(region_view(&sink));
  if (verify_table_ != nullptr) manager.set_verify_table(verify_table_.get());
  RecoveryReport report = manager.run();
  backend.fence();
  const std::size_t undone = report.records_undone;
  {
    std::lock_guard<std::mutex> lock(recovery_mutex_);
    recovery_ran_ = true;
    last_recovery_ = std::move(report);
  }
  return undone;
}

RecoveryReport Runtime::last_recovery() const {
  std::lock_guard<std::mutex> lock(recovery_mutex_);
  return last_recovery_;
}

ScrubStats Runtime::scrub_stats() const {
  return scrubber_ != nullptr ? scrubber_->stats() : ScrubStats{};
}

void Runtime::thread_flush() { ctx().fase.finish(); }

RuntimeStats Runtime::stats() const {
  std::lock_guard<std::mutex> lock(contexts_mutex_);
  RuntimeStats s;
  s.threads = contexts_.size();
  for (const auto& c : contexts_) {
    const WritebackPath& path = c->fase.path();
    const core::PolicyCounters& pc = c->fase.policy().counters();
    s.stores += pc.stores;
    s.combined += pc.combined;
    s.fases += pc.fases;
    s.instructions += pc.instructions;
    s.bypassed_stores += pc.bypassed;
    s.flushes += c->backend.flush_count();
    s.fences += c->backend.fence_count();
    if (const core::FlushChannel* channel = path.channel()) {
      // Lines written back through the flush-behind pipeline. The channel's
      // release-ordered counter is the authoritative count; the worker-side
      // backend's plain counters are never read here, so stats() cannot
      // race with an in-flight worker write-back. The app-side backend
      // above only counts overflow/sync flushes and fences, and is only
      // ever mutated by its owning thread.
      s.flushes += channel->flushed();
    }
    s.log_flushes += c->log_backend.flush_count();
    s.log_fences += c->log_backend.fence_count();
    if (c->fase.log() != nullptr) {
      s.log_records += c->fase.log()->records();
      s.log_bytes += c->fase.log()->bytes_logged();
      s.log_syncs += c->fase.log()->sync_points();
    }
    if (const core::FaultStats* faults = path.faults()) {
      s.transient_faults += faults->transients();
      s.flush_retries += faults->retries();
      s.quarantined_lines += faults->quarantined_count();
      s.flush_degrades += path.flush_degraded() ? 1 : 0;
      s.log_degrades += path.log_degraded() ? 1 : 0;
    }
    s.elided_flushes += path.elided_count();
    s.elision_reflushes += path.reflushed_count();
    if (const std::size_t size = c->fase.policy().current_cache_size();
        size > 0) {
      s.cache_sizes.push_back(size);
    }
  }
  if (wear_ != nullptr) {
    // Thread-safe by construction: the tracker's totals are release-
    // published and its map is mutex-guarded, so this races with no
    // worker-side recording.
    const pmem::WearStats ws = wear_->stats();
    s.media_line_writes = ws.line_writes;
    s.media_bytes_written = ws.bytes_written;
    s.wear_lines_touched = ws.lines_touched;
    s.wear_max_line_writes = ws.max_line_writes;
    s.wear_mean_line_writes = ws.mean_line_writes;
    s.wear_leveling_skew = ws.leveling_skew;
  }
  return s;
}

HealthReport Runtime::health() const {
  std::lock_guard<std::mutex> lock(contexts_mutex_);
  HealthReport report;
  report.faults_attached = injector_ != nullptr;
  for (const auto& c : contexts_) {
    const WritebackPath& path = c->fase.path();
    const core::FaultStats* faults = path.faults();
    if (faults == nullptr) continue;
    report.transient_faults += faults->transients();
    report.flush_retries += faults->retries();
    const std::vector<LineAddr> lines = faults->quarantined_lines();
    report.quarantined_lines.insert(report.quarantined_lines.end(),
                                    lines.begin(), lines.end());
    report.flush_degraded_contexts += path.flush_degraded() ? 1 : 0;
    report.log_degraded_contexts += path.log_degraded() ? 1 : 0;
    report.commit_suspended_contexts += path.commit_suspended() ? 1 : 0;
  }
  if (scrub_faults_ != nullptr) {
    // Scrub-discovered media failures join the same quarantine ledger as
    // write-path discoveries.
    const std::vector<LineAddr> lines = scrub_faults_->quarantined_lines();
    report.quarantined_lines.insert(report.quarantined_lines.end(),
                                    lines.begin(), lines.end());
  }
  std::sort(report.quarantined_lines.begin(), report.quarantined_lines.end());
  report.quarantined_lines.erase(
      std::unique(report.quarantined_lines.begin(),
                  report.quarantined_lines.end()),
      report.quarantined_lines.end());
  report.wear_attached = wear_ != nullptr;
  if (wear_ != nullptr) {
    const pmem::WearStats ws = wear_->stats();
    report.media_bytes_written = ws.bytes_written;
    report.wear_max_line_writes = ws.max_line_writes;
    report.wear_mean_line_writes = ws.mean_line_writes;
    report.wear_leveling_skew = ws.leveling_skew;
  }
  {
    std::lock_guard<std::mutex> rlock(recovery_mutex_);
    report.recovery_ran = recovery_ran_;
    if (recovery_ran_) {
      report.recovery_outcome = last_recovery_.outcome;
      report.recovery_records_undone = last_recovery_.records_undone;
      report.recovery_defects = last_recovery_.defects.size();
    }
  }
  if (scrubber_ != nullptr) {
    report.scrub_attached = true;
    const ScrubStats ss = scrubber_->stats();
    report.scrub_lines_scanned = ss.lines_scanned;
    report.scrub_metadata_repairs = ss.metadata_repairs;
    report.scrub_checksum_mismatches = ss.checksum_mismatches;
    report.scrub_media_quarantines = ss.media_quarantines;
  }
  return report;
}

void Runtime::destroy_storage() {
  const std::string data_name = config_.region_name;
  const std::string log_name = config_.region_name + ".log";
  if (scrubber_ != nullptr) {
    // Stop slices (and wait out an in-flight one) before the mappings go
    // away; resetting drops the pool's weak_ptr registration.
    scrubber_->shutdown();
    scrubber_.reset();
  }
  {
    // Write back anything still queued in the pipeline while the region is
    // still mapped (an eviction pushed outside a FASE has no commit point
    // to drain it). Producers must be quiescent by now — destroy_storage
    // is teardown — so draining from this thread is safe.
    std::lock_guard<std::mutex> lock(contexts_mutex_);
    for (const auto& c : contexts_) {
      if (c->fase.path().channel()) c->fase.path().channel()->wait_drained();
    }
  }
  allocator_.reset();
  log_region_ = pmem::PmemRegion();
  pmem::PmemRegion::destroy(data_name);
  pmem::PmemRegion::destroy(log_name);
}

}  // namespace nvc::runtime
