#include "support/crash_rig.hpp"

#include <atomic>
#include <optional>

#include "common/assert.hpp"
#include "runtime/recovery.hpp"
#include "support/sinks.hpp"

namespace nvc::testing {

/// Counting sink into the shadow image: pointer-based lines are translated
/// to shadow-offset lines by `shift` (0 for the data path, whose lines
/// already are shadow offsets; the log writes through raw pointers into the
/// image). The image's clock decides whether a write-back beats the cut.
struct CrashRig::ShadowSink final : core::FlushSink {
  ShadowSink(pmem::ShadowPmem* target, LineAddr line_shift)
      : shadow(target), shift(line_shift) {}
  bool flush_line(LineAddr line) override {
    flushes.fetch_add(1, std::memory_order_relaxed);
    return shadow->flush_line(line - shift);
  }
  void drain() override {
    fences.fetch_add(1, std::memory_order_relaxed);
    shadow->fence();
  }
  pmem::ShadowPmem* shadow;
  LineAddr shift;
  std::atomic<std::uint64_t> flushes{0};
  std::atomic<std::uint64_t> fences{0};
};

/// One logical runtime thread: the shipped FASE protocol (private policy,
/// log segment and write-back path — in async mode with its own flush
/// ring) against the rig's shared shadow image.
struct CrashRig::Context {
  Context(pmem::ShadowPmem* shadow, LineAddr log_shift)
      : data_sink(shadow, /*shift=*/0), log_sink(shadow, log_shift) {}

  ShadowSink data_sink;
  ShadowSink log_sink;
  core::SoftCachePolicy* soft = nullptr;  // set in online_policy mode
  /// Declared after the sinks: its path drains the ring through them.
  std::optional<runtime::FaseContext> fase;
};

CrashRig::CrashRig(const CrashRigConfig& config)
    : config_(config),
      shadow_(config.contexts *
              (config.data_lines * kCacheLineSize + config.log_bytes)),
      log_shift_(line_of(reinterpret_cast<PmAddr>(shadow_.volatile_base()))) {
  NVC_REQUIRE(config.contexts >= 1);
  NVC_REQUIRE(config.log_bytes % kCacheLineSize == 0);
  NVC_REQUIRE(!config.async_analysis || config.online_policy,
              "async analysis is a mode of the online policy");
  if (config_.fault.enabled()) {
    // Attached before any context formats its log, so permanently bad
    // lines can hit even the setup write-backs (a stillborn context whose
    // header never persists is a legal fault outcome recovery must handle).
    injector_ = std::make_unique<pmem::FaultInjector>(config_.fault);
    shadow_.set_fault_injector(injector_.get());
  }
  if (config_.elide) {
    // One table for all contexts: cross-context dedup is the dimension
    // under test (a line evicted by context A while context B's write-back
    // of it is still queued gets elided).
    elision_ = std::make_shared<core::FlushElisionTable>();
    if (config_.elide_bug_revert_retire) {
      elision_->set_bug_revert_retire(true);
    }
  }
  const core::RetryPolicy retry = runtime::retry_policy(config_.fault);
  for (std::size_t i = 0; i < config_.contexts; ++i) {
    auto c = std::make_unique<Context>(&shadow_, log_shift_);
    std::unique_ptr<core::Policy> policy;
    core::PolicyConfig pc;
    pc.cache_size = config_.cache_size;
    pc.admission.mode = config_.admission;
    if (config_.online_policy) {
      pc.sampler.burst_length = config_.burst_length;
      pc.sampler.hibernation_length = config_.hibernation_length;
      // Deterministic async: the analysis channel is never served by the
      // background worker; bursts run only under pump_analysis().
      pc.sampler.manual_analysis = config_.async_analysis;
      policy = core::make_policy(core::PolicyKind::kSoftCache, pc);
      c->soft = static_cast<core::SoftCachePolicy*>(policy.get());
    } else {
      policy = core::make_policy(core::PolicyKind::kSoftCacheOffline, pc);
    }
    auto faults = injector_ ? std::make_shared<core::FaultStats>() : nullptr;
    std::shared_ptr<core::FlushChannel> channel;
    if (config_.async_flush) {
      // Flush-behind data path: a tiny ring (overflow falls back to the
      // synchronous ShadowSink) drained by the background worker — or, in
      // manual mode, only by pump_flush() and the helping drain.
      auto worker_sink = runtime::make_worker_sink(
          std::make_unique<ForwardSink>(&c->data_sink), faults, retry,
          elision_);
      channel = config_.manual_pipeline
                    ? core::FlushWorker::shared().open_manual_channel(
                          std::move(worker_sink), config_.flush_ring)
                    : core::FlushWorker::shared().open_channel(
                          std::move(worker_sink), config_.flush_ring);
    }
    c->fase.emplace(
        std::move(policy),
        std::make_unique<runtime::UndoLog>(
            shadow_.volatile_base() + log_offset(i), config_.log_bytes,
            &c->log_sink, config_.mode),
        runtime::WritebackPath::Inputs{.data = &c->data_sink,
                                       .log_sink = &c->log_sink,
                                       .faults = std::move(faults),
                                       .retry = retry,
                                       .elision = elision_,
                                       .channel = std::move(channel),
                                       .device = {}});
    c->fase->log()->format();  // setup: before the clock, never cut away
    contexts_.push_back(std::move(c));
  }
  shadow_.set_tear_burst(config_.tear_burst);
  shadow_.start_clock();
}

CrashRig::~CrashRig() = default;

void CrashRig::fase_begin(std::size_t ctx) {
  contexts_[ctx]->fase->begin(config_.fault.degrade_after);
}

bool CrashRig::fase_end(std::size_t ctx) {
  return contexts_[ctx]->fase->end();
}

void CrashRig::pstore(std::size_t ctx, PmAddr addr, const void* bytes,
                      std::size_t len) {
  NVC_REQUIRE(len > 0);
  NVC_REQUIRE(addr + len <= data_bytes(), "pstore past region end");
  runtime::FaseContext& fase = *contexts_[ctx]->fase;
  NVC_REQUIRE(fase.depth() > 0, "rig pstores must be inside a FASE");
  // The token is the shadow offset, so recovery restores the payload
  // straight back into the image.
  const PmAddr base = data_offset(ctx) + addr;
  const LineAddr first = line_of(base);
  const LineAddr last = line_of(base + len - 1);
  fase.log_store(base, shadow_.volatile_base() + base, len, first, last);
  shadow_.store(base, bytes, len);
  fase.stored(first, last);
}

void CrashRig::pwrote(std::size_t ctx, PmAddr addr, const void* bytes,
                      std::size_t len) {
  NVC_REQUIRE(len > 0);
  NVC_REQUIRE(addr + len <= data_bytes(), "pwrote past region end");
  runtime::FaseContext& fase = *contexts_[ctx]->fase;
  NVC_REQUIRE(fase.depth() > 0, "rig pwrotes must be inside a FASE");
  const PmAddr base = data_offset(ctx) + addr;
  shadow_.store(base, bytes, len);
  fase.stored(line_of(base), line_of(base + len - 1));
}

void CrashRig::persist_barrier(std::size_t ctx) {
  contexts_[ctx]->fase->barrier();
}

bool CrashRig::pump_flush(std::size_t ctx, std::size_t worker) {
  core::FlushChannel* channel = contexts_[ctx]->fase->path().channel();
  return channel != nullptr && channel->pump_one(worker);
}

bool CrashRig::pump_analysis(std::size_t ctx, std::size_t worker) {
  Context& c = *contexts_[ctx];
  return c.soft != nullptr && c.soft->pump_analysis(worker);
}

const core::FaultStats& CrashRig::fault_stats(std::size_t ctx) const {
  static const core::FaultStats kClean;
  const core::FaultStats* faults = contexts_[ctx]->fase->path().faults();
  return faults != nullptr ? *faults : kClean;
}

bool CrashRig::flush_degraded(std::size_t ctx) const {
  return contexts_[ctx]->fase->path().flush_degraded();
}

bool CrashRig::log_degraded(std::size_t ctx) const {
  return contexts_[ctx]->fase->path().log_degraded();
}

bool CrashRig::commit_suspended(std::size_t ctx) const {
  return contexts_[ctx]->fase->path().commit_suspended();
}

void CrashRig::recover_all() {
  if (recovered_) return;
  recovered_ = true;
  // Quiesce the pipeline first: write-backs of lines that were still
  // queued at the freeze point claim post-freeze event indices and drop —
  // power failed with those writes in flight, they never persist.
  for (auto& c : contexts_) {
    if (auto* channel = c->fase->path().channel()) channel->wait_drained();
  }
  shadow_.crash();  // everything unflushed is gone
  // The restarted machine gets fresh media behavior: recovery's own
  // write-backs must not fail, or a crashed-again-during-recovery model
  // would leak into every oracle check. (Testing recovery-time faults is a
  // separate scenario, driven explicitly.)
  shadow_.set_fault_injector(nullptr);
  ShadowSink sink(&shadow_, log_shift_);
  runtime::RegionView view;
  view.data = shadow_.volatile_base();
  view.data_size = config_.contexts * data_bytes();
  view.logs = shadow_.volatile_base() + log_offset(0);
  view.log_segment_size = config_.log_bytes;
  view.log_segments = config_.contexts;
  view.heap_header = false;  // raw cells, no allocator header
  view.sink = &sink;
  const runtime::RecoveryReport report = runtime::RecoveryManager(view).run();
  NVC_REQUIRE(report.ok(), "crash image failed salvage");
  // A stillborn context's log header went bad before format() could
  // persist it. Sound, not silent data loss — every sync of that log
  // failed, so the gating LogOrderedSink never let one of its data flushes
  // through; the region's durable image is still all-initial.
  NVC_REQUIRE(report.segments_stillborn == 0 || injector_ != nullptr,
              "log segment lost its format");
}

std::vector<std::uint8_t> CrashRig::recovered_data(std::size_t ctx) {
  recover_all();
  std::vector<std::uint8_t> out(data_bytes());
  shadow_.load_durable(data_offset(ctx), out.data(), out.size());
  return out;
}

std::vector<std::uint8_t> CrashRig::durable_data(std::size_t ctx) const {
  std::vector<std::uint8_t> out(data_bytes());
  shadow_.load_durable(data_offset(ctx), out.data(), out.size());
  return out;
}

std::vector<std::uint8_t> CrashRig::durable_image() const {
  std::vector<std::uint8_t> out(shadow_.size());
  shadow_.load_durable(0, out.data(), out.size());
  return out;
}

std::uint64_t CrashRig::data_flushes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : contexts_) {
    total += c->data_sink.flushes.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t CrashRig::log_fences() const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : contexts_) {
    total += c->log_sink.fences.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t CrashRig::bypassed_stores() const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : contexts_) {
    total += c->fase->policy().counters().bypassed;
  }
  return total;
}

std::uint64_t CrashRig::elided_flushes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : contexts_) {
    total += c->fase->path().elided_count();
  }
  return total;
}

std::uint64_t CrashRig::elision_reflushes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : contexts_) {
    total += c->fase->path().reflushed_count();
  }
  return total;
}

}  // namespace nvc::testing
