#include "runtime/writeback_path.hpp"

#include "common/assert.hpp"

namespace nvc::runtime {

core::RetryPolicy retry_policy(const pmem::FaultConfig& fault) noexcept {
  return core::RetryPolicy{fault.max_retries, fault.backoff_ns,
                           fault.backoff_cap_ns};
}

std::unique_ptr<core::FlushSink> make_worker_sink(
    std::unique_ptr<core::FlushSink> issue,
    std::shared_ptr<core::FaultStats> faults, core::RetryPolicy retry,
    std::shared_ptr<core::FlushElisionTable> elision) {
  std::unique_ptr<core::FlushSink> sink = std::move(issue);
  if (faults != nullptr) {
    sink = std::make_unique<core::FaultTolerantSink>(std::move(sink),
                                                     std::move(faults), retry);
  }
  if (elision != nullptr) {
    sink = std::make_unique<core::RetiringSink>(std::move(sink),
                                                std::move(elision));
  }
  return sink;
}

WritebackPath::WritebackPath(Inputs in)
    : log_(in.log), faults_(std::move(in.faults)) {
  NVC_REQUIRE(in.data != nullptr);
  core::FlushSink* sync = in.data;
  if (faults_ != nullptr) {
    retry_data_ = std::make_unique<core::FaultTolerantSink>(
        in.data, faults_.get(), in.retry);
    sync = retry_data_.get();
    if (log_ != nullptr) {
      NVC_REQUIRE(in.log_sink != nullptr);
      retry_log_ = std::make_unique<core::FaultTolerantSink>(
          in.log_sink, faults_.get(), in.retry);
      log_->set_sink(retry_log_.get());
    }
  }
  if (in.channel == nullptr) {
    route_ = ordered(sync, ordered_);
    return;
  }
  channel_ = std::move(in.channel);
  elision_ = std::move(in.elision);
  core::FlushSink* fallback = sync;
  if (elision_ != nullptr) {
    retiring_fallback_ = std::make_unique<core::RetiringSink>(sync, elision_);
    fallback = retiring_fallback_.get();
  }
  async_ = std::make_unique<core::AsyncFlushSink>(channel_, fallback, in.device);
  core::FlushSink* inner = async_.get();
  if (elision_ != nullptr) {
    // Below the log order (the log sync runs whether or not the media
    // write is elided), above the ring.
    eliding_ = std::make_unique<core::ElidingSink>(inner, elision_);
    inner = eliding_.get();
  }
  route_ = ordered(inner, ordered_);
  if (faults_ != nullptr) degraded_ = ordered(sync, ordered_sync_);
}

core::FlushSink* WritebackPath::ordered(
    core::FlushSink* inner, std::unique_ptr<core::LogOrderedSink>& slot) {
  if (log_ == nullptr) return inner;
  slot = std::make_unique<core::LogOrderedSink>(inner, log_);
  return slot.get();
}

void WritebackPath::check_hazard(LineAddr first, LineAddr last) {
  // A line still in this context's ring may be written back with the new
  // bytes; with elision (§13) the hazard crosses contexts — a line pending
  // in the shared table may be carried by another context's scheduled
  // write-back. If the log media rejects the sync, drain the own ring
  // instead: with no line of this store in flight the hazard is gone.
  const bool own_ring = !flush_degraded_;
  for (LineAddr line = first; line <= last; ++line) {
    const bool inflight = own_ring && async_->maybe_inflight(line);
    const bool cross = elision_ != nullptr && elision_->pending(line);
    if (inflight || cross) {
      if (!log_->sync() && own_ring) async_->drain();
      return;
    }
  }
}

void WritebackPath::degrade(std::uint64_t degrade_after) {
  const bool trigger = faults_->quarantined_count() > 0 ||
                       faults_->transients() >= degrade_after;
  if (!trigger) return;
  if (async_ != nullptr && !flush_degraded_) {
    // Async→sync: drain the ring so no line is stranded behind the
    // reroute. A misbehaving medium does not earn the pipeline back.
    async_->drain();
    route_ = degraded_;
    flush_degraded_ = true;
  }
  if (log_ != nullptr && !log_degraded_ &&
      log_->mode() == LogSyncMode::kBatched) {
    // Batched→strict: persist what is pending under the old discipline
    // (best effort — a failure surfaces as a transient and the per-record
    // syncs retry the same range), then every record is durable before
    // its pstore returns.
    log_->sync();
    log_->degrade_to_strict();
    log_degraded_ = true;
  }
}

}  // namespace nvc::runtime
