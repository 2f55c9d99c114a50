// Retry, backoff, and quarantine for fallible write-backs.
//
// A FlushSink below this decorator may reject a line (media busy, bad
// line — pmem/fault.hpp injects both). FaultTolerantSink absorbs the
// transient class with capped exponential backoff and converts the
// persistent class into *quarantine*: the line is recorded in a shared
// FaultStats poisoned set, further flushes of it fail fast, and the
// runtime above reads the stats to latch graceful degradation (async →
// sync flushing, batched → strict log sync) and to answer HealthReport
// queries.
//
// This module is deliberately pmem-agnostic: core never sees the injector,
// only boolean flush outcomes, so the same machinery would wrap a real
// machine-check-reporting backend. Counters follow the release-publish
// discipline of the flush pipeline (PR 3): the async worker publishes with
// release stores, stats readers on other threads acquire.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "common/types.hpp"
#include "core/write_cache.hpp"

namespace nvc::core {

/// Retry schedule for transiently failing write-backs. Backoff doubles per
/// retry up to the cap; zero backoff spins not at all (deterministic test
/// schedulers rely on that — a retry is then just another attempt).
struct RetryPolicy {
  std::uint32_t max_retries = 8;
  std::uint64_t backoff_ns = 200;
  std::uint64_t backoff_cap_ns = 10000;
};

/// Shared fault accounting: one instance per runtime (or rig context),
/// written by every FaultTolerantSink wrapping that runtime's paths —
/// including the one living worker-side inside a FlushChannel — and read
/// by stats/health aggregation on the application thread.
class FaultStats {
 public:
  /// A write-back attempt failed (before any retry verdict).
  void note_transient() noexcept {
    transients_.fetch_add(1, std::memory_order_release);
  }

  /// A retry attempt was issued.
  void note_retry() noexcept {
    retries_.fetch_add(1, std::memory_order_release);
  }

  /// `line` exhausted its retries: poison it. Idempotent.
  void quarantine(LineAddr line) {
    std::lock_guard<std::mutex> lock(mu_);
    if (poisoned_.insert(line).second) {
      quarantined_.fetch_add(1, std::memory_order_release);
    }
  }

  /// Fast-fail check: true when `line` is poisoned. The common healthy
  /// case is one acquire load (count == 0), no lock.
  bool quarantined(LineAddr line) const {
    if (quarantined_.load(std::memory_order_acquire) == 0) return false;
    std::lock_guard<std::mutex> lock(mu_);
    return poisoned_.contains(line);
  }

  std::uint64_t transients() const noexcept {
    return transients_.load(std::memory_order_acquire);
  }
  std::uint64_t retries() const noexcept {
    return retries_.load(std::memory_order_acquire);
  }
  std::uint64_t quarantined_count() const noexcept {
    return quarantined_.load(std::memory_order_acquire);
  }

  /// Snapshot of the poisoned-line set, sorted for stable reporting.
  std::vector<LineAddr> quarantined_lines() const;

  void reset();

 private:
  std::atomic<std::uint64_t> transients_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> quarantined_{0};
  mutable std::mutex mu_;
  std::unordered_set<LineAddr> poisoned_;
};

/// FlushSink decorator implementing retry + quarantine over a fallible
/// inner sink. Flush outcome contract: true = line durable (possibly after
/// retries); false = line quarantined (now or earlier) and NOT durable.
class FaultTolerantSink final : public FlushSink {
 public:
  /// Non-owning inner (application-thread paths).
  FaultTolerantSink(FlushSink* inner, FaultStats* stats, RetryPolicy policy);

  /// Owning (worker-side: the FlushChannel owns this sink and may outlive
  /// the runtime, so the sink shares ownership of the stats too).
  FaultTolerantSink(std::unique_ptr<FlushSink> inner,
                    std::shared_ptr<FaultStats> stats, RetryPolicy policy);

  bool flush_line(LineAddr line) override;
  void drain() override { inner_->drain(); }

  const RetryPolicy& policy() const noexcept { return policy_; }

 private:
  std::unique_ptr<FlushSink> owned_;
  std::shared_ptr<FaultStats> owned_stats_;
  FlushSink* inner_;
  FaultStats* stats_;
  RetryPolicy policy_;
};

}  // namespace nvc::core
