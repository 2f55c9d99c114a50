#include "core/fault_sink.hpp"

#include <algorithm>
#include <chrono>

#include "common/assert.hpp"

namespace nvc::core {

namespace {

/// Busy-wait backoff. Zero duration returns immediately so deterministic
/// schedulers (the crash fuzzer) can retry without consuming wall clock.
void backoff_spin(std::uint64_t ns) noexcept {
  if (ns == 0) return;
  const auto start = std::chrono::steady_clock::now();
  while (static_cast<std::uint64_t>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now() - start)
                 .count()) < ns) {
#if defined(__x86_64__)
    __builtin_ia32_pause();
#endif
  }
}

}  // namespace

std::vector<LineAddr> FaultStats::quarantined_lines() const {
  std::vector<LineAddr> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.assign(poisoned_.begin(), poisoned_.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void FaultStats::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  poisoned_.clear();
  transients_.store(0, std::memory_order_release);
  retries_.store(0, std::memory_order_release);
  quarantined_.store(0, std::memory_order_release);
}

FaultTolerantSink::FaultTolerantSink(FlushSink* inner, FaultStats* stats,
                                     RetryPolicy policy)
    : inner_(inner), stats_(stats), policy_(policy) {
  NVC_REQUIRE(inner_ != nullptr && stats_ != nullptr);
}

FaultTolerantSink::FaultTolerantSink(std::unique_ptr<FlushSink> inner,
                                     std::shared_ptr<FaultStats> stats,
                                     RetryPolicy policy)
    : owned_(std::move(inner)),
      owned_stats_(std::move(stats)),
      inner_(owned_.get()),
      stats_(owned_stats_.get()),
      policy_(policy) {
  NVC_REQUIRE(inner_ != nullptr && stats_ != nullptr);
}

bool FaultTolerantSink::flush_line(LineAddr line) {
  // Poisoned lines fail fast: retrying known-bad media wastes the backoff
  // budget of every later flush (and on the worker thread would stall the
  // whole ring behind one dead line).
  if (stats_->quarantined(line)) return false;
  std::uint64_t backoff = policy_.backoff_ns;
  for (std::uint32_t attempt = 0;; ++attempt) {
    if (inner_->flush_line(line)) return true;
    stats_->note_transient();
    if (attempt >= policy_.max_retries) break;
    stats_->note_retry();
    backoff_spin(backoff);
    backoff = std::min(backoff * 2, policy_.backoff_cap_ns);
  }
  stats_->quarantine(line);
  return false;
}

}  // namespace nvc::core
