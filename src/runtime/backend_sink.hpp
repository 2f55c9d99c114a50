// Bridge from the policies' FlushSink interface to a pmem::FlushBackend:
// flush_line() issues a real cache-line write-back, drain() a fence. The
// backend's own counters keep the per-thread flush/fence accounting.
#pragma once

#include <memory>

#include "core/write_cache.hpp"
#include "pmem/fault.hpp"
#include "pmem/flush.hpp"

namespace nvc::runtime {

class BackendSink final : public core::FlushSink {
 public:
  explicit BackendSink(pmem::FlushBackend* backend) : backend_(backend) {}

  bool flush_line(LineAddr line) override {
    return backend_->flush(reinterpret_cast<const void*>(line_base(line))) ==
           pmem::FlushResult::kOk;
  }
  void drain() override { backend_->fence(); }

 private:
  pmem::FlushBackend* backend_;
};

/// Worker-side sink for the flush-behind pipeline (core::FlushChannel owns
/// one). It owns its backend outright — the backend's plain counters are
/// only ever touched from whichever thread holds the channel's consumer
/// lock, and stats aggregation reads the channel's atomic flushed() count
/// instead — and issues posted write-backs: the producer's drain() fence
/// (and, for the simulated kind, its device-timeline model) is where
/// completion is awaited, so the worker never stalls per line.
class IssueSink final : public core::FlushSink {
 public:
  IssueSink(pmem::FlushKind kind, std::uint32_t simulated_latency_ns)
      : backend_(kind, simulated_latency_ns) {}

  bool flush_line(LineAddr line) override {
    return backend_.issue(reinterpret_cast<const void*>(line_base(line))) ==
           pmem::FlushResult::kOk;
  }
  void drain() override { backend_.fence(); }

  const pmem::FlushBackend& backend() const noexcept { return backend_; }
  pmem::FlushBackend& backend() noexcept { return backend_; }

  /// Shares ownership of the injector: the channel owning this sink may
  /// outlive the runtime that created it.
  void set_fault_injector(std::shared_ptr<pmem::FaultInjector> injector) {
    injector_ = std::move(injector);
    backend_.set_fault_injector(injector_.get());
  }

 private:
  std::shared_ptr<pmem::FaultInjector> injector_;
  pmem::FlushBackend backend_;
};

}  // namespace nvc::runtime
