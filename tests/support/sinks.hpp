// FlushSinks shared by the unit suites and the crash rig.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/types.hpp"
#include "core/write_cache.hpp"

namespace nvc::testing {

/// Records every line it receives, in order, and counts drains. Locked, so
/// a flush worker and a helping producer may both deliver.
struct RecordingSink final : core::FlushSink {
  bool flush_line(LineAddr line) override {
    std::lock_guard<std::mutex> lock(mutex);
    lines.push_back(line);
    return true;
  }
  void drain() override { drains.fetch_add(1, std::memory_order_relaxed); }
  std::vector<LineAddr> snapshot() const {
    std::lock_guard<std::mutex> lock(mutex);
    return lines;
  }

  mutable std::mutex mutex;
  std::vector<LineAddr> lines;
  std::atomic<std::uint64_t> drains{0};
};

/// Forwards into an externally owned sink: a FlushChannel wants to own its
/// worker-side sink, while the test (or rig) keeps the target to inspect.
struct ForwardSink final : core::FlushSink {
  explicit ForwardSink(core::FlushSink* t) : target(t) {}
  bool flush_line(LineAddr line) override { return target->flush_line(line); }
  void drain() override { target->drain(); }
  core::FlushSink* target;
};

}  // namespace nvc::testing
