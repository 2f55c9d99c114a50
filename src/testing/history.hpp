// Operation histories for the linearizability + durability harness.
//
// Each structure operation is recorded as an invocation/response pair of
// timestamps drawn from a pluggable clock. Under the crash rig the clock is
// pmem::ShadowPmem::claim_event — the SAME event counter that media
// write-backs claim — so a crash cut at event e cleanly partitions the
// history:
//
//   res <= e          completed before the cut (its effect must survive)
//   inv <= e < res    pending at the cut (may or may not have taken effect;
//                     its return value was never observed)
//   inv > e           never invoked (excluded)
//
// which is exactly the input shape check_durable() (linearizability.hpp)
// consumes. Free-running stress tests use the recorder's internal atomic
// clock instead and check ordinary linearizability of the full history.
//
// Threads append only to their own lane; merging happens in snapshot()
// after the workers have joined. No locks anywhere on the hot path.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/assert.hpp"

namespace nvc::testing {

enum class OpCode : std::uint8_t {
  kEnqueue,
  kDequeue,
  kInsert,
  kErase,
  kContains,
};

const char* op_name(OpCode code) noexcept;

inline constexpr std::uint64_t kNoResponse = ~std::uint64_t{0};

struct Op {
  std::size_t thread = 0;
  OpCode code = OpCode::kEnqueue;
  std::uint64_t arg = 0;   // enqueue value; map/skiplist key
  std::uint64_t arg2 = 0;  // insert value
  bool ok = false;         // recorded boolean result
  std::uint64_t ret = 0;   // dequeued / erased / looked-up value
  std::uint64_t inv = 0;
  std::uint64_t res = kNoResponse;

  bool completed_by(std::uint64_t cut) const noexcept { return res <= cut; }
  std::string describe() const;
};

class HistoryRecorder {
 public:
  using Clock = std::function<std::uint64_t()>;

  /// With no clock, an internal atomic counter is used (free-running mode).
  /// Under the crash rig pass [&ps] { return ps.shadow().claim_event(); }
  /// so history timestamps and flush events share one total order.
  explicit HistoryRecorder(std::size_t threads, Clock clock = {});

  /// Record an invocation on `thread`'s lane; returns the lane index to
  /// hand back to end().
  std::size_t begin(std::size_t thread, OpCode code, std::uint64_t arg,
                    std::uint64_t arg2 = 0);
  void end(std::size_t thread, std::size_t idx, bool ok,
           std::uint64_t ret = 0);

  /// Merged history (call after workers join). Sorted by invocation time.
  std::vector<Op> snapshot() const;

  /// The history as a crash at event `cut` leaves it: ops invoked by the
  /// cut, sorted; responses after the cut are erased to kNoResponse
  /// (pending — the caller never saw them return).
  std::vector<Op> cut(std::uint64_t event) const;

 private:
  Clock clock_;
  std::atomic<std::uint64_t> internal_{0};
  std::vector<std::vector<Op>> lanes_;

  std::uint64_t tick() {
    return clock_ ? clock_()
                  : internal_.fetch_add(1, std::memory_order_acq_rel);
  }
};

}  // namespace nvc::testing
