// One context's FASE protocol (DESIGN.md §8): nesting, undo logging, the
// caching policy and the write-back route, in the order every FASE runs
// them. Runtime's per-thread contexts and the crash rig's logical contexts
// each hold one, so the protocol the crash suites check is the one that
// ships. The store-path members are inline: Runtime::pstore, pwrote and
// fase_end pay no extra call for the indirection.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>

#include "common/assert.hpp"
#include "common/types.hpp"
#include "core/policy.hpp"
#include "runtime/undo_log.hpp"
#include "runtime/writeback_path.hpp"

namespace nvc::runtime {

class FaseContext {
 public:
  /// `log` may be null (no undo logging); `path` is composed over it.
  FaseContext(std::unique_ptr<core::Policy> policy,
              std::unique_ptr<UndoLog> log, WritebackPath::Inputs path)
      : policy_(std::move(policy)),
        log_(std::move(log)),
        path_(with_log(std::move(path), log_.get())) {}

  FaseContext(const FaseContext&) = delete;
  FaseContext& operator=(const FaseContext&) = delete;

  /// Enter a FASE (nestable). Only the outermost begin checks the
  /// degradation latches and reaches the policy.
  void begin(std::uint64_t degrade_after) {
    if (depth_++ == 0) {
      path_.maybe_degrade(degrade_after);
      policy_->on_fase_begin(path_.route());
    }
  }

  /// Leave a FASE. The outermost end flushes what the policy buffered
  /// through the route (a log sync precedes each data flush), then commits
  /// the log — the FASE's atomic commit point — unless a quarantine
  /// suspended commits. Returns true when the outermost end committed;
  /// without a log the boundary itself is the commit point.
  bool end() {
    NVC_REQUIRE(depth_ > 0, "fase_end without matching fase_begin");
    if (--depth_ != 0) return false;
    policy_->on_fase_end(path_.route());
    if (log_ == nullptr) return true;
    // Checked after the policy's flushes: that is where quarantine
    // verdicts land.
    return path_.commit_allowed() && log_->commit();
  }

  /// True when a store must be undo-logged: inside a FASE, with a log.
  bool logging() const noexcept { return log_ != nullptr && depth_ > 0; }

  /// What must precede a logged write of `len` bytes over lines
  /// [first, last]: undo records of the current bytes `old` under `token`,
  /// in kMaxPayload pieces, then the write-after-enqueue hazard check.
  /// Requires logging().
  void log_store(std::uint64_t token, const void* old, std::size_t len,
                 LineAddr first, LineAddr last) {
    const auto* bytes = static_cast<const std::uint8_t*>(old);
    for (std::size_t done = 0; done < len;) {
      const auto piece = static_cast<std::uint32_t>(
          std::min<std::size_t>(len - done, UndoLog::kMaxPayload));
      log_->record(token + done, bytes + done, piece);
      done += piece;
    }
    path_.before_store(first, last);
  }

  /// Report the written lines [first, last] to the policy.
  void stored(LineAddr first, LineAddr last) {
    core::FlushSink& sink = path_.route();
    for (LineAddr line = first; line <= last; ++line) {
      policy_->on_store(line, sink);
    }
  }

  /// Mid-FASE persistence barrier: flush what the policy buffered without
  /// signalling a FASE boundary.
  void barrier() { policy_->flush_buffered(path_.route()); }
  /// Program end: flush everything the policy buffered.
  void finish() { policy_->finish(path_.route()); }

  core::Policy& policy() const noexcept { return *policy_; }
  UndoLog* log() const noexcept { return log_.get(); }
  WritebackPath& path() noexcept { return path_; }
  const WritebackPath& path() const noexcept { return path_; }
  std::uint32_t depth() const noexcept { return depth_; }

 private:
  static WritebackPath::Inputs with_log(WritebackPath::Inputs in,
                                        UndoLog* log) {
    in.log = log;
    return in;
  }

  std::unique_ptr<core::Policy> policy_;
  std::unique_ptr<UndoLog> log_;
  /// Declared after the log it orders against: its destructor drains the
  /// flush ring while the log is still alive.
  WritebackPath path_;
  std::uint32_t depth_ = 0;
};

}  // namespace nvc::runtime
