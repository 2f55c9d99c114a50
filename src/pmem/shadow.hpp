// Shadow persistent-memory model for crash-consistency testing.
//
// Real hardware keeps recently written lines in the (volatile) CPU cache;
// only flushed lines are guaranteed durable. ShadowPmem makes that split
// explicit: every store lands in the volatile image, a flush copies the
// affected cache line into the durable image, and crash() discards all
// unflushed state. Tests drive a policy against this model and then check
// what an actual power failure would have left in NVRAM.
//
// It is also the one power-cut model of the crash suites (the crash rig,
// ShadowPSpace, the MDB crash test). Once start_clock() runs, every
// flush_line() and store() claims the next *event index* under the image's
// lock, atomically with its copy, so a cut is one consistent point even
// while a flush worker races the application thread. freeze_at(e) models
// power failing at event e: the first claim past e freezes the image, and
// no later write-back reaches the durable image — except that the gapless
// burst of write-backs racing the cut may land torn (see maybe_tear in the
// .cpp). Traffic before start_clock() is setup: it claims index 0 and can
// never be cut away.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "common/types.hpp"
#include "pmem/wear.hpp"

namespace nvc::pmem {

class FaultInjector;

class ShadowPmem {
 public:
  explicit ShadowPmem(std::size_t size);

  std::size_t size() const noexcept { return size_; }

  /// Write `len` bytes at byte offset `addr` into the volatile image
  /// (claims an event while the clock runs).
  void store(PmAddr addr, const void* data, std::size_t len);

  /// Convenience: store a trivially-copyable value.
  template <typename T>
  void store_value(PmAddr addr, const T& value) {
    store(addr, &value, sizeof(T));
  }

  /// Read from the volatile image (what the running program sees).
  void load(PmAddr addr, void* out, std::size_t len) const;

  template <typename T>
  T load_value(PmAddr addr) const {
    T v{};
    load(addr, &v, sizeof(T));
    return v;
  }

  /// Persist one cache line: copy it from volatile to durable (claims an
  /// event while the clock runs). Dropped (flush not counted) once the
  /// clock passed the cut, save a torn landing inside the cut's burst.
  /// Returns false when an attached FaultInjector failed the attempt (the
  /// durable image is untouched); dropped flushes return true — power is
  /// off, so no software could observe the failure anyway.
  bool flush_line(LineAddr line);

  /// Torn write-back: persist only the first `bytes` bytes of `line`
  /// (a multiple of 8 < 64). Works even past the cut — this models the
  /// write-back that raced the power cut and partially landed. The line
  /// stays dirty: its remaining bytes are still unpersisted.
  void flush_line_torn(LineAddr line, std::size_t bytes);

  /// Persist the line containing byte offset `addr`.
  void flush_addr(PmAddr addr) { flush_line(line_of(addr)); }

  /// Route every flush_line decision through `injector` (nullptr detaches).
  /// Not owned. Recovery paths detach before re-reading the image.
  void set_fault_injector(FaultInjector* injector) noexcept {
    injector_ = injector;
  }
  FaultInjector* fault_injector() const noexcept { return injector_; }

  /// Persist every dirty line (models a whole-cache flush).
  void flush_all();

  /// Power failure: all unflushed lines are lost; the volatile image is
  /// reloaded from the durable image (as a restarted process would see).
  /// Power is back after the restart and the clock stops, so recovery's
  /// own traffic is never cut.
  void crash();

  // --- power-cut clock (see file comment) -----------------------------------

  /// End of setup: from here on flushes and stores claim event indices.
  void start_clock();
  /// Claim the next index (0 before start_clock()). For clients that put
  /// their own events on this clock, e.g. a history recorder's timestamps.
  std::uint64_t claim_event();
  /// Indices claimed so far.
  std::uint64_t events() const;
  /// Power fails once the clock passes `event`.
  void freeze_at(std::uint64_t event);
  /// A fence issued by software. After the cut it closes the tear window:
  /// ordering issued after the cut never completed.
  void fence();
  /// Max lines of the burst racing the cut that may land torn (the modeled
  /// write-queue depth).
  void set_tear_burst(std::size_t lines);

  /// Read from the durable image (what recovery would see after a crash).
  void load_durable(PmAddr addr, void* out, std::size_t len) const;

  template <typename T>
  T durable_value(PmAddr addr) const {
    T v{};
    load_durable(addr, &v, sizeof(T));
    return v;
  }

  std::size_t dirty_line_count() const noexcept { return dirty_.size(); }
  bool line_dirty(LineAddr line) const { return dirty_.contains(line); }

  std::uint64_t stores() const noexcept { return stores_; }
  std::uint64_t flushes() const noexcept { return flushes_; }
  std::uint64_t fault_drops() const noexcept { return fault_drops_; }
  std::uint64_t torn_flushes() const noexcept { return torn_flushes_; }

  /// Endurance accounting (DESIGN.md §12): bytes that actually programmed
  /// the durable image — full lines plus torn prefixes; dropped attempts
  /// (frozen, out-of-range, injected failure) never count.
  std::uint64_t bytes_written() const noexcept { return bytes_written_; }
  /// Write-backs that programmed (part of) `line`.
  std::uint64_t line_write_count(LineAddr line) const {
    const auto it = line_writes_.find(line);
    return it == line_writes_.end() ? 0 : it->second;
  }
  /// Max/mean/leveling-skew over the per-line write counts.
  WearStats wear_stats() const;

  /// Raw base of the volatile image, 64-byte aligned — lets components that
  /// write through pointers (the undo log) live inside the crash model.
  /// Writes through this pointer bypass store()/dirty accounting, but
  /// flush_line() copies the whole line regardless of the dirty set, so a
  /// pointer-writing component persists correctly as long as every byte it
  /// needs durable is covered by a flush_line() before crash().
  std::uint8_t* volatile_base() noexcept { return volatile_.get(); }

 private:
  using AlignedImage = std::unique_ptr<std::uint8_t[], decltype(&std::free)>;
  static AlignedImage make_image(std::size_t size);

  /// Caller holds mutex_.
  std::uint64_t claim_locked();
  void maybe_tear(LineAddr line, std::uint64_t event);
  void flush_torn_locked(LineAddr line, std::size_t bytes);

  std::size_t size_;
  AlignedImage volatile_;
  AlignedImage durable_;
  /// Pairs every claimed index with its copy; a flush worker and the
  /// application thread may write back and store concurrently.
  mutable std::mutex mutex_;
  bool frozen_ = false;
  bool counting_ = false;
  std::uint64_t events_ = 0;
  std::uint64_t freeze_event_ = ~std::uint64_t{0};
  /// Tear window over the burst racing the cut (see maybe_tear).
  std::size_t tear_burst_ = 8;
  std::size_t tear_depth_ = 0;
  std::uint64_t tear_last_event_ = 0;
  bool tear_closed_ = false;
  FaultInjector* injector_ = nullptr;
  std::unordered_set<LineAddr> dirty_;
  std::unordered_map<LineAddr, std::uint64_t> line_writes_;
  std::uint64_t stores_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t fault_drops_ = 0;
  std::uint64_t torn_flushes_ = 0;
  std::uint64_t bytes_written_ = 0;
};

}  // namespace nvc::pmem
