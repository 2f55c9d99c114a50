#include "pmem/shadow.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/assert.hpp"
#include "pmem/fault.hpp"

namespace nvc::pmem {

ShadowPmem::AlignedImage ShadowPmem::make_image(std::size_t size) {
  // Cache-line aligned so pointer-based line arithmetic (volatile_base())
  // agrees with the offset-based line model.
  auto* p = static_cast<std::uint8_t*>(
      std::aligned_alloc(kCacheLineSize, align_up(size, kCacheLineSize)));
  NVC_REQUIRE(p != nullptr);
  std::memset(p, 0, size);
  return AlignedImage(p, &std::free);
}

ShadowPmem::ShadowPmem(std::size_t size)
    : size_(size), volatile_(make_image(size)), durable_(make_image(size)) {
  NVC_REQUIRE(size > 0);
}

void ShadowPmem::store(PmAddr addr, const void* data, std::size_t len) {
  NVC_REQUIRE(addr + len <= size_, "store out of region");
  std::lock_guard<std::mutex> lock(mutex_);
  std::memcpy(volatile_.get() + addr, data, len);
  ++stores_;
  const LineAddr first = line_of(addr);
  const LineAddr last = line_of(addr + len - 1);
  for (LineAddr line = first; line <= last; ++line) dirty_.insert(line);
  claim_locked();
}

void ShadowPmem::load(PmAddr addr, void* out, std::size_t len) const {
  NVC_REQUIRE(addr + len <= size_, "load out of region");
  std::memcpy(out, volatile_.get() + addr, len);
}

bool ShadowPmem::flush_line(LineAddr line) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t event = claim_locked();
  if (frozen_) {
    // Power is off: the write-back never happens — unless it raced the cut
    // and lands torn.
    maybe_tear(line, event);
    return true;
  }
  ++flushes_;
  const PmAddr base = line_base(line);
  if (base >= size_) return true;  // flush of a line we never mapped
  if (injector_ != nullptr && injector_->on_flush_attempt(line).fail) {
    ++fault_drops_;
    return false;  // media rejected the write-back; durable image untouched
  }
  const std::size_t len = std::min(kCacheLineSize, size_ - base);
  std::memcpy(durable_.get() + base, volatile_.get() + base, len);
  dirty_.erase(line);
  bytes_written_ += len;
  ++line_writes_[line];
  return true;
}

void ShadowPmem::flush_line_torn(LineAddr line, std::size_t bytes) {
  NVC_REQUIRE(bytes > 0 && bytes < kCacheLineSize && bytes % 8 == 0,
              "torn length must be a multiple of 8 below a full line");
  std::lock_guard<std::mutex> lock(mutex_);
  flush_torn_locked(line, bytes);
}

void ShadowPmem::flush_torn_locked(LineAddr line, std::size_t bytes) {
  const PmAddr base = line_base(line);
  if (base >= size_) return;
  ++torn_flushes_;
  const std::size_t len = std::min(bytes, size_ - base);
  std::memcpy(durable_.get() + base, volatile_.get() + base, len);
  // The line stays dirty: bytes past the tear never persisted. The prefix
  // did program media cells, so it wears the line like any write.
  bytes_written_ += len;
  ++line_writes_[line];
}

void ShadowPmem::flush_all() {
  // Copy to avoid iterating a set while erasing from it.
  std::vector<LineAddr> lines(dirty_.begin(), dirty_.end());
  for (LineAddr line : lines) flush_line(line);
}

void ShadowPmem::crash() {
  std::lock_guard<std::mutex> lock(mutex_);
  frozen_ = false;  // the restarted machine has power again
  counting_ = false;
  std::memcpy(volatile_.get(), durable_.get(), size_);
  dirty_.clear();
}

void ShadowPmem::start_clock() {
  std::lock_guard<std::mutex> lock(mutex_);
  counting_ = true;
}

std::uint64_t ShadowPmem::claim_event() {
  std::lock_guard<std::mutex> lock(mutex_);
  return claim_locked();
}

std::uint64_t ShadowPmem::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

void ShadowPmem::freeze_at(std::uint64_t event) {
  std::lock_guard<std::mutex> lock(mutex_);
  freeze_event_ = event;
}

void ShadowPmem::set_tear_burst(std::size_t lines) {
  std::lock_guard<std::mutex> lock(mutex_);
  tear_burst_ = lines;
}

std::uint64_t ShadowPmem::claim_locked() {
  if (!counting_) return 0;
  const std::uint64_t event = ++events_;
  // The first claim past the cut is the power failure itself: from here on
  // no write-back path, however indirect, reaches the durable image.
  if (event > freeze_event_) frozen_ = true;
  return event;
}

void ShadowPmem::fence() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (frozen_ && tear_depth_ > 0) tear_closed_ = true;
}

void ShadowPmem::maybe_tear(LineAddr line, std::uint64_t event) {
  // The write queue racing the power cut can hold *several* lines: every
  // flush in the gapless run of post-cut events freeze+1, freeze+2, … was
  // issued back-to-back with no intervening activity, i.e. it sat in the
  // same in-flight burst when power failed. Each such line independently
  // drops or lands torn, per the injector's pure per-line tear decision.
  //
  // What keeps recovery sound is when the window *closes* — permanently:
  //   * on any event-index gap (a store or a powered flush claimed an index:
  //     the burst was over, later flushes are ordinary post-cut activity
  //     that never reached the queue);
  //   * on any post-cut fence(): ordering issued after the cut never
  //     completed, so flushes sequenced behind it were never issued — in
  //     particular a batched log sync's fence sits between the log flushes
  //     and the data flushes it orders, so a data line can never tear in
  //     ahead of the (dropped) records that cover it;
  //   * at tear_burst_ lines (a write queue has finite depth).
  // Within an open window every log sync ordered before the burst claimed
  // pre-cut events and is durable, so torn-in data bytes are always covered
  // by durable undo records, and torn log lines are self-certifying.
  if (injector_ == nullptr || tear_closed_) return;
  if (event == freeze_event_ + 1) {
    tear_depth_ = 1;
  } else if (tear_depth_ > 0 && event == tear_last_event_ + 1 &&
             tear_depth_ < tear_burst_) {
    ++tear_depth_;
  } else {
    if (tear_depth_ > 0) tear_closed_ = true;
    return;
  }
  tear_last_event_ = event;
  const std::size_t bytes = injector_->torn_bytes(line);
  if (bytes == 0) return;  // this line drops entirely instead of tearing
  flush_torn_locked(line, bytes);
}

WearStats ShadowPmem::wear_stats() const {
  WearStats s;
  s.lines_touched = line_writes_.size();
  std::uint64_t total = 0;
  for (const auto& [line, n] : line_writes_) {
    (void)line;
    total += n;
    s.max_line_writes = std::max(s.max_line_writes, n);
  }
  s.line_writes = total;
  s.bytes_written = bytes_written_;
  if (!line_writes_.empty()) {
    s.mean_line_writes =
        static_cast<double>(total) / static_cast<double>(line_writes_.size());
    if (s.mean_line_writes > 0.0) {
      s.leveling_skew =
          static_cast<double>(s.max_line_writes) / s.mean_line_writes - 1.0;
    }
  }
  return s;
}

void ShadowPmem::load_durable(PmAddr addr, void* out, std::size_t len) const {
  NVC_REQUIRE(addr + len <= size_, "durable load out of region");
  std::memcpy(out, durable_.get() + addr, len);
}

}  // namespace nvc::pmem
