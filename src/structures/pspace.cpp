#include "structures/pspace.hpp"

#include <cstring>

#include "common/assert.hpp"

namespace nvc::structures {

PSpace::PSpace(bool elide) : elide_(elide) {}

POffset PSpace::alloc_lines(std::size_t lines) {
  NVC_REQUIRE(lines > 0);
  const POffset off =
      bump_.fetch_add(lines * kCacheLineSize, std::memory_order_relaxed);
  NVC_REQUIRE(off + lines * kCacheLineSize <= size(),
              "PSpace arena exhausted — size the test's arena up");
  return off;
}

void PSpace::flush_range(POffset off, std::size_t len, bool writer) {
  NVC_ASSERT(len > 0 && off + len <= size());
  const LineAddr first = line_of(off);
  const LineAddr last = line_of(off + len - 1);
  for (LineAddr line = first; line <= last; ++line) {
    if (writer) {
      // Writer protocol: tag → write-back → untag. The helper-visible
      // pending count covers the whole window in which the write-back may
      // not have completed; an elision is legal only strictly after it.
      const core::FlushElisionTable::Tag tag = flit_.tag(line);
      if (bug_early_untag_) flit_.untag(line, tag);  // seeded bug
      yield();  // the window the turnstile parks writers in
      flush_line_impl(line);
      media_writes_.fetch_add(1, std::memory_order_relaxed);
      writer_flushes_.fetch_add(1, std::memory_order_relaxed);
      if (!bug_early_untag_) flit_.untag(line, tag);
    } else {
      yield();
      if (elide_ && !flit_.pending(line)) {
        // Every tagged write-back of this line completed: the bytes this
        // helper depends on are durable, the flush is redundant (FliT).
        helper_elisions_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      flush_line_impl(line);
      media_writes_.fetch_add(1, std::memory_order_relaxed);
      helper_flushes_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void PSpace::persist(POffset off, std::size_t len) {
  flush_range(off, len, /*writer=*/true);
}

bool PSpace::cas_persist(POffset off, std::uint64_t expected,
                         std::uint64_t desired) {
  NVC_ASSERT(off % sizeof(std::uint64_t) == 0 && off + 8 <= size());
  const LineAddr line = line_of(off);
  // Tag BEFORE the CAS: from a helper's point of view the publication and
  // its write-back are one pending unit. A zero count therefore proves the
  // published value is on media, not merely that no flush is running.
  const core::FlushElisionTable::Tag tag = flit_.tag(line);
  yield();
  const bool won = word(off).compare_exchange_strong(
      expected, desired, std::memory_order_acq_rel, std::memory_order_acquire);
  if (!won) {
    flit_.untag(line, tag);
    return false;
  }
  if (bug_early_untag_) flit_.untag(line, tag);  // seeded bug
  yield();  // the window the turnstile parks writers in
  flush_line_impl(line);
  media_writes_.fetch_add(1, std::memory_order_relaxed);
  writer_flushes_.fetch_add(1, std::memory_order_relaxed);
  if (!bug_early_untag_) flit_.untag(line, tag);
  return true;
}

void PSpace::persist_help(POffset off, std::size_t len) {
  flush_range(off, len, /*writer=*/false);
}

// --- HeapPSpace -------------------------------------------------------------

HeapPSpace::HeapPSpace(std::size_t bytes, bool elide, pmem::WearTracker* wear)
    : PSpace(elide), size_(bytes), wear_(wear) {
  NVC_REQUIRE(bytes >= 2 * kCacheLineSize);
  arena_ = std::make_unique<std::uint8_t[]>(bytes + kCacheLineSize);
  const auto raw = reinterpret_cast<std::uintptr_t>(arena_.get());
  aligned_ = reinterpret_cast<std::uint8_t*>(
      align_up(raw, kCacheLineSize));
  std::memset(aligned_, 0, bytes);
}

std::uint64_t HeapPSpace::durable_u64(POffset off) const {
  std::uint64_t v;
  std::memcpy(&v, aligned_ + off, sizeof v);
  return v;
}

void HeapPSpace::flush_line_impl(LineAddr line) {
  if (wear_ != nullptr) wear_->record(line);
}

// --- ShadowPSpace -----------------------------------------------------------

ShadowPSpace::ShadowPSpace(std::size_t bytes, bool elide)
    : PSpace(elide), shadow_(bytes) {
  shadow_.start_clock();
}

}  // namespace nvc::structures
