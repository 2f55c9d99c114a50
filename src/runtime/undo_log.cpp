#include "runtime/undo_log.hpp"

#include <cstring>

#include "common/assert.hpp"
#include "common/checksum.hpp"

namespace nvc::runtime {

std::optional<LogSyncMode> parse_log_sync_mode(std::string_view name) {
  if (name == "strict") return LogSyncMode::kStrict;
  if (name == "batched") return LogSyncMode::kBatched;
  return std::nullopt;
}

const char* to_string(LogSyncMode mode) {
  switch (mode) {
    case LogSyncMode::kStrict:
      return "strict";
    case LogSyncMode::kBatched:
      return "batched";
  }
  NVC_UNREACHABLE("invalid LogSyncMode");
}

UndoLog::UndoLog(void* base, std::size_t size, core::FlushSink* sink,
                 LogSyncMode mode)
    : base_(static_cast<char*>(base)), size_(size), sink_(sink), mode_(mode) {
  NVC_REQUIRE(base_ != nullptr);
  NVC_REQUIRE(sink_ != nullptr);
  NVC_REQUIRE((reinterpret_cast<std::uintptr_t>(base_) % kCacheLineSize) == 0,
              "log segment must be cache-line aligned");
  NVC_REQUIRE(size_ >= kHeaderSize + kMaxPayload + sizeof(EntryHead));
  NVC_REQUIRE(size_ <= 0xffffffffULL, "tail must fit the packed state word");
  if (valid()) {
    // Reopened segment (restart path): adopt the durable generation and
    // tail, and treat any self-certifying entries beyond the tail as the
    // appended extent (batched-mode records that made it to NVRAM).
    const std::uint64_t state = header()->state;
    gen_ = state_gen(state);
    synced_tail_ = state_tail(state);
    const Inspection ins = inspect(base_, size_);
    NVC_REQUIRE(ins.tail_covered,
                "corrupt undo log: synced entries fail validation");
    appended_tail_ = ins.certified_extent;
    // A previous run's entries past a torn gap are not in the chain but
    // still certify under gen_; only a generation bump retires them.
    inherited_gen_ = true;
  }
}

bool UndoLog::persist(const void* p, std::size_t len) {
  NVC_ASSERT(len > 0);
  const auto addr = reinterpret_cast<PmAddr>(p);
  const LineAddr first = line_of(addr);
  const LineAddr last = line_of(addr + len - 1);
  bool ok = true;
  // Attempt every line even after a failure (retry/quarantine accounting
  // below the sink wants to see each one), then fence what did land.
  for (LineAddr line = first; line <= last; ++line) {
    ok = sink_->flush_line(line) && ok;
  }
  sink_->drain();
  return ok;
}

bool UndoLog::publish_state(std::uint32_t gen, std::uint64_t tail) {
  // A single aligned 8-byte store: atomic with respect to power failure, so
  // generation and tail can never tear apart.
  const std::uint64_t previous = header()->state;
  header()->state = pack_state(gen, tail);
  if (persist(&header()->state, sizeof(header()->state))) return true;
  // The durable header still holds `previous`: restore the volatile view
  // to match so in-memory reads (tail(), inspect()) never run ahead
  // of what a crash would leave behind.
  header()->state = previous;
  return false;
}

std::uint32_t UndoLog::entry_check(std::uint64_t addr_token, std::uint32_t len,
                                   std::uint32_t gen,
                                   const void* payload) noexcept {
  // FNV-1a over token, length, generation, and the payload bytes. The
  // generation term invalidates stale entries after commit(); the payload
  // term catches torn entries whose head line persisted without the data.
  // The mix order (token LE, len LE, gen LE, payload) is the durable format
  // from PR 2 — common/checksum.hpp reproduces it bit-for-bit.
  Fnv32 h;
  h.mix_le(addr_token);
  h.mix_le(len);
  h.mix_le(gen);
  h.mix_bytes(payload, len);
  return h.value();
}

void UndoLog::format() {
  LogHeader* h = header();
  h->magic = kMagic;
  gen_ = 1;
  h->state = pack_state(gen_, kHeaderSize);
  appended_tail_ = synced_tail_ = kHeaderSize;
  persist(h, sizeof(LogHeader));
}

bool UndoLog::valid() const { return header()->magic == kMagic; }

std::uint64_t UndoLog::tail() const { return state_tail(header()->state); }

UndoLog::Inspection UndoLog::inspect(const void* base, std::size_t size) {
  Inspection out;
  if (base == nullptr || size < kHeaderSize + sizeof(EntryHead)) return out;
  const char* bytes = static_cast<const char*>(base);
  LogHeader head_copy;
  std::memcpy(&head_copy, bytes, sizeof(head_copy));
  if (head_copy.magic != kMagic) return out;
  out.formatted = true;
  out.gen = state_gen(head_copy.state);
  out.durable_tail = state_tail(head_copy.state);
  out.state_plausible =
      out.durable_tail >= kHeaderSize && out.durable_tail <= size;
  std::uint64_t off = kHeaderSize;
  while (off + sizeof(EntryHead) <= size) {
    EntryHead entry;
    std::memcpy(&entry, bytes + off, sizeof(entry));
    if (entry.len < 1 || entry.len > kMaxPayload) break;
    const std::uint64_t entry_size = sizeof(EntryHead) + align_up(entry.len, 8);
    if (off + entry_size > size) break;
    if (entry.check != entry_check(entry.addr_token, entry.len, out.gen,
                                   bytes + off + sizeof(EntryHead))) {
      break;
    }
    out.offsets.push_back(off);
    off += entry_size;
  }
  out.certified_extent = off;
  // Everything below the durable tail was synced (flushed + fenced) before
  // the tail was published; a chain that stops short of it means synced
  // bytes were corrupted after the fact.
  out.tail_covered = out.state_plausible && off >= out.durable_tail;
  return out;
}

void UndoLog::record(std::uint64_t addr_token, const void* current_bytes,
                     std::uint32_t len) {
  NVC_REQUIRE(len >= 1 && len <= kMaxPayload);
  const std::uint64_t entry_size = sizeof(EntryHead) + align_up(len, 8);
  NVC_REQUIRE(appended_tail_ + entry_size <= size_,
              "undo log segment overflow");

  char* entry = base_ + appended_tail_;
  char* payload = entry + sizeof(EntryHead);
  std::memcpy(payload, current_bytes, len);
  auto* head = reinterpret_cast<EntryHead*>(entry);
  head->addr_token = addr_token;
  head->len = len;
  head->check = entry_check(addr_token, len, gen_, payload);

  appended_tail_ += entry_size;
  ++records_;
  bytes_logged_ += entry_size;

  // Strict mode: the entry must be durable before the tail that covers it,
  // and the tail durable before the caller's in-place data update.
  if (mode_ == LogSyncMode::kStrict) sync();
}

bool UndoLog::sync() {
  if (appended_tail_ == synced_tail_) return true;
  // Entries must be durable before the tail that covers them: a failed
  // entry flush leaves the synced state untouched so the next sync (or a
  // retry above us) covers the same range again.
  if (!persist(base_ + synced_tail_, appended_tail_ - synced_tail_)) {
    return false;
  }
  if (!publish_state(gen_, appended_tail_)) return false;
  synced_tail_ = appended_tail_;
  ++sync_points_;
  return true;
}

bool UndoLog::commit() {
  // An empty generation has nothing to de-certify: the durable header
  // already reads (gen_, kHeaderSize) and no byte past it certifies under
  // gen_, so a crash before or after this point recovers the same image.
  // The test is on appended_tail_, not synced_tail_: an appended entry that
  // never synced may still sit in the media, certified under gen_, until
  // the bump below de-certifies it.
  if (appended_tail_ == kHeaderSize && !inherited_gen_) return true;
  // Advancing the generation de-certifies every entry of this FASE in one
  // atomic durable store; unsynced entries are simply discarded.
  if (!publish_state(gen_ + 1, kHeaderSize)) {
    // The durable header still certifies this generation's records; keep
    // the volatile generation in step so recovery (which would roll the
    // whole FASE back) and future records agree on it.
    return false;
  }
  ++gen_;
  appended_tail_ = synced_tail_ = kHeaderSize;
  inherited_gen_ = false;
  return true;
}

}  // namespace nvc::runtime
