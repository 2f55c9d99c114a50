// Direct unit tests for the durable undo log (runtime/undo_log), including
// the strict per-record and batched per-epoch durability protocols and the
// self-certifying entry format the batched recovery walk depends on. The
// entry walk is checked through UndoLog::inspect; rollback (newest-first
// replay, the generation bump) through RecoveryManager, the one recovery
// path the runtime ships.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "pmem/flush.hpp"
#include "runtime/backend_sink.hpp"
#include "runtime/recovery.hpp"
#include "runtime/undo_log.hpp"

namespace nvc::runtime {
namespace {

struct LogFixture : public ::testing::Test {
  LogFixture()
      : buffer(static_cast<char*>(std::aligned_alloc(64, kSize)), &std::free),
        backend(pmem::FlushKind::kCountOnly),
        sink(&backend) {
    std::memset(buffer.get(), 0, kSize);
  }

  UndoLog make_log(LogSyncMode mode = LogSyncMode::kStrict) {
    return UndoLog(buffer.get(), kSize, &sink, mode);
  }

  /// The segment as the one log of a headerless image over `data`, whose
  /// bytes the record tokens index.
  RegionView view() {
    RegionView v;
    v.data = data.data();
    v.data_size = data.size();
    v.logs = buffer.get();
    v.log_segment_size = kSize;
    v.log_segments = 1;
    v.heap_header = false;
    return v;
  }
  bool needs_recovery() { return RecoveryManager(view()).needs_recovery(); }
  /// Roll the segment back into `data`; returns records replayed.
  std::size_t recover() { return RecoveryManager(view()).run().records_undone; }
  /// Certified entries of the current generation, oldest first.
  std::vector<UndoLog::EntryHead> entries() const {
    std::vector<UndoLog::EntryHead> out;
    const UndoLog::Inspection ins = UndoLog::inspect(buffer.get(), kSize);
    for (const std::uint64_t off : ins.offsets) {
      UndoLog::EntryHead head;
      std::memcpy(&head, buffer.get() + off, sizeof head);
      out.push_back(head);
    }
    return out;
  }
  std::vector<std::uint64_t> tokens() const {
    std::vector<std::uint64_t> out;
    for (const UndoLog::EntryHead& head : entries()) {
      out.push_back(head.addr_token);
    }
    return out;
  }
  template <typename T>
  T data_at(std::uint64_t token) const {
    T v;
    std::memcpy(&v, data.data() + token, sizeof v);
    return v;
  }

  static constexpr std::size_t kSize = 16 * 1024;
  std::unique_ptr<char, decltype(&std::free)> buffer;
  std::vector<std::uint8_t> data = std::vector<std::uint8_t>(1024, 0xee);
  pmem::FlushBackend backend;
  BackendSink sink;
};

TEST_F(LogFixture, FormatProducesValidEmptyLog) {
  UndoLog log = make_log();
  log.format();
  EXPECT_TRUE(log.valid());
  EXPECT_FALSE(needs_recovery());
  EXPECT_EQ(log.tail(), UndoLog::kHeaderSize);
}

TEST_F(LogFixture, UnformattedBufferIsInvalid) {
  UndoLog log = make_log();
  EXPECT_FALSE(log.valid());
  EXPECT_FALSE(needs_recovery());
}

TEST_F(LogFixture, RecordAdvancesTailAndNeedsRecovery) {
  UndoLog log = make_log();
  log.format();
  const std::uint64_t old_value = 0x1111;
  log.record(/*addr_token=*/100, &old_value, sizeof old_value);
  EXPECT_TRUE(needs_recovery());
  EXPECT_GT(log.tail(), UndoLog::kHeaderSize);
  EXPECT_EQ(log.records(), 1u);
}

TEST_F(LogFixture, CommitTruncates) {
  UndoLog log = make_log();
  log.format();
  const std::uint64_t v = 7;
  log.record(1, &v, sizeof v);
  log.commit();
  EXPECT_FALSE(needs_recovery());
  EXPECT_EQ(log.tail(), UndoLog::kHeaderSize);
}

TEST_F(LogFixture, RollbackAppliesNewestFirst) {
  UndoLog log = make_log();
  log.format();
  const std::uint64_t first = 0xAAAA;
  const std::uint64_t second = 0xBBBB;
  log.record(500, &first, sizeof first);   // older value of token 500
  log.record(500, &second, sizeof second); // newer overwrite of same token
  const std::uint32_t gen = UndoLog::inspect(buffer.get(), kSize).gen;
  EXPECT_EQ(recover(), 2u);
  // Newest record first, so the final applied value is the *oldest* state.
  EXPECT_EQ(data_at<std::uint64_t>(500), first);
  // The rollback commits: the generation bump de-certifies both records.
  EXPECT_EQ(UndoLog::inspect(buffer.get(), kSize).gen, gen + 1);
  EXPECT_FALSE(needs_recovery());
}

TEST_F(LogFixture, RollbackRestoresExactBytesForManyRecords) {
  UndoLog log = make_log();
  log.format();
  Rng rng(6);
  // Simulated "memory": token -> value history; rollback must restore the
  // first (oldest) logged value per token.
  std::map<std::uint64_t, std::uint32_t> oldest;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t token = rng.below(20) * 8;
    const auto value = static_cast<std::uint32_t>(rng());
    log.record(token, &value, sizeof value);
    oldest.try_emplace(token, value);
  }
  EXPECT_EQ(recover(), 100u);
  std::map<std::uint64_t, std::uint32_t> restored;
  for (const auto& [token, value] : oldest) {
    (void)value;
    restored[token] = data_at<std::uint32_t>(token);
  }
  EXPECT_EQ(restored, oldest);
}

TEST_F(LogFixture, VariablePayloadSizes) {
  UndoLog log = make_log();
  log.format();
  std::vector<char> payload(UndoLog::kMaxPayload, 'x');
  log.record(0, payload.data(), 1);
  log.record(8, payload.data(), 13);  // non-multiple-of-8 length
  log.record(16, payload.data(), UndoLog::kMaxPayload);
  std::vector<std::uint32_t> lens;
  for (const UndoLog::EntryHead& head : entries()) lens.push_back(head.len);
  EXPECT_EQ(lens, (std::vector<std::uint32_t>{1, 13, UndoLog::kMaxPayload}));
  EXPECT_EQ(recover(), 3u);
  // Each record restores exactly its own length.
  EXPECT_EQ(data[0], 'x');
  EXPECT_EQ(data[1], 0xee);
  for (std::size_t i = 8; i < 16 + UndoLog::kMaxPayload; ++i) {
    EXPECT_EQ(data[i], 'x') << "byte " << i;
  }
  EXPECT_EQ(data[16 + UndoLog::kMaxPayload], 0xee);
}

TEST_F(LogFixture, StrictRecordPersistsEntryBeforeTail) {
  // Strict protocol check: each record() must flush the entry bytes and
  // fence before publishing the tail, and then flush the tail — at least
  // two flush+fence pairs per record.
  UndoLog log = make_log();
  log.format();
  backend.reset_counters();
  const std::uint64_t v = 1;
  log.record(0, &v, sizeof v);
  EXPECT_GE(backend.flush_count(), 2u);
  EXPECT_GE(backend.fence_count(), 2u);
  EXPECT_EQ(log.sync_points(), 1u);
  EXPECT_EQ(log.tail(), log.appended_tail());
}

TEST_F(LogFixture, OverflowAborts) {
  UndoLog log = make_log();
  log.format();
  std::vector<char> payload(UndoLog::kMaxPayload, 'y');
  EXPECT_DEATH(
      {
        for (int i = 0; i < 100000; ++i) {
          log.record(0, payload.data(), UndoLog::kMaxPayload);
        }
      },
      "overflow");
}

TEST_F(LogFixture, ReopenedLogSeesPriorRecords) {
  // A second UndoLog over the same bytes (a restarted process) sees the
  // uncommitted records of the first.
  {
    UndoLog log = make_log();
    log.format();
    const std::uint64_t v = 3;
    log.record(42, &v, sizeof v);
  }
  UndoLog reopened = make_log();
  EXPECT_TRUE(reopened.valid());
  EXPECT_TRUE(needs_recovery());
  EXPECT_EQ(tokens(), (std::vector<std::uint64_t>{42}));
  EXPECT_EQ(recover(), 1u);
  EXPECT_EQ(data_at<std::uint64_t>(42), 3u);
}

// --- batched (epoch) durability ---------------------------------------------

TEST_F(LogFixture, BatchedRecordIssuesNoFlushesUntilSync) {
  UndoLog log = make_log(LogSyncMode::kBatched);
  log.format();
  backend.reset_counters();
  const std::uint64_t v = 9;
  for (int i = 0; i < 50; ++i) log.record(8 * i, &v, sizeof v);
  EXPECT_EQ(backend.flush_count(), 0u);
  EXPECT_EQ(backend.fence_count(), 0u);
  EXPECT_EQ(log.tail(), UndoLog::kHeaderSize);  // durable tail lags
  EXPECT_GT(log.appended_tail(), UndoLog::kHeaderSize);
  EXPECT_EQ(log.sync_points(), 0u);

  log.sync();
  // One epoch: one flush of the dirty log range + fence, one tail publish
  // + fence — not 2 * records.
  EXPECT_EQ(backend.fence_count(), 2u);
  EXPECT_LT(backend.flush_count(), 50u);
  EXPECT_EQ(log.sync_points(), 1u);
  EXPECT_EQ(log.tail(), log.appended_tail());

  backend.reset_counters();
  log.sync();  // nothing pending: O(1) no-op
  EXPECT_EQ(backend.flush_count(), 0u);
  EXPECT_EQ(backend.fence_count(), 0u);
}

TEST_F(LogFixture, BatchedUnsyncedEntriesSelfCertifyAcrossReopen) {
  // A crash before any sync leaves the durable tail at the header, but the
  // appended entries are found by the footer-walk (in the tmpfs/eADR model
  // the bytes are present; the check word certifies them).
  {
    UndoLog log = make_log(LogSyncMode::kBatched);
    log.format();
    const std::uint64_t a = 0xA, b = 0xB;
    log.record(0, &a, sizeof a);
    log.record(8, &b, sizeof b);
    // no sync, no commit: crash
  }
  UndoLog reopened = make_log(LogSyncMode::kBatched);
  EXPECT_TRUE(needs_recovery());
  EXPECT_EQ(reopened.tail(), UndoLog::kHeaderSize);
  EXPECT_GT(reopened.appended_tail(), UndoLog::kHeaderSize);
  EXPECT_EQ(tokens(), (std::vector<std::uint64_t>{0, 8}));
  EXPECT_EQ(recover(), 2u);
  EXPECT_EQ(data_at<std::uint64_t>(0), 0xAu);
  EXPECT_EQ(data_at<std::uint64_t>(8), 0xBu);
}

TEST_F(LogFixture, CommittedGenerationEntriesAreNotReplayed) {
  // After commit() the entry bytes still sit in the segment, but the
  // generation bump de-certifies them: a reopen must find nothing, even
  // though the stale chain is intact byte-for-byte.
  {
    UndoLog log = make_log(LogSyncMode::kBatched);
    log.format();
    const std::uint64_t v = 0xDEAD;
    log.record(16, &v, sizeof v);
    log.sync();
    log.commit();
  }
  UndoLog reopened = make_log(LogSyncMode::kBatched);
  EXPECT_TRUE(reopened.valid());
  EXPECT_FALSE(needs_recovery());
  EXPECT_TRUE(tokens().empty());
  EXPECT_EQ(recover(), 0u);
  EXPECT_EQ(data_at<std::uint64_t>(16), 0xeeeeeeeeeeeeeeeeull);
}

TEST_F(LogFixture, TornEntryStopsTheRecoveryWalk) {
  // Corrupt the payload of the newest (unsynced) entry: its check word must
  // fail and recovery must replay only the intact prefix.
  UndoLog log = make_log(LogSyncMode::kBatched);
  log.format();
  const std::uint64_t a = 1, b = 2;
  log.record(0, &a, sizeof a);
  const std::uint64_t second_at = log.appended_tail();
  log.record(8, &b, sizeof b);
  buffer.get()[second_at + 16] ^= 0x5a;  // flip a payload byte (torn write)
  EXPECT_EQ(tokens(), (std::vector<std::uint64_t>{0}));
  EXPECT_EQ(recover(), 1u);
  EXPECT_EQ(data_at<std::uint64_t>(0), 1u);
  EXPECT_EQ(data_at<std::uint64_t>(8), 0xeeeeeeeeeeeeeeeeull);
}

TEST_F(LogFixture, NewGenerationRecordsAfterRecommitAreFound) {
  // Cycle: record+commit, then record again — only the second generation's
  // entry may be visible to recovery.
  UndoLog log = make_log();
  log.format();
  const std::uint64_t v1 = 1, v2 = 2;
  log.record(100, &v1, sizeof v1);
  log.commit();
  log.record(200, &v2, sizeof v2);
  EXPECT_EQ(tokens(), (std::vector<std::uint64_t>{200}));
  EXPECT_EQ(recover(), 1u);
  EXPECT_EQ(data_at<std::uint64_t>(100), 0xeeeeeeeeeeeeeeeeull);
  EXPECT_EQ(data_at<std::uint64_t>(200), 2u);
}

// --- empty generations commit for free (DESIGN.md §7) -----------------------

TEST_F(LogFixture, EmptyGenerationCommitWritesNothing) {
  for (const LogSyncMode mode : {LogSyncMode::kStrict, LogSyncMode::kBatched}) {
    std::memset(buffer.get(), 0, kSize);
    UndoLog log = make_log(mode);
    log.format();
    const std::uint64_t formatted = UndoLog::inspect(buffer.get(), kSize).gen;
    // Freshly formatted: nothing to de-certify, so nothing is written and
    // the generation stays.
    backend.reset_counters();
    EXPECT_TRUE(log.commit()) << to_string(mode);
    EXPECT_EQ(backend.flush_count(), 0u) << to_string(mode);
    EXPECT_EQ(backend.fence_count(), 0u) << to_string(mode);
    EXPECT_EQ(UndoLog::inspect(buffer.get(), kSize).gen, formatted);
    EXPECT_EQ(log.tail(), UndoLog::kHeaderSize);

    // Just committed a logged generation: the next empty commit is free.
    const std::uint64_t v = 5;
    log.record(0, &v, sizeof v);
    log.sync();
    ASSERT_TRUE(log.commit());
    const std::uint64_t state = reinterpret_cast<UndoLog::LogHeader*>(
                                    buffer.get())->state;
    EXPECT_EQ(UndoLog::state_gen(state), formatted + 1) << to_string(mode);
    backend.reset_counters();
    EXPECT_TRUE(log.commit()) << to_string(mode);
    EXPECT_EQ(backend.flush_count(), 0u) << to_string(mode);
    EXPECT_EQ(backend.fence_count(), 0u) << to_string(mode);
    EXPECT_EQ(reinterpret_cast<UndoLog::LogHeader*>(buffer.get())->state,
              state);
    EXPECT_FALSE(needs_recovery());
  }
}

TEST_F(LogFixture, BatchedUnsyncedRecordsStillRetireOnCommit) {
  // A batched FASE whose records were appended but never synced (no data
  // line flushed before its end) has a durable tail still at the header,
  // yet its entries sit certified in the segment. Its commit must bump the
  // generation, or a restart would roll the committed FASE back.
  {
    UndoLog log = make_log(LogSyncMode::kBatched);
    log.format();
    const std::uint64_t a = 0xA, b = 0xB;
    log.record(0, &a, sizeof a);
    log.record(8, &b, sizeof b);
    ASSERT_EQ(log.tail(), UndoLog::kHeaderSize);  // nothing synced
    backend.reset_counters();
    ASSERT_TRUE(log.commit());
    EXPECT_EQ(backend.fence_count(), 1u);
  }
  UndoLog reopened = make_log(LogSyncMode::kBatched);
  EXPECT_FALSE(needs_recovery());
  EXPECT_TRUE(tokens().empty());
  EXPECT_EQ(recover(), 0u);
  EXPECT_EQ(data_at<std::uint64_t>(0), 0xeeeeeeeeeeeeeeeeull);
  EXPECT_EQ(data_at<std::uint64_t>(8), 0xeeeeeeeeeeeeeeeeull);
}

TEST_F(LogFixture, ReopenedSegmentWithCertifiedEntriesWritesOnCommit) {
  // A restart over entries certified past the durable tail adopts them as
  // appended: committing that generation must retire them durably.
  {
    UndoLog log = make_log(LogSyncMode::kBatched);
    log.format();
    const std::uint64_t v = 3;
    log.record(16, &v, sizeof v);
  }
  UndoLog reopened = make_log(LogSyncMode::kBatched);
  ASSERT_EQ(reopened.tail(), UndoLog::kHeaderSize);
  ASSERT_GT(reopened.appended_tail(), UndoLog::kHeaderSize);
  const std::uint32_t gen = UndoLog::inspect(buffer.get(), kSize).gen;
  backend.reset_counters();
  ASSERT_TRUE(reopened.commit());
  EXPECT_GE(backend.flush_count(), 1u);
  EXPECT_EQ(backend.fence_count(), 1u);
  EXPECT_EQ(UndoLog::inspect(buffer.get(), kSize).gen, gen + 1);
  EXPECT_FALSE(needs_recovery());
}

TEST_F(LogFixture, ReopenedGenerationIsRetiredByItsFirstCommit) {
  // A crash mid-sync can persist a later entry line but not an earlier one
  // (write-backs before the fence land in any order). The torn entry stops
  // the chain, so a restart sees an empty, clean generation — but the
  // later entry still certifies under it. The first commit after the
  // reopen must bump the generation even though nothing was appended, or
  // a later FASE whose chain reached that entry would replay it.
  const std::uint64_t stale_token = 24;
  {
    UndoLog log = make_log(LogSyncMode::kBatched);
    log.format();
    const std::uint64_t a = 1, b = 2;
    log.record(0, &a, sizeof a);
    log.record(stale_token, &b, sizeof b);
    buffer.get()[UndoLog::kHeaderSize + 16] ^= 0x5a;  // first entry torn
  }
  UndoLog reopened = make_log(LogSyncMode::kBatched);
  ASSERT_FALSE(needs_recovery());
  ASSERT_EQ(reopened.appended_tail(), UndoLog::kHeaderSize);
  backend.reset_counters();
  ASSERT_TRUE(reopened.commit());
  EXPECT_EQ(backend.fence_count(), 1u);
  // A same-sized record now ends exactly where the stale entry starts.
  const std::uint64_t c = 3;
  reopened.record(8, &c, sizeof c);
  EXPECT_EQ(tokens(), (std::vector<std::uint64_t>{8}));
  EXPECT_EQ(recover(), 1u);
  EXPECT_EQ(data_at<std::uint64_t>(stale_token), 0xeeeeeeeeeeeeeeeeull);
}

TEST_F(LogFixture, ParseLogSyncMode) {
  EXPECT_EQ(parse_log_sync_mode("strict"), LogSyncMode::kStrict);
  EXPECT_EQ(parse_log_sync_mode("batched"), LogSyncMode::kBatched);
  // Unknown names are refused, like parse_flush_kind.
  EXPECT_FALSE(parse_log_sync_mode("batch").has_value());
  EXPECT_FALSE(parse_log_sync_mode("").has_value());
  EXPECT_STREQ(to_string(LogSyncMode::kStrict), "strict");
  EXPECT_STREQ(to_string(LogSyncMode::kBatched), "batched");
}

}  // namespace
}  // namespace nvc::runtime
