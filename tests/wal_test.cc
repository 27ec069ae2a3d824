// Write-ahead log tests: record serialization round trips for every type,
// framing + CRC integrity, durability boundary, scans, torn tails.

#include "wal/log_manager.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "wal/log_record.h"

namespace oir {
namespace {

LogRecord RoundTrip(const LogRecord& in) {
  std::string buf;
  in.EncodeTo(&buf);
  LogRecord out;
  Status s = LogRecord::DecodeFrom(Slice(buf), &out);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

TEST(LogRecordTest, HeaderFieldsRoundTrip) {
  LogRecord rec;
  rec.type = LogType::kInsert;
  rec.txn_id = 77;
  rec.prev_lsn = 123456;
  rec.page_id = 42;
  rec.old_page_lsn = 999;
  rec.is_clr = true;
  rec.undo_next = 555;
  rec.pos = 7;
  rec.row = "rowbytes";
  rec.level = 3;
  LogRecord out = RoundTrip(rec);
  EXPECT_EQ(out.type, LogType::kInsert);
  EXPECT_EQ(out.txn_id, 77u);
  EXPECT_EQ(out.prev_lsn, 123456u);
  EXPECT_EQ(out.page_id, 42u);
  EXPECT_EQ(out.old_page_lsn, 999u);
  EXPECT_TRUE(out.is_clr);
  EXPECT_EQ(out.undo_next, 555u);
  EXPECT_EQ(out.pos, 7);
  EXPECT_EQ(out.row, "rowbytes");
  EXPECT_EQ(out.level, 3);
}

TEST(LogRecordTest, BatchRecordsRoundTrip) {
  for (LogType t : {LogType::kBatchInsert, LogType::kBatchDelete}) {
    LogRecord rec;
    rec.type = t;
    rec.page_id = 9;
    rec.pos = 2;
    rec.level = 1;
    rec.rows = {"alpha", "", "gamma-with-longer-content"};
    LogRecord out = RoundTrip(rec);
    EXPECT_EQ(out.rows, rec.rows);
    EXPECT_EQ(out.pos, 2);
    EXPECT_EQ(out.level, 1);
  }
}

TEST(LogRecordTest, KeyCopyRoundTrip) {
  for (LogType t : {LogType::kKeyCopy, LogType::kKeyCopyUndo}) {
    LogRecord rec;
    rec.type = t;
    rec.copies.push_back(KeyCopyEntry{10, 20, 0, 15, 3, 777});
    rec.copies.push_back(KeyCopyEntry{11, 20, 2, 9, 19, 888});
    LogRecord out = RoundTrip(rec);
    ASSERT_EQ(out.copies.size(), 2u);
    EXPECT_EQ(out.copies[0].src_page, 10u);
    EXPECT_EQ(out.copies[0].tgt_page, 20u);
    EXPECT_EQ(out.copies[0].src_first, 0);
    EXPECT_EQ(out.copies[0].src_last, 15);
    EXPECT_EQ(out.copies[0].tgt_first, 3);
    EXPECT_EQ(out.copies[0].src_ts, 777u);
    EXPECT_EQ(out.copies[1].src_ts, 888u);
  }
}

TEST(LogRecordTest, FormatAndLinkRecordsRoundTrip) {
  LogRecord fmt;
  fmt.type = LogType::kFormatPage;
  fmt.page_id = 5;
  fmt.level = 2;
  fmt.prev_page = 4;
  fmt.next_page = 6;
  LogRecord out = RoundTrip(fmt);
  EXPECT_EQ(out.level, 2);
  EXPECT_EQ(out.prev_page, 4u);
  EXPECT_EQ(out.next_page, 6u);

  for (LogType t : {LogType::kSetPrevLink, LogType::kSetNextLink,
                    LogType::kMetaRoot}) {
    LogRecord link;
    link.type = t;
    link.page_id = 5;
    link.link_old = 88;
    link.link_new = 99;
    LogRecord lout = RoundTrip(link);
    EXPECT_EQ(lout.link_old, 88u);
    EXPECT_EQ(lout.link_new, 99u);
  }
}

TEST(LogRecordTest, ControlRecordsRoundTrip) {
  for (LogType t : {LogType::kBeginTxn, LogType::kCommitTxn,
                    LogType::kAbortTxn, LogType::kEndTxn, LogType::kNtaEnd,
                    LogType::kAlloc, LogType::kDealloc, LogType::kFreePage}) {
    LogRecord rec;
    rec.type = t;
    rec.page_id = 3;
    rec.undo_next = 1234;
    LogRecord out = RoundTrip(rec);
    EXPECT_EQ(out.type, t);
    EXPECT_EQ(out.page_id, 3u);
    EXPECT_EQ(out.undo_next, 1234u);
  }
}

TEST(LogRecordTest, TypeNamesAreDistinct) {
  std::set<std::string> names;
  for (int t = 1; t <= 20; ++t) {
    names.insert(LogTypeName(static_cast<LogType>(t)));
  }
  EXPECT_EQ(names.size(), 20u);
}

TEST(LogRecordTest, RebuildProgressRoundTrip) {
  LogRecord rec;
  rec.type = LogType::kRebuildProgress;
  rec.rebuild_progress.active = true;
  rec.rebuild_progress.done = false;
  rec.rebuild_progress.has_cursor = true;
  rec.rebuild_progress.cursor = std::string("key\0with-nul", 12);
  rec.rebuild_progress.leaves_rebuilt = 123;
  rec.rebuild_progress.top_actions = 45;
  rec.rebuild_progress.transactions = 6;
  LogRecord out = RoundTrip(rec);
  EXPECT_EQ(out.type, LogType::kRebuildProgress);
  EXPECT_TRUE(out.rebuild_progress.active);
  EXPECT_FALSE(out.rebuild_progress.done);
  EXPECT_TRUE(out.rebuild_progress.has_cursor);
  EXPECT_EQ(out.rebuild_progress.cursor, rec.rebuild_progress.cursor);
  EXPECT_EQ(out.rebuild_progress.leaves_rebuilt, 123u);
  EXPECT_EQ(out.rebuild_progress.top_actions, 45u);
  EXPECT_EQ(out.rebuild_progress.transactions, 6u);
  EXPECT_FALSE(out.IsPageUpdate());

  // The done marker round-trips as inactive.
  LogRecord done;
  done.type = LogType::kRebuildProgress;
  done.rebuild_progress.done = true;
  LogRecord dout = RoundTrip(done);
  EXPECT_FALSE(dout.rebuild_progress.active);
  EXPECT_TRUE(dout.rebuild_progress.done);
}

TEST(LogRecordTest, CheckpointEmbedsRebuildProgress) {
  LogRecord ckpt;
  ckpt.type = LogType::kCheckpoint;
  ckpt.old_page_lsn = 4242;
  ckpt.ckpt_allocated = {2, 3, 5};
  ckpt.ckpt_deallocated = {8};
  ckpt.ckpt_end_page = 16;
  ckpt.ckpt_next_txn_id = 99;
  ckpt.rebuild_progress.active = true;
  ckpt.rebuild_progress.has_cursor = true;
  ckpt.rebuild_progress.cursor = "mid-rebuild-cursor";
  ckpt.rebuild_progress.leaves_rebuilt = 31;
  LogRecord out = RoundTrip(ckpt);
  EXPECT_EQ(out.ckpt_allocated, ckpt.ckpt_allocated);
  EXPECT_EQ(out.ckpt_end_page, 16u);
  EXPECT_TRUE(out.rebuild_progress.active);
  EXPECT_EQ(out.rebuild_progress.cursor, "mid-rebuild-cursor");
  EXPECT_EQ(out.rebuild_progress.leaves_rebuilt, 31u);

  // A checkpoint with no rebuild in flight stays inactive after decode.
  LogRecord idle;
  idle.type = LogType::kCheckpoint;
  idle.ckpt_end_page = 4;
  LogRecord iout = RoundTrip(idle);
  EXPECT_FALSE(iout.rebuild_progress.active);
  EXPECT_FALSE(iout.rebuild_progress.has_cursor);
}

TEST(LogManagerTest, AppendChainsPrevLsn) {
  LogManager log;
  TxnContext ctx{42, kInvalidLsn};
  LogRecord a;
  a.type = LogType::kBeginTxn;
  Lsn la = log.Append(&a, &ctx);
  LogRecord b;
  b.type = LogType::kCommitTxn;
  Lsn lb = log.Append(&b, &ctx);
  EXPECT_GT(lb, la);
  EXPECT_EQ(ctx.last_lsn, lb);
  LogRecord read;
  ASSERT_OK(log.ReadRecord(lb, &read));
  EXPECT_EQ(read.prev_lsn, la);
  EXPECT_EQ(read.txn_id, 42u);
}

TEST(LogManagerTest, ScanVisitsRecordsInOrder) {
  LogManager log;
  TxnContext ctx{1, kInvalidLsn};
  std::vector<Lsn> lsns;
  for (int i = 0; i < 20; ++i) {
    LogRecord rec;
    rec.type = LogType::kInsert;
    rec.page_id = i;
    rec.row = std::string(i, 'x');
    lsns.push_back(log.Append(&rec, &ctx));
  }
  // The first Append lazily inserts the transaction's begin record ahead
  // of the payload records; skip it.
  size_t i = 0;
  for (auto it = log.Scan(log.head_lsn()); it.Valid(); it.Next()) {
    if (it.record().type == LogType::kBeginTxn) continue;
    ASSERT_LT(i, lsns.size());
    EXPECT_EQ(it.lsn(), lsns[i]);
    EXPECT_EQ(it.record().page_id, i);
    ++i;
  }
  EXPECT_EQ(i, lsns.size());
}

TEST(LogManagerTest, DurabilityBoundary) {
  LogManager log;
  TxnContext ctx{1, kInvalidLsn};
  LogRecord a;
  a.type = LogType::kBeginTxn;
  log.Append(&a, &ctx);
  Lsn mid = ctx.last_lsn;
  ASSERT_OK(log.FlushTo(mid));
  LogRecord b;
  b.type = LogType::kInsert;
  b.row = "lost";
  log.Append(&b, &ctx);
  EXPECT_GT(log.tail_lsn(), log.durable_lsn());

  log.SimulateCrash();
  // Only the flushed record survives.
  int count = 0;
  for (auto it = log.Scan(log.head_lsn()); it.Valid(); it.Next()) ++count;
  EXPECT_EQ(count, 1);
}

TEST(LogManagerTest, FlushToCoversRequestedRecord) {
  LogManager log;
  TxnContext ctx{1, kInvalidLsn};
  LogRecord a;
  a.type = LogType::kBeginTxn;
  Lsn la = log.Append(&a, &ctx);
  ASSERT_OK(log.FlushTo(la));
  // The record AT la must be durable (boundary advances past it).
  EXPECT_GT(log.durable_lsn(), la);
}

TEST(LogManagerTest, ReadRecordRejectsBadLsn) {
  LogManager log;
  LogRecord rec;
  EXPECT_FALSE(log.ReadRecord(0, &rec).ok());
  EXPECT_FALSE(log.ReadRecord(99999, &rec).ok());
}

TEST(LogManagerTest, SystemRecordsHaveNoTxn) {
  LogManager log;
  LogRecord rec;
  rec.type = LogType::kNtaEnd;
  Lsn lsn = log.AppendSystem(&rec);
  LogRecord out;
  ASSERT_OK(log.ReadRecord(lsn, &out));
  EXPECT_EQ(out.txn_id, kInvalidTxnId);
}

TEST(LogManagerTest, TotalBytesTracksAppends) {
  LogManager log;
  EXPECT_EQ(log.TotalBytesAppended(), 0u);
  TxnContext ctx{1, kInvalidLsn};
  LogRecord rec;
  rec.type = LogType::kInsert;
  rec.row = std::string(100, 'r');
  log.Append(&rec, &ctx);
  EXPECT_GT(log.TotalBytesAppended(), 100u);
}

TEST(LogManagerTest, ConcurrentAppendsAllReadable) {
  LogManager log;
  std::vector<std::thread> threads;
  constexpr int kThreads = 8;
  constexpr int kPer = 500;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      TxnContext ctx{static_cast<TxnId>(t + 1), kInvalidLsn};
      for (int i = 0; i < kPer; ++i) {
        LogRecord rec;
        rec.type = LogType::kInsert;
        rec.page_id = t;
        rec.pos = static_cast<SlotId>(i);
        rec.row = "r";
        log.Append(&rec, &ctx);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Each thread's first Append also lazily logs its begin record.
  int count = 0;
  int begins = 0;
  for (auto it = log.Scan(log.head_lsn()); it.Valid(); it.Next()) {
    if (it.record().type == LogType::kBeginTxn) {
      ++begins;
      continue;
    }
    ++count;
  }
  EXPECT_EQ(count, kThreads * kPer);
  EXPECT_EQ(begins, kThreads);
}

}  // namespace
}  // namespace oir
