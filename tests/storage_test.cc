// Tests for the storage layer: simulated disk, page store, redo log.
#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "storage/disk.h"
#include "storage/page_store.h"
#include "storage/redo_log.h"

namespace polarcxl::storage {
namespace {

using sim::ExecContext;

TEST(SimDiskTest, LatencyAndBandwidthCharged) {
  SimDisk disk("d");
  ExecContext ctx;
  disk.Read(ctx, kPageSize);
  EXPECT_GE(ctx.now, 90'000);
  const Nanos after_read = ctx.now;
  disk.Write(ctx, kPageSize);
  EXPECT_GE(ctx.now - after_read, 50'000);
  EXPECT_EQ(disk.read_bytes(), static_cast<uint64_t>(kPageSize));
  EXPECT_EQ(disk.write_ops(), 1u);
}

TEST(SimDiskTest, SaturationQueues) {
  SimDisk::Options o;
  o.bandwidth_bps = 1000000000;  // 1 GB/s
  SimDisk disk("d", o);
  ExecContext last;
  for (int i = 0; i < 1000; i++) {
    ExecContext ctx;
    disk.Write(ctx, 1 << 20);  // 1 GB total => ~1 s
    last = ctx;
  }
  EXPECT_GT(last.now, Secs(0.9));
}

TEST(PageStoreTest, UnwrittenPagesReadAsZero) {
  SimDisk disk("d");
  PageStore store(&disk);
  std::array<uint8_t, kPageSize> buf;
  buf.fill(0xFF);
  ExecContext ctx;
  store.ReadPage(ctx, 7, buf.data());
  for (uint8_t b : buf) ASSERT_EQ(b, 0);
  EXPECT_FALSE(store.Contains(7));
}

TEST(PageStoreTest, WriteReadRoundTrip) {
  SimDisk disk("d");
  PageStore store(&disk);
  std::array<uint8_t, kPageSize> in;
  for (size_t i = 0; i < in.size(); i++) in[i] = static_cast<uint8_t>(i * 7);
  ExecContext ctx;
  store.WritePage(ctx, 3, in.data());
  std::array<uint8_t, kPageSize> out{};
  store.ReadPage(ctx, 3, out.data());
  EXPECT_EQ(in, out);
  EXPECT_EQ(store.num_pages(), 1u);
  EXPECT_EQ(ctx.pages_read_io, 1u);
  EXPECT_EQ(ctx.pages_written_io, 1u);
}

class RedoLogTest : public ::testing::Test {
 protected:
  RedoLogTest() : disk_("d"), log_(&disk_) {}

  RedoRecord MakeRecord(PageId page, uint16_t off, std::vector<uint8_t> data,
                        uint64_t mtr) {
    RedoRecord r;
    r.page_id = page;
    r.page_off = off;
    r.len = static_cast<uint16_t>(data.size());
    r.data.assign(data.begin(), data.end());
    r.mtr_id = mtr;
    return r;
  }

  /// Appends one record as its own mini-transaction; returns its start LSN.
  Lsn Append(RedoRecord rec) {
    const Lsn start = log_.current_lsn();
    std::vector<RedoRecord> recs;
    recs.push_back(std::move(rec));
    log_.AppendMtr(std::move(recs));
    return start;
  }

  /// Appends one record and flushes it as its own durable segment.
  Lsn AppendFlushed(RedoRecord rec) {
    const Lsn start = Append(std::move(rec));
    ExecContext ctx;
    log_.Flush(ctx);
    return start;
  }

  static RedoRecord TxnRecord(RedoKind kind, uint64_t txn) {
    RedoRecord r;
    r.kind = kind;
    r.txn_id = txn;
    if (kind == RedoKind::kUndoInfo) r.data = {1, 2, 3};
    return r;
  }

  std::vector<Lsn> DurableLsnsFrom(Lsn from) const {
    std::vector<Lsn> lsns;
    for (const RedoRecord* r : log_.DurableRecordsFrom(from)) {
      lsns.push_back(r->lsn);
    }
    return lsns;
  }

  SimDisk disk_;
  RedoLog log_;
};

TEST_F(RedoLogTest, LsnAdvancesByRecordBytes) {
  const uint64_t mtr = log_.NewMtrId();
  std::vector<RedoRecord> recs;
  recs.push_back(MakeRecord(1, 0, {1, 2, 3, 4}, mtr));
  const Lsn end = log_.AppendMtr(std::move(recs));
  EXPECT_EQ(end, 32u + 4u);  // 32-byte header + payload
  EXPECT_EQ(log_.current_lsn(), end);
  EXPECT_EQ(log_.flushed_lsn(), 0u);
  EXPECT_EQ(log_.unflushed_bytes(), end);
}

TEST_F(RedoLogTest, FlushMakesRecordsDurable) {
  std::vector<RedoRecord> recs;
  recs.push_back(MakeRecord(1, 8, {9, 9}, log_.NewMtrId()));
  log_.AppendMtr(std::move(recs));
  ExecContext ctx;
  const Lsn flushed = log_.Flush(ctx);
  EXPECT_EQ(flushed, log_.current_lsn());
  EXPECT_GT(ctx.now, 0);
  EXPECT_EQ(log_.DurableRecordsFrom(0).size(), 1u);
}

TEST_F(RedoLogTest, CrashLosesUnflushedTail) {
  std::vector<RedoRecord> a;
  a.push_back(MakeRecord(1, 0, {1}, log_.NewMtrId()));
  log_.AppendMtr(std::move(a));
  ExecContext ctx;
  log_.Flush(ctx);
  std::vector<RedoRecord> b;
  b.push_back(MakeRecord(2, 0, {2}, log_.NewMtrId()));
  const Lsn before_crash = log_.AppendMtr(std::move(b));
  EXPECT_GT(before_crash, log_.flushed_lsn());

  log_.LoseUnflushedTail();
  EXPECT_EQ(log_.current_lsn(), log_.flushed_lsn());
  EXPECT_EQ(log_.DurableRecordsFrom(0).size(), 1u);
}

TEST_F(RedoLogTest, ScanFromLsnSkipsOlderRecords) {
  Lsn mid = 0;
  for (int i = 0; i < 10; i++) {
    std::vector<RedoRecord> recs;
    recs.push_back(
        MakeRecord(static_cast<PageId>(i), 0, {1, 2}, log_.NewMtrId()));
    const Lsn end = log_.AppendMtr(std::move(recs));
    if (i == 4) mid = end;
  }
  ExecContext ctx;
  log_.Flush(ctx);
  const auto all = log_.DurableRecordsFrom(0);
  const auto tail = log_.DurableRecordsFrom(mid);
  EXPECT_EQ(all.size(), 10u);
  EXPECT_EQ(tail.size(), 5u);
  EXPECT_EQ(tail[0]->page_id, 5u);
}

TEST_F(RedoLogTest, CheckpointMonotonic) {
  std::vector<RedoRecord> recs;
  recs.push_back(MakeRecord(1, 0, {1, 2, 3}, log_.NewMtrId()));
  log_.AppendMtr(std::move(recs));
  ExecContext ctx;
  const Lsn flushed = log_.Flush(ctx);
  log_.Checkpoint(flushed);
  EXPECT_EQ(log_.checkpoint_lsn(), flushed);
  log_.Checkpoint(0);  // must not regress
  EXPECT_EQ(log_.checkpoint_lsn(), flushed);
}

TEST_F(RedoLogTest, CheckpointFreesSegmentsBelowTheFloor) {
  Lsn mid = 0;
  for (int i = 0; i < 10; i++) {
    AppendFlushed(MakeRecord(static_cast<PageId>(i), 0,
                             std::vector<uint8_t>(300, 7), log_.NewMtrId()));
    if (i == 4) mid = log_.flushed_lsn();
  }
  const uint64_t before = log_.RetainedBytes();
  const std::vector<Lsn> tail = DurableLsnsFrom(mid);
  ASSERT_EQ(tail.size(), 5u);

  log_.Checkpoint(mid);
  EXPECT_LT(log_.RetainedBytes(), before);
  EXPECT_EQ(DurableLsnsFrom(mid), tail);
  EXPECT_EQ(DurableLsnsFrom(0), tail);  // everything below is gone
  // Scan charges are LSN arithmetic, not retained bytes.
  disk_.ResetStats();
  ExecContext scan;
  log_.ChargeScan(scan, 0);
  EXPECT_EQ(disk_.read_bytes(), log_.flushed_lsn());

  // A checkpoint at the end leaves an idle log holding nothing, not even
  // the buffer reservation sized to the last flush.
  log_.Checkpoint(log_.flushed_lsn());
  EXPECT_TRUE(log_.DurableRecordsFrom(0).empty());
  EXPECT_EQ(log_.RetainedBytes(), 0u);
}

TEST_F(RedoLogTest, OpenTransactionKeepsItsUndoAcrossCheckpoint) {
  AppendFlushed(MakeRecord(1, 0, {1}, log_.NewMtrId()));
  const Lsn undo = AppendFlushed(TxnRecord(RedoKind::kUndoInfo, 7));
  AppendFlushed(MakeRecord(2, 0, {2}, log_.NewMtrId()));
  AppendFlushed(TxnRecord(RedoKind::kUndoInfo, 7));
  // Another transaction resolved durably: it does not hold the floor.
  AppendFlushed(TxnRecord(RedoKind::kUndoInfo, 8));
  AppendFlushed(TxnRecord(RedoKind::kTxnCommit, 8));

  log_.Checkpoint(log_.flushed_lsn());
  std::vector<Lsn> kept = DurableLsnsFrom(0);
  ASSERT_FALSE(kept.empty());
  EXPECT_EQ(kept.front(), undo);  // freed below txn 7's first undo record
  EXPECT_EQ(kept.size(), 5u);
}

TEST_F(RedoLogTest, UnflushedMarkerDoesNotReleaseUndo) {
  const Lsn undo = AppendFlushed(TxnRecord(RedoKind::kUndoInfo, 7));
  AppendFlushed(MakeRecord(1, 0, {1}, log_.NewMtrId()));
  Append(TxnRecord(RedoKind::kTxnCommit, 7));  // still in the buffer
  log_.Checkpoint(log_.flushed_lsn());
  ASSERT_FALSE(log_.DurableRecordsFrom(0).empty());
  EXPECT_EQ(log_.DurableRecordsFrom(0).front()->lsn, undo);

  // A crash loses the marker: the undo pass would still need the records.
  log_.LoseUnflushedTail();
  log_.Checkpoint(log_.flushed_lsn());
  ASSERT_FALSE(log_.DurableRecordsFrom(0).empty());
  EXPECT_EQ(log_.DurableRecordsFrom(0).front()->lsn, undo);

  // Once the marker is durable the transaction no longer holds the floor.
  AppendFlushed(TxnRecord(RedoKind::kTxnCommit, 7));
  log_.Checkpoint(log_.flushed_lsn());
  EXPECT_TRUE(log_.DurableRecordsFrom(0).empty());
}

TEST_F(RedoLogTest, RestoreAfterTruncatingCheckpointGivesBackCapture) {
  for (int i = 0; i < 4; i++) {
    AppendFlushed(MakeRecord(static_cast<PageId>(i), 0, {1, 2},
                             log_.NewMtrId()));
  }
  const Lsn undo = AppendFlushed(TxnRecord(RedoKind::kUndoInfo, 9));
  Append(MakeRecord(5, 0, {3}, log_.NewMtrId()));  // unflushed tail
  const std::vector<const RedoRecord*> captured = log_.DurableRecordsFrom(0);
  const RedoLog::State state = log_.Capture();

  // Resolve txn 9 and checkpoint past everything: the log frees it all.
  AppendFlushed(TxnRecord(RedoKind::kTxnCommit, 9));
  log_.Checkpoint(log_.flushed_lsn());
  ASSERT_TRUE(log_.DurableRecordsFrom(0).empty());

  log_.Restore(state);
  EXPECT_EQ(log_.DurableRecordsFrom(0), captured);
  EXPECT_EQ(log_.checkpoint_lsn(), 0u);
  EXPECT_EQ(log_.unflushed_bytes(), 32u + 1u);

  // The restored log again treats txn 9 as open: a checkpoint keeps its
  // undo record.
  ExecContext ctx;
  log_.Flush(ctx);
  log_.Checkpoint(log_.flushed_lsn());
  ASSERT_FALSE(log_.DurableRecordsFrom(0).empty());
  EXPECT_EQ(log_.DurableRecordsFrom(0).front()->lsn, undo);
}

TEST_F(RedoLogTest, ChargeScanCostsProportionalToLogSize) {
  for (int i = 0; i < 100; i++) {
    std::vector<RedoRecord> recs;
    recs.push_back(MakeRecord(1, 0, std::vector<uint8_t>(100, 7),
                              log_.NewMtrId()));
    log_.AppendMtr(std::move(recs));
  }
  ExecContext ctx;
  log_.Flush(ctx);
  disk_.ResetStats();
  ExecContext scan_ctx;
  log_.ChargeScan(scan_ctx, 0);
  EXPECT_EQ(disk_.read_bytes(), log_.flushed_lsn());
}

TEST_F(RedoLogTest, AtomicMtrAppendKeepsRecordsAdjacent) {
  std::vector<RedoRecord> recs;
  const uint64_t mtr = log_.NewMtrId();
  recs.push_back(MakeRecord(1, 0, {1}, mtr));
  recs.push_back(MakeRecord(2, 0, {2}, mtr));
  recs.push_back(MakeRecord(3, 0, {3}, mtr));
  log_.AppendMtr(std::move(recs));
  ExecContext ctx;
  log_.Flush(ctx);
  const auto all = log_.DurableRecordsFrom(0);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0]->mtr_id, all[1]->mtr_id);
  EXPECT_LT(all[0]->lsn, all[1]->lsn);
  EXPECT_LT(all[1]->lsn, all[2]->lsn);
}

}  // namespace
}  // namespace polarcxl::storage
