#include "storage/redo_log.h"

#include <algorithm>
#include <iterator>
#include <memory>

#include "sim/epoch.h"

namespace polarcxl::storage {

Lsn RedoLog::AppendMtr(std::vector<RedoRecord> records) {
  return AppendMtr(&records);
}

Lsn RedoLog::AppendMtr(std::vector<RedoRecord>* records) {
  for (RedoRecord& rec : *records) {
    rec.lsn = next_lsn_;
    next_lsn_ += rec.SizeBytes();
    buffer_.push_back(std::move(rec));
  }
  records->clear();
  return next_lsn_;
}

void RedoLog::SealBuffer() {
  for (const RedoRecord& rec : buffer_) {
    if (rec.kind != RedoKind::kUndoInfo && rec.kind != RedoKind::kTxnCommit &&
        rec.kind != RedoKind::kTxnAbort) {
      continue;
    }
    // Newest first: a transaction's own undo records and marker are usually
    // at the back of the list.
    const auto open = std::find_if(
        open_txns_.rbegin(), open_txns_.rend(),
        [&rec](const OpenTxn& o) { return o.txn_id == rec.txn_id; });
    if (rec.kind == RedoKind::kUndoInfo) {
      if (open == open_txns_.rend()) {
        open_txns_.push_back({rec.txn_id, rec.lsn});
      }
    } else if (open != open_txns_.rend()) {
      open_txns_.erase(std::next(open).base());
    }
  }
  const size_t n = buffer_.size();
  auto seg = std::make_shared<Segment>();
  seg->swap(buffer_);
  durable_segs_.push_back(std::move(seg));
  // The next fill resembles the last one, so pre-size the fresh buffer to
  // skip its geometric-growth element moves.
  buffer_.reserve(n);
}

Lsn RedoLog::Flush(sim::ExecContext& ctx) {
  if (buffer_.empty()) return flushed_lsn_;
  const uint64_t bytes = next_lsn_ - flushed_lsn_;
  disk_->Write(ctx, bytes);
  SealBuffer();
  flushed_lsn_ = next_lsn_;
  return flushed_lsn_;
}

Lsn RedoLog::GroupCommit(sim::ExecContext& ctx, Nanos window) {
  if (window <= 0) return Flush(ctx);
  if (buffer_.empty()) return flushed_lsn_;
  if (ctx.now < last_batch_completion_) {
    // A flush led by another committer is in flight (in virtual time);
    // this commit's bytes ride that same write: charge channel occupancy
    // but no additional I/O, and complete with the batch.
    const Nanos entry = ctx.now;
    const uint64_t bytes = next_lsn_ - flushed_lsn_;
    sim::ChargeChannel(ctx, disk_->channel(), ctx.now, bytes);
    SealBuffer();
    flushed_lsn_ = next_lsn_;
    ctx.now = last_batch_completion_;
    ctx.t_io += ctx.now - entry;
    return flushed_lsn_;
  }
  // Lead a new batch: optionally linger up to `window` to let followers
  // accumulate, then flush once.
  ctx.now += window;
  const Lsn flushed = Flush(ctx);
  last_batch_completion_ = ctx.now;
  return flushed;
}

void RedoLog::LoseUnflushedTail() {
  buffer_.clear();
  next_lsn_ = flushed_lsn_;
}

std::vector<std::shared_ptr<const RedoLog::Segment>>::const_iterator
RedoLog::FirstSegmentPast(Lsn lsn) const {
  // Segments and the records within each are LSN-ordered, and sealed
  // segments are never empty.
  return std::partition_point(
      durable_segs_.begin(), durable_segs_.end(),
      [lsn](const std::shared_ptr<const Segment>& s) {
        return s->back().end_lsn() <= lsn;
      });
}

void RedoLog::Checkpoint(Lsn lsn) {
  POLAR_CHECK(lsn <= flushed_lsn_);
  checkpoint_lsn_ = std::max(lsn, checkpoint_lsn_);
  const Lsn floor =
      open_txns_.empty()
          ? checkpoint_lsn_
          : std::min(checkpoint_lsn_, open_txns_.front().first_undo_lsn);
  durable_segs_.erase(durable_segs_.begin(), FirstSegmentPast(floor));
  // The reservation SealBuffer() sized to the last fill (after a bulk load,
  // the whole load's final batch) would otherwise stay with an idle log.
  // Steady-state batches regrow it once per checkpoint interval.
  if (buffer_.empty()) Segment().swap(buffer_);
}

uint64_t RedoLog::RetainedBytes() const {
  auto bytes = [](const Segment& records) {
    uint64_t total = records.capacity() * sizeof(RedoRecord);
    for (const RedoRecord& r : records) total += r.data.heap_bytes();
    return total;
  };
  uint64_t total = bytes(buffer_);
  for (const auto& seg : durable_segs_) total += bytes(*seg);
  return total;
}

std::vector<const RedoRecord*> RedoLog::DurableRecordsFrom(Lsn from) const {
  std::vector<const RedoRecord*> out;
  // Binary search the first segment reaching past `from`, then the start
  // record within each remaining segment.
  for (auto seg = FirstSegmentPast(from); seg != durable_segs_.end(); ++seg) {
    const Segment& records = **seg;
    auto it = std::partition_point(
        records.begin(), records.end(),
        [from](const RedoRecord& r) { return r.end_lsn() <= from; });
    for (; it != records.end(); ++it) out.push_back(&*it);
  }
  return out;
}

void RedoLog::ChargeScan(sim::ExecContext& ctx, Lsn from) {
  if (flushed_lsn_ <= from) return;
  disk_->Read(ctx, flushed_lsn_ - from);
}

}  // namespace polarcxl::storage
