#include "storage/redo_log.h"

#include <algorithm>

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
  const size_t n = buffer_.size();
  durable_segs_.emplace_back();
  durable_segs_.back().swap(buffer_);
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

uint64_t RedoLog::RetainedBytes() const {
  auto bytes = [](const std::vector<RedoRecord>& records) {
    uint64_t total = records.capacity() * sizeof(RedoRecord);
    for (const RedoRecord& r : records) total += r.data.heap_bytes();
    return total;
  };
  uint64_t total = bytes(buffer_);
  for (const std::vector<RedoRecord>& seg : durable_segs_) total += bytes(seg);
  return total;
}

std::vector<const RedoRecord*> RedoLog::DurableRecordsFrom(Lsn from) const {
  std::vector<const RedoRecord*> out;
  // Segments and the records within each are LSN-ordered (sealed segments
  // are never empty), so binary search the first segment reaching past
  // `from`, then the start record within each remaining segment.
  auto seg = std::partition_point(
      durable_segs_.begin(), durable_segs_.end(),
      [from](const std::vector<RedoRecord>& s) {
        return s.back().end_lsn() <= from;
      });
  for (; seg != durable_segs_.end(); ++seg) {
    auto it = std::partition_point(
        seg->begin(), seg->end(),
        [from](const RedoRecord& r) { return r.end_lsn() <= from; });
    for (; it != seg->end(); ++it) out.push_back(&*it);
  }
  return out;
}

void RedoLog::ChargeScan(sim::ExecContext& ctx, Lsn from) {
  if (flushed_lsn_ <= from) return;
  disk_->Read(ctx, flushed_lsn_ - from);
}

}  // namespace polarcxl::storage
