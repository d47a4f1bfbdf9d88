#include "recovery/txn_undo.h"

#include <set>
#include <vector>

namespace polarcxl::recovery {

TxnUndoStats UndoLoserTransactions(sim::ExecContext& ctx,
                                   engine::Database* db) {
  TxnUndoStats stats;
  const Nanos start = ctx.now;
  storage::RedoLog* log = db->log();

  // One scan: which transactions have undo info, which are resolved.
  // (The redo pass already charged the log scan; records are in memory.)
  // The log has freed the records below its recovery floor, but none of
  // them can make a loser: a transaction with no durable marker keeps its
  // undo records from its first one on (RedoLog::Checkpoint), and one
  // whose marker was freed had all its undo records freed before it.
  std::set<uint64_t> seen;
  std::set<uint64_t> resolved;
  std::vector<const storage::RedoRecord*> undo_records;
  for (const storage::RedoRecord* rec : log->DurableRecordsFrom(0)) {
    switch (rec->kind) {
      case storage::RedoKind::kUndoInfo:
        seen.insert(rec->txn_id);
        undo_records.push_back(rec);
        break;
      case storage::RedoKind::kTxnCommit:
      case storage::RedoKind::kTxnAbort:
        resolved.insert(rec->txn_id);
        break;
      default:
        break;
    }
  }

  // Losers: reverse LSN order across all of them (ARIES single backward
  // sweep).
  for (auto it = undo_records.rbegin(); it != undo_records.rend(); ++it) {
    const storage::RedoRecord* rec = *it;
    if (resolved.count(rec->txn_id) > 0) continue;
    const engine::UndoOp op = engine::UndoOp::Deserialize(rec->data);
    ctx.Advance(db->costs().log_record_apply);
    POLAR_CHECK_MSG(engine::ApplyUndoForRecovery(ctx, db, op).ok(),
                    "loser undo failed");
    stats.undo_ops_applied++;
  }
  for (uint64_t txn : seen) {
    if (resolved.count(txn) > 0) continue;
    stats.loser_txns++;
    // Mark resolved so a second crash does not undo twice (undo is
    // idempotent anyway, but the marker keeps the log tidy).
    storage::RedoRecord marker;
    marker.kind = storage::RedoKind::kTxnAbort;
    marker.txn_id = txn;
    std::vector<storage::RedoRecord> batch;
    batch.push_back(std::move(marker));
    log->AppendMtr(std::move(batch));
  }
  if (stats.loser_txns > 0) log->Flush(ctx);

  stats.duration = ctx.now - start;
  return stats;
}

}  // namespace polarcxl::recovery
