#include "engine/transaction.h"

#include <cstring>

namespace polarcxl::engine {

std::vector<uint8_t> UndoOp::Serialize() const {
  std::vector<uint8_t> out;
  SerializeInto(&out);
  return out;
}

UndoOp UndoOp::Deserialize(const uint8_t* data, size_t len) {
  POLAR_CHECK(len >= 15);
  UndoOp op;
  op.kind = static_cast<Kind>(data[0]);
  std::memcpy(&op.table, data + 1, sizeof(op.table));
  std::memcpy(&op.off, data + 3, sizeof(op.off));
  std::memcpy(&op.key, data + 7, sizeof(op.key));
  op.bytes.assign(data + 15, data + len);
  return op;
}

std::unique_ptr<Transaction> TransactionManager::Begin(
    sim::ExecContext& ctx) {
  ctx.Advance(db_->costs().txn_overhead / 2);
  return std::unique_ptr<Transaction>(new Transaction(db_->log()->NewTxnId()));
}

void TransactionManager::AppendMarker(sim::ExecContext& ctx,
                                      storage::RedoKind kind,
                                      uint64_t txn_id) {
  (void)ctx;
  storage::RedoRecord rec;
  rec.kind = kind;
  rec.txn_id = txn_id;
  batch_scratch_.push_back(std::move(rec));
  db_->log()->AppendMtr(&batch_scratch_);
}

void TransactionManager::RecordUndo(sim::ExecContext& ctx, Transaction* txn,
                                    UndoOp op) {
  storage::RedoRecord rec;
  rec.kind = storage::RedoKind::kUndoInfo;
  rec.txn_id = txn->id();
  op.SerializeInto(&rec.data);
  rec.len = static_cast<uint16_t>(rec.data.size());
  batch_scratch_.push_back(std::move(rec));
  db_->log()->AppendMtr(&batch_scratch_);
  // Charge the append as log-buffer work (a few cache lines of DRAM).
  ctx.Advance(300);
  txn->undo_.push_back(std::move(op));
}

Status TransactionManager::Insert(sim::ExecContext& ctx, Transaction* txn,
                                  size_t table, uint64_t key, Slice row) {
  POLAR_CHECK(!txn->finished());
  UndoOp undo;
  undo.kind = UndoOp::Kind::kRemove;
  undo.table = static_cast<uint16_t>(table);
  undo.key = key;
  RecordUndo(ctx, txn, std::move(undo));
  ctx.txn_id = txn->id();
  const Status s = db_->table(table)->Insert(ctx, key, row);
  ctx.txn_id = 0;
  if (!s.ok()) txn->undo_.pop_back();
  return s;
}

Status TransactionManager::Update(sim::ExecContext& ctx, Transaction* txn,
                                  size_t table, uint64_t key, Slice row) {
  POLAR_CHECK(!txn->finished());
  const Status old = db_->table(table)->GetTo(ctx, key, &old_row_scratch_);
  if (!old.ok()) return old;
  UndoOp undo;
  undo.kind = UndoOp::Kind::kRestoreBytes;
  undo.table = static_cast<uint16_t>(table);
  undo.key = key;
  undo.off = 0;
  undo.bytes.assign(old_row_scratch_.begin(), old_row_scratch_.end());
  RecordUndo(ctx, txn, std::move(undo));
  ctx.txn_id = txn->id();
  const Status s = db_->table(table)->Update(ctx, key, row);
  ctx.txn_id = 0;
  if (!s.ok()) txn->undo_.pop_back();
  return s;
}

Status TransactionManager::UpdateColumn(sim::ExecContext& ctx,
                                        Transaction* txn, size_t table,
                                        uint64_t key, uint32_t off,
                                        Slice bytes) {
  POLAR_CHECK(!txn->finished());
  const Status old = db_->table(table)->GetTo(ctx, key, &old_row_scratch_);
  if (!old.ok()) return old;
  if (off + bytes.size() > old_row_scratch_.size()) {
    return Status::InvalidArgument("column update out of bounds");
  }
  UndoOp undo;
  undo.kind = UndoOp::Kind::kRestoreBytes;
  undo.table = static_cast<uint16_t>(table);
  undo.key = key;
  undo.off = off;
  undo.bytes.assign(old_row_scratch_.begin() + off,
                    old_row_scratch_.begin() + off + bytes.size());
  RecordUndo(ctx, txn, std::move(undo));
  ctx.txn_id = txn->id();
  const Status s = db_->table(table)->UpdateColumn(ctx, key, off, bytes);
  ctx.txn_id = 0;
  if (!s.ok()) txn->undo_.pop_back();
  return s;
}

Status TransactionManager::Delete(sim::ExecContext& ctx, Transaction* txn,
                                  size_t table, uint64_t key) {
  POLAR_CHECK(!txn->finished());
  const Status old = db_->table(table)->GetTo(ctx, key, &old_row_scratch_);
  if (!old.ok()) return old;
  UndoOp undo;
  undo.kind = UndoOp::Kind::kReinsert;
  undo.table = static_cast<uint16_t>(table);
  undo.key = key;
  undo.bytes.assign(old_row_scratch_.begin(), old_row_scratch_.end());
  RecordUndo(ctx, txn, std::move(undo));
  ctx.txn_id = txn->id();
  const Status s = db_->table(table)->Delete(ctx, key);
  ctx.txn_id = 0;
  if (!s.ok()) txn->undo_.pop_back();
  return s;
}

Result<std::string> TransactionManager::Get(sim::ExecContext& ctx,
                                            Transaction* txn, size_t table,
                                            uint64_t key) {
  std::string out;
  POLAR_RETURN_IF_ERROR(GetTo(ctx, txn, table, key, &out));
  return out;
}

Status TransactionManager::GetTo(sim::ExecContext& ctx, Transaction* txn,
                                 size_t table, uint64_t key,
                                 std::string* out) {
  POLAR_CHECK(!txn->finished());
  return db_->table(table)->GetTo(ctx, key, out);
}

Status TransactionManager::Commit(sim::ExecContext& ctx, Transaction* txn) {
  POLAR_CHECK(!txn->finished());
  AppendMarker(ctx, storage::RedoKind::kTxnCommit, txn->id());
  db_->CommitTransaction(ctx);  // flushes the WAL (group-commit aware)
  txn->finished_ = true;
  return Status::OK();
}

Status TransactionManager::ApplyUndo(sim::ExecContext& ctx,
                                     const UndoOp& op) {
  return ApplyUndoForRecovery(ctx, db_, op);
}

Status TransactionManager::Abort(sim::ExecContext& ctx, Transaction* txn) {
  POLAR_CHECK(!txn->finished());
  for (auto it = txn->undo_.rbegin(); it != txn->undo_.rend(); ++it) {
    POLAR_RETURN_IF_ERROR(ApplyUndo(ctx, *it));
  }
  AppendMarker(ctx, storage::RedoKind::kTxnAbort, txn->id());
  db_->CommitTransaction(ctx);
  txn->finished_ = true;
  return Status::OK();
}

Status ApplyUndoForRecovery(sim::ExecContext& ctx, Database* db,
                            const UndoOp& op) {
  engine::Table* table = db->table(static_cast<size_t>(op.table));
  POLAR_CHECK_MSG(table != nullptr, "undo references unknown table");
  switch (op.kind) {
    case UndoOp::Kind::kRemove: {
      // Idempotent: absent is fine (already undone).
      const Status s = table->Delete(ctx, op.key);
      return s.IsNotFound() ? Status::OK() : s;
    }
    case UndoOp::Kind::kReinsert: {
      const Status s = table->Insert(
          ctx, op.key,
          Slice(reinterpret_cast<const char*>(op.bytes.data()),
                op.bytes.size()));
      return s.IsInvalidArgument() ? Status::OK() : s;  // already present
    }
    case UndoOp::Kind::kRestoreBytes: {
      const Status s = table->UpdateColumn(
          ctx, op.key, op.off,
          Slice(reinterpret_cast<const char*>(op.bytes.data()),
                op.bytes.size()));
      // The row may be gone if a later (committed) op deleted it — with
      // our crash model losers are the newest transactions, so NotFound
      // only occurs when the undo itself already ran.
      return s.IsNotFound() ? Status::OK() : s;
    }
  }
  return Status::InvalidArgument("unknown undo kind");
}

}  // namespace polarcxl::engine
