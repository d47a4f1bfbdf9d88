// Tests for multi-statement transactions: atomicity via runtime Abort,
// durability via commit markers, and the ARIES undo pass rolling back
// loser transactions after a crash (on both PolarRecv and vanilla paths).
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "common/rng.h"
#include "engine/database.h"
#include "engine/transaction.h"
#include "recovery/polar_recv.h"
#include "recovery/recovery.h"
#include "recovery/txn_undo.h"

namespace polarcxl::engine {
namespace {

using sim::ExecContext;

struct TxnWorld {
  TxnWorld() : disk("d"), store(&disk), log(&disk) {
    POLAR_CHECK(fabric.AddDevice(128 << 20).ok());
    acc = *fabric.AttachHost(0);
    manager = std::make_unique<cxl::CxlMemoryManager>(fabric.capacity());
  }

  DatabaseEnv Env() {
    DatabaseEnv env;
    env.store = &store;
    env.log = &log;
    env.cxl = acc;
    env.cxl_manager = manager.get();
    return env;
  }

  std::unique_ptr<Database> MakeDb(BufferPoolKind kind) {
    DatabaseOptions opt;
    opt.pool_kind = kind;
    opt.pool_pages = 512;
    ExecContext ctx;
    auto db = std::move(*Database::Create(ctx, Env(), opt));
    auto t = *db->CreateTable(ctx, "t", 32);
    for (uint64_t k = 1; k <= 200; k++) {
      POLAR_CHECK(t->Insert(ctx, k, std::string(32, 'a')).ok());
    }
    db->CommitTransaction(ctx);
    return db;
  }

  storage::SimDisk disk;
  storage::PageStore store;
  storage::RedoLog log;
  cxl::CxlFabric fabric;
  cxl::CxlAccessor* acc = nullptr;
  std::unique_ptr<cxl::CxlMemoryManager> manager;
};

TEST(UndoOpTest, SerializeRoundTrip) {
  UndoOp op;
  op.kind = UndoOp::Kind::kRestoreBytes;
  op.table = 7;
  op.off = 12;
  op.key = 0xDEADBEEFCAFEULL;
  op.bytes = {1, 2, 3, 4, 5};
  const UndoOp back = UndoOp::Deserialize(op.Serialize());
  EXPECT_EQ(back.kind, op.kind);
  EXPECT_EQ(back.table, op.table);
  EXPECT_EQ(back.off, op.off);
  EXPECT_EQ(back.key, op.key);
  EXPECT_EQ(back.bytes, op.bytes);
}

TEST(TransactionTest, CommitMakesAllWritesVisible) {
  TxnWorld world;
  auto db = world.MakeDb(BufferPoolKind::kCxl);
  TransactionManager txns(db.get());
  ExecContext ctx;
  auto txn = txns.Begin(ctx);
  ASSERT_TRUE(txns.Insert(ctx, txn.get(), 0, 500, std::string(32, 'n')).ok());
  ASSERT_TRUE(txns.Update(ctx, txn.get(), 0, 1, std::string(32, 'u')).ok());
  ASSERT_TRUE(txns.Delete(ctx, txn.get(), 0, 2).ok());
  ASSERT_TRUE(txns.Commit(ctx, txn.get()).ok());

  EXPECT_EQ(*db->table(size_t{0})->Get(ctx, 500), std::string(32, 'n'));
  EXPECT_EQ(*db->table(size_t{0})->Get(ctx, 1), std::string(32, 'u'));
  EXPECT_TRUE(db->table(size_t{0})->Get(ctx, 2).status().IsNotFound());
}

TEST(TransactionTest, AbortRollsBackEverythingInReverse) {
  TxnWorld world;
  auto db = world.MakeDb(BufferPoolKind::kCxl);
  TransactionManager txns(db.get());
  ExecContext ctx;
  auto txn = txns.Begin(ctx);
  ASSERT_TRUE(txns.Insert(ctx, txn.get(), 0, 500, std::string(32, 'n')).ok());
  ASSERT_TRUE(txns.Update(ctx, txn.get(), 0, 1, std::string(32, 'u')).ok());
  ASSERT_TRUE(
      txns.UpdateColumn(ctx, txn.get(), 0, 1, 4, Slice("ZZ", 2)).ok());
  ASSERT_TRUE(txns.Delete(ctx, txn.get(), 0, 2).ok());
  ASSERT_TRUE(txns.Abort(ctx, txn.get()).ok());

  EXPECT_TRUE(db->table(size_t{0})->Get(ctx, 500).status().IsNotFound());
  EXPECT_EQ(*db->table(size_t{0})->Get(ctx, 1), std::string(32, 'a'));
  EXPECT_EQ(*db->table(size_t{0})->Get(ctx, 2), std::string(32, 'a'));
}

TEST(TransactionTest, FailedStatementDoesNotPoisonUndo) {
  TxnWorld world;
  auto db = world.MakeDb(BufferPoolKind::kCxl);
  TransactionManager txns(db.get());
  ExecContext ctx;
  auto txn = txns.Begin(ctx);
  ASSERT_TRUE(txns.Update(ctx, txn.get(), 0, 1, std::string(32, 'u')).ok());
  // Duplicate insert fails; its pre-logged undo is retracted.
  EXPECT_TRUE(txns.Insert(ctx, txn.get(), 0, 1, std::string(32, 'x'))
                  .IsInvalidArgument());
  EXPECT_EQ(txn->num_undo_ops(), 1u);
  ASSERT_TRUE(txns.Abort(ctx, txn.get()).ok());
  EXPECT_EQ(*db->table(size_t{0})->Get(ctx, 1), std::string(32, 'a'));
}

/// Redo recovery after a crash of `world`'s database: PolarRecv over the
/// CXL pool region `region`, or vanilla ARIES into a fresh DRAM pool whose
/// memory space lands in `*dram`.
std::unique_ptr<Database> Recover(ExecContext& rctx, TxnWorld* world,
                                  bool use_polar_recv, MemOffset region,
                                  std::unique_ptr<sim::MemorySpace>* dram) {
  DatabaseOptions opt;
  opt.pool_pages = 512;
  if (use_polar_recv) {
    opt.pool_kind = BufferPoolKind::kCxl;
    bufferpool::CxlBufferPool::Options po;
    po.capacity_pages = 512;
    auto pool = std::move(*bufferpool::CxlBufferPool::Attach(
        rctx, po, region, world->acc, &world->store));
    pool->SetWal(&world->log);
    recovery::PolarRecv(rctx, pool.get(), &world->log, sim::CpuCostModel{});
    return std::move(
        *Database::OpenWithPool(rctx, world->Env(), opt, std::move(pool)));
  }
  opt.pool_kind = BufferPoolKind::kDram;
  sim::MemorySpace::Options mo;
  *dram = std::make_unique<sim::MemorySpace>(mo);
  bufferpool::DramBufferPool::Options po;
  po.capacity_pages = 512;
  auto pool = std::make_unique<bufferpool::DramBufferPool>(po, dram->get(),
                                                           &world->store);
  pool->SetWal(&world->log);
  recovery::RecoverAries(rctx, pool.get(), &world->log, sim::CpuCostModel{});
  return std::move(
      *Database::OpenWithPool(rctx, world->Env(), opt, std::move(pool)));
}

/// Crash with a transaction in flight: redo restores its writes (they were
/// durable), the undo pass rolls them back. With `checkpoint_before_crash`
/// a checkpoint lands between the loser's writes and the crash, so the
/// log frees what lies below the checkpoint except the loser's undo
/// records. Run over PolarRecv and the vanilla ARIES path.
void CrashWithLoserAndRecover(bool use_polar_recv,
                              bool checkpoint_before_crash) {
  TxnWorld world;
  auto db = world.MakeDb(use_polar_recv ? BufferPoolKind::kCxl
                                        : BufferPoolKind::kDram);
  TransactionManager txns(db.get());
  ExecContext ctx;

  // A committed transaction (winner).
  auto winner = txns.Begin(ctx);
  ASSERT_TRUE(
      txns.Update(ctx, winner.get(), 0, 10, std::string(32, 'W')).ok());
  ASSERT_TRUE(txns.Commit(ctx, winner.get()).ok());

  // An in-flight transaction (loser): writes durable, no commit marker.
  const Lsn loser_start = world.log.current_lsn();
  auto loser = txns.Begin(ctx);
  ASSERT_TRUE(
      txns.Update(ctx, loser.get(), 0, 20, std::string(32, 'L')).ok());
  ASSERT_TRUE(
      txns.Insert(ctx, loser.get(), 0, 600, std::string(32, 'L')).ok());
  ASSERT_TRUE(txns.Delete(ctx, loser.get(), 0, 30).ok());
  world.log.Flush(ctx);  // the loser's writes and undo info ARE durable
  if (checkpoint_before_crash) {
    db->Checkpoint(ctx);
    ASSERT_EQ(world.log.checkpoint_lsn(), world.log.flushed_lsn());
    // The load and the winner are freed; the loser's records are not.
    // (Non-fatal, so the recovery below is checked even if this fails.)
    const auto kept = world.log.DurableRecordsFrom(0);
    EXPECT_FALSE(kept.empty());
    if (!kept.empty()) {
      EXPECT_EQ(kept.front()->lsn, loser_start);
      EXPECT_EQ(kept.front()->kind, storage::RedoKind::kUndoInfo);
    }
  }

  const MemOffset region =
      use_polar_recv ? db->cxl_region() : MemOffset{0};
  const Nanos crash_time = ctx.now;
  world.log.LoseUnflushedTail();
  db.reset();

  ExecContext rctx;
  rctx.now = crash_time;
  // Declared before db2 so the DRAM pool's memory space outlives it.
  std::unique_ptr<sim::MemorySpace> dram;
  std::unique_ptr<Database> db2 =
      Recover(rctx, &world, use_polar_recv, region, &dram);

  // Undo pass.
  auto stats = recovery::UndoLoserTransactions(rctx, db2.get());
  EXPECT_EQ(stats.loser_txns, 1u);
  EXPECT_EQ(stats.undo_ops_applied, 3u);

  // Winner persisted; loser fully rolled back.
  EXPECT_EQ(*db2->table(size_t{0})->Get(rctx, 10), std::string(32, 'W'));
  EXPECT_EQ(*db2->table(size_t{0})->Get(rctx, 20), std::string(32, 'a'));
  EXPECT_TRUE(db2->table(size_t{0})->Get(rctx, 600).status().IsNotFound());
  EXPECT_EQ(*db2->table(size_t{0})->Get(rctx, 30), std::string(32, 'a'));

  // The undo pass logged abort markers: a second pass finds no losers.
  auto again = recovery::UndoLoserTransactions(rctx, db2.get());
  EXPECT_EQ(again.loser_txns, 0u);
  EXPECT_EQ(again.undo_ops_applied, 0u);
}

/// Parameterized over PolarRecv (true) and the vanilla ARIES path.
class LoserTxnTest : public ::testing::TestWithParam<bool> {};

TEST_P(LoserTxnTest, LoserTransactionIsRolledBackAfterCrash) {
  CrashWithLoserAndRecover(GetParam(), /*checkpoint_before_crash=*/false);
}

TEST_P(LoserTxnTest, LoserOpenAcrossCheckpointIsRolledBack) {
  CrashWithLoserAndRecover(GetParam(), /*checkpoint_before_crash=*/true);
}

INSTANTIATE_TEST_SUITE_P(Schemes, LoserTxnTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "polar_recv" : "vanilla";
                         });

TEST(TransactionTest, LoserOfASecondManagerIsRolledBack) {
  // Two managers over one database, as after a restart over the same log.
  // The undo pass tells losers by txn_id over the whole durable log, so
  // manager B's first transaction must not reuse the id of A's committed
  // one: if it did, A's commit marker would hide B's undo records.
  TxnWorld world;
  auto db = world.MakeDb(BufferPoolKind::kDram);
  ExecContext ctx;
  uint64_t committed_id = 0;
  {
    TransactionManager a(db.get());
    auto t = a.Begin(ctx);
    committed_id = t->id();
    ASSERT_TRUE(a.Update(ctx, t.get(), 0, 10, std::string(32, 'W')).ok());
    ASSERT_TRUE(a.Commit(ctx, t.get()).ok());
  }
  TransactionManager b(db.get());
  auto loser = b.Begin(ctx);
  EXPECT_NE(loser->id(), committed_id);
  ASSERT_TRUE(b.Update(ctx, loser.get(), 0, 20, std::string(32, 'L')).ok());
  world.log.Flush(ctx);  // B's undo is durable, its commit marker is not
  world.log.LoseUnflushedTail();
  db.reset();

  ExecContext rctx;
  rctx.now = ctx.now;
  std::unique_ptr<sim::MemorySpace> dram;
  std::unique_ptr<Database> db2 =
      Recover(rctx, &world, /*use_polar_recv=*/false, 0, &dram);
  auto stats = recovery::UndoLoserTransactions(rctx, db2.get());
  EXPECT_EQ(stats.loser_txns, 1u);
  EXPECT_EQ(stats.undo_ops_applied, 1u);
  EXPECT_EQ(*db2->table(size_t{0})->Get(rctx, 10), std::string(32, 'W'));
  EXPECT_EQ(*db2->table(size_t{0})->Get(rctx, 20), std::string(32, 'a'));
}

TEST(TransactionTest, RandomizedAtomicityProperty) {
  TxnWorld world;
  auto db = world.MakeDb(BufferPoolKind::kCxl);
  TransactionManager txns(db.get());
  ExecContext ctx;
  std::map<uint64_t, std::string> model;
  for (uint64_t k = 1; k <= 200; k++) model[k] = std::string(32, 'a');

  Rng rng(99);
  for (int t = 0; t < 60; t++) {
    auto txn = txns.Begin(ctx);
    std::map<uint64_t, std::string> draft = model;
    const int ops = 1 + static_cast<int>(rng.Uniform(6));
    for (int i = 0; i < ops; i++) {
      const uint64_t key = 1 + rng.Uniform(260);
      std::string val(32, static_cast<char>('b' + rng.Uniform(20)));
      switch (rng.Uniform(3)) {
        case 0:
          if (draft.count(key) == 0 &&
              txns.Insert(ctx, txn.get(), 0, key, val).ok()) {
            draft[key] = val;
          }
          break;
        case 1:
          if (draft.count(key) > 0 &&
              txns.Update(ctx, txn.get(), 0, key, val).ok()) {
            draft[key] = val;
          }
          break;
        case 2:
          if (draft.count(key) > 0 &&
              txns.Delete(ctx, txn.get(), 0, key).ok()) {
            draft.erase(key);
          }
          break;
      }
    }
    if (rng.Chance(0.5)) {
      ASSERT_TRUE(txns.Commit(ctx, txn.get()).ok());
      model = draft;  // all effects visible
    } else {
      ASSERT_TRUE(txns.Abort(ctx, txn.get()).ok());
      // no effects visible
    }
    // Spot-check the model after every transaction.
    for (int probe = 0; probe < 5; probe++) {
      const uint64_t key = 1 + rng.Uniform(260);
      auto got = db->table(size_t{0})->Get(ctx, key);
      if (model.count(key) > 0) {
        ASSERT_TRUE(got.ok()) << key;
        ASSERT_EQ(*got, model[key]) << key;
      } else {
        ASSERT_TRUE(got.status().IsNotFound()) << key;
      }
    }
  }
}

}  // namespace
}  // namespace polarcxl::engine
