// World snapshot/fork determinism: a run that forks a captured post-warmup
// world must be bit-identical to one that builds the world cold — same
// lane_steps, metrics, histograms and bandwidth probes — for every buffer
// pool kind, across repeated forks, across sweep thread counts, and with an
// armed fault plan mutating the forked world. The CXL devices' bytes are
// checked directly too, against a full deep copy taken at capture.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bufferpool/cxl_buffer_pool.h"
#include "harness/chaos_driver.h"
#include "harness/instance_driver.h"
#include "harness/sweep_runner.h"
#include "harness/world_builder.h"

namespace polarcxl::harness {
namespace {

PoolingConfig SmallPooling(engine::BufferPoolKind kind) {
  PoolingConfig c;
  c.kind = kind;
  c.instances = 2;
  c.lanes_per_instance = 3;
  c.sysbench.tables = 2;
  c.sysbench.rows_per_table = 2000;
  c.warmup = Millis(20);
  c.measure = Millis(60);
  return c;
}

void ExpectPoolingIdentical(const PoolingResult& a, const PoolingResult& b) {
  EXPECT_EQ(a.lane_steps, b.lane_steps);
  EXPECT_EQ(a.virtual_end, b.virtual_end);
  EXPECT_EQ(a.metrics.queries, b.metrics.queries);
  EXPECT_EQ(a.metrics.events, b.metrics.events);
  EXPECT_EQ(a.metrics.latency.count(), b.metrics.latency.count());
  EXPECT_EQ(a.metrics.latency.min(), b.metrics.latency.min());
  EXPECT_EQ(a.metrics.latency.max(), b.metrics.latency.max());
  EXPECT_DOUBLE_EQ(a.metrics.latency.Mean(), b.metrics.latency.Mean());
  EXPECT_DOUBLE_EQ(a.nic_gbps, b.nic_gbps);
  EXPECT_DOUBLE_EQ(a.cxl_gbps, b.cxl_gbps);
  EXPECT_DOUBLE_EQ(a.lbp_hit_rate, b.lbp_hit_rate);
  EXPECT_EQ(a.local_dram_bytes, b.local_dram_bytes);
  EXPECT_EQ(a.line_hits, b.line_hits);
  EXPECT_EQ(a.line_misses, b.line_misses);
  EXPECT_EQ(a.pages_read_io, b.pages_read_io);
  EXPECT_EQ(a.breakdown.total, b.breakdown.total);
  EXPECT_EQ(a.breakdown.mem, b.breakdown.mem);
  EXPECT_EQ(a.breakdown.io, b.breakdown.io);
  EXPECT_EQ(a.breakdown.net, b.breakdown.net);
  EXPECT_EQ(a.breakdown.lock, b.breakdown.lock);
}

TEST(SnapshotTest, ForkedPoolingRunsAreBitIdenticalToCold) {
  for (auto kind :
       {engine::BufferPoolKind::kDram, engine::BufferPoolKind::kCxl,
        engine::BufferPoolKind::kTieredRdma}) {
    SCOPED_TRACE(static_cast<int>(kind));
    const PoolingResult cold = RunPooling(SmallPooling(kind));
    EXPECT_FALSE(cold.snapshot_hit);

    WorldCache cache;
    const PoolingResult first = RunPooling(SmallPooling(kind), &cache);
    EXPECT_FALSE(first.snapshot_hit);
    ExpectPoolingIdentical(cold, first);

    // Repeated forks of the same snapshot must all match (the second fork
    // catches state the first run mutated but restore missed).
    for (int i = 0; i < 3; i++) {
      const PoolingResult fork = RunPooling(SmallPooling(kind), &cache);
      EXPECT_TRUE(fork.snapshot_hit);
      ExpectPoolingIdentical(cold, fork);
    }
  }
}

TEST(SnapshotTest, SnapshotKeyExcludesMeasureWindow) {
  // Runs that differ only in measure length share one snapshot; each forked
  // window must still match its own cold run.
  WorldCache cache;
  PoolingConfig c = SmallPooling(engine::BufferPoolKind::kCxl);
  (void)RunPooling(c, &cache);  // builds + captures at measure = 60ms

  c.measure = Millis(30);
  const PoolingResult cold_short = RunPooling(c);
  const PoolingResult fork_short = RunPooling(c, &cache);
  EXPECT_TRUE(fork_short.snapshot_hit);
  ExpectPoolingIdentical(cold_short, fork_short);
}

TEST(SnapshotTest, SnapshotReuseIsThreadCountInvariant) {
  // A sweep holding repeated and distinct keys must produce the same
  // results serially without a cache, serially with one, and with the
  // point-parallel sweep runner (same-key points serialize on the lease,
  // distinct keys run concurrently).
  std::vector<PoolingConfig> configs;
  for (int rep = 0; rep < 3; rep++) {
    configs.push_back(SmallPooling(engine::BufferPoolKind::kCxl));
    configs.push_back(SmallPooling(engine::BufferPoolKind::kTieredRdma));
  }

  const auto cold = RunSweep<PoolingConfig, PoolingResult>(
      configs, [](const PoolingConfig& c) { return RunPooling(c); }, 1);

  WorldCache serial_cache;
  const auto serial = RunSweep<PoolingConfig, PoolingResult>(
      configs,
      [&serial_cache](const PoolingConfig& c) {
        return RunPooling(c, &serial_cache);
      },
      1);

  WorldCache parallel_cache;
  const auto parallel = RunSweep<PoolingConfig, PoolingResult>(
      configs,
      [&parallel_cache](const PoolingConfig& c) {
        return RunPooling(c, &parallel_cache);
      },
      4);

  ASSERT_EQ(cold.size(), serial.size());
  ASSERT_EQ(cold.size(), parallel.size());
  for (size_t i = 0; i < cold.size(); i++) {
    SCOPED_TRACE(i);
    ExpectPoolingIdentical(cold[i], serial[i]);
    ExpectPoolingIdentical(cold[i], parallel[i]);
  }
  // Each key misses once and hits on every repeat, at any thread count.
  // Which of a key's points misses is up to the workers' lease order, so
  // count misses per key (even indices are the cxl key, odd the rdma one).
  for (size_t key = 0; key < 2; key++) {
    int misses = 0;
    for (size_t i = key; i < parallel.size(); i += 2) {
      misses += parallel[i].snapshot_hit ? 0 : 1;
    }
    EXPECT_EQ(misses, 1) << "key " << key;
  }
}

ChaosConfig SmallChaos(engine::BufferPoolKind kind) {
  ChaosConfig c;
  c.kind = kind;
  c.lanes = 4;
  c.sysbench.tables = 2;
  c.sysbench.rows_per_table = 2000;
  c.warmup = Millis(20);
  c.measure = Millis(200);
  c.bucket = Millis(10);
  c.checkpoint_interval = Millis(50);
  c.plan = CanonicalChaosPlan(Millis(200));
  return c;
}

void ExpectChaosIdentical(const ChaosResult& a, const ChaosResult& b) {
  EXPECT_EQ(a.lane_steps, b.lane_steps);
  EXPECT_EQ(a.virtual_end, b.virtual_end);
  EXPECT_EQ(a.ok_ops, b.ok_ops);
  EXPECT_EQ(a.failed_ops, b.failed_ops);
  EXPECT_EQ(a.degraded_fetches, b.degraded_fetches);
  EXPECT_EQ(a.fault_rejections, b.fault_rejections);
  EXPECT_EQ(a.fault_retries, b.fault_retries);
  EXPECT_EQ(a.injected.cxl_failures, b.injected.cxl_failures);
  EXPECT_EQ(a.injected.cxl_degraded, b.injected.cxl_degraded);
  EXPECT_EQ(a.injected.nic_failures, b.injected.nic_failures);
  EXPECT_EQ(a.injected.nic_degraded, b.injected.nic_degraded);
  EXPECT_EQ(a.injected.disk_stalls, b.injected.disk_stalls);
  ASSERT_EQ(a.ok.num_buckets(), b.ok.num_buckets());
  for (size_t i = 0; i < a.ok.num_buckets(); i++) {
    EXPECT_EQ(a.ok.bucket(i), b.ok.bucket(i)) << "ok bucket " << i;
  }
  ASSERT_EQ(a.failed.num_buckets(), b.failed.num_buckets());
  for (size_t i = 0; i < a.failed.num_buckets(); i++) {
    EXPECT_EQ(a.failed.bucket(i), b.failed.bucket(i)) << "failed bucket " << i;
  }
}

TEST(SnapshotTest, ForkedChaosRunsMatchColdUnderArmedFaultPlan) {
  // The fault plan arms after the fork point, so the forked world runs the
  // full degraded/retry machinery; the injector must be re-disarmed and its
  // stats zeroed on every restore for the timelines to line up.
  for (auto kind :
       {engine::BufferPoolKind::kCxl, engine::BufferPoolKind::kTieredRdma}) {
    SCOPED_TRACE(static_cast<int>(kind));
    const ChaosConfig c = SmallChaos(kind);
    const ChaosResult cold = RunChaos(c);
    EXPECT_FALSE(cold.snapshot_hit);

    WorldCache cache;
    const ChaosResult first = RunChaos(c, &cache);
    EXPECT_FALSE(first.snapshot_hit);
    ExpectChaosIdentical(cold, first);

    for (int i = 0; i < 2; i++) {
      const ChaosResult fork = RunChaos(c, &cache);
      EXPECT_TRUE(fork.snapshot_hit);
      ExpectChaosIdentical(cold, fork);
    }
  }
}

// ---------------------------------------------------------------------------
// Device bytes under copy-before-write
// ---------------------------------------------------------------------------

/// A small CXL-pool world with `lanes` sysbench lanes per instance running
/// `op`, warmed up for 20 ms.
struct OracleWorld {
  OracleWorld(SimWorld::Spec spec, workload::SysbenchOp op, uint32_t lanes)
      : world(spec) {
    sim::Executor& ex = world.executor();
    for (uint32_t i = 0; i < world.num_instances(); i++) {
      for (uint32_t l = 0; l < lanes; l++) {
        wl.push_back(std::make_unique<workload::SysbenchWorkload>(
            world.db(i), spec.sysbench, 0, 7 + i * 1000 + l,
            world.client_net()));
        workload::SysbenchWorkload* w = wl.back().get();
        ex.AddLane(
            [w, op](sim::ExecContext& ctx) {
              w->RunEvent(ctx, op);
              return true;
            },
            i, world.db(i)->cache(), world.setup_end());
      }
    }
    ex.RunUntil(world.setup_end() + Millis(20));
  }

  /// Full deep copy of the fabric's bytes (the oracle the device
  /// snapshots must reproduce).
  std::vector<uint8_t> DeviceBytes() {
    std::vector<uint8_t> bytes(world.fabric().capacity());
    world.fabric().CopyOut(0, bytes.data(), bytes.size());
    return bytes;
  }

  SimWorld world;
  std::vector<std::unique_ptr<workload::SysbenchWorkload>> wl;
};

SimWorld::Spec OracleSpec() {
  SimWorld::Spec spec;
  spec.kind = engine::BufferPoolKind::kCxl;
  spec.instances = 2;
  spec.sysbench.tables = 2;
  spec.sysbench.rows_per_table = 2000;
  spec.cpu_cache_bytes = 2ULL << 20;
  return spec;
}

TEST(SnapshotTest, PoolingForkRestoresDeviceBytesExactly) {
  OracleWorld ow(OracleSpec(), workload::SysbenchOp::kReadWrite, 3);
  const std::vector<uint8_t> captured = ow.DeviceBytes();
  ow.world.CaptureSnapshot();
  EXPECT_EQ(ow.world.MemoryBytes().snapshot_saved, 0u);
  sim::Executor& ex = ow.world.executor();
  for (int fork = 0; fork < 2; fork++) {
    SCOPED_TRACE(fork);
    ex.RunUntil(ex.MaxClock() + Millis(30));
    // The writes really reached the devices (else the check is vacuous).
    EXPECT_GT(ow.world.MemoryBytes().snapshot_saved, 0u);
    EXPECT_NE(ow.DeviceBytes(), captured);
    ow.world.RestoreSnapshot();
    EXPECT_EQ(ow.DeviceBytes(), captured);
  }
}

TEST(SnapshotTest, ChaosForkRestoresDeviceBytesExactly) {
  // The chaos driver's shape: fault-wired world, update/read lanes that
  // ride out injected failures, and a checkpoint lane.
  SimWorld::Spec spec = OracleSpec();
  spec.instances = 1;
  spec.wire_faults = true;
  OracleWorld ow(spec, workload::SysbenchOp::kPointSelect, 0);
  sim::Executor& ex = ow.world.executor();
  engine::Database* db = ow.world.db(0);
  std::vector<std::unique_ptr<Rng>> rngs;
  for (uint32_t l = 0; l < 4; l++) {
    rngs.push_back(std::make_unique<Rng>(11 + l));
    Rng* rng = rngs.back().get();
    const uint64_t rows = spec.sysbench.rows_per_table;
    ex.AddLane(
        [db, rng, rows](sim::ExecContext& ctx) {
          engine::Table* t = db->table(rng->Uniform(db->num_tables()));
          const uint64_t id = 1 + rng->Uniform(rows);
          Status s;
          if (rng->Chance(0.5)) {
            const uint32_t k = static_cast<uint32_t>(rng->Next());
            s = t->UpdateColumn(
                ctx, id, 4,
                Slice(reinterpret_cast<const char*>(&k), sizeof(k)));
            if (s.ok()) db->CommitTransaction(ctx);
          } else {
            std::string row;
            s = t->GetTo(ctx, id, &row);
            db->FinishReadOnly(ctx);
          }
          if (!s.ok()) ctx.Advance(Micros(20));
          return true;
        },
        0, db->cache(), ex.MaxClock());
  }
  ex.AddLane(
      [db](sim::ExecContext& ctx) {
        db->Checkpoint(ctx);
        ctx.Advance(Millis(10));
        return true;
      },
      0, db->cache(), ex.MaxClock());
  ex.RunUntil(ex.MaxClock() + Millis(10));
  const std::vector<uint8_t> captured = ow.DeviceBytes();
  ow.world.CaptureSnapshot();
  for (int fork = 0; fork < 2; fork++) {
    SCOPED_TRACE(fork);
    const Nanos t0 = ex.MaxClock();
    faults::FaultPlan plan = CanonicalChaosPlan(Millis(100));
    plan.ShiftBy(t0);
    ASSERT_TRUE(ow.world.injector().Arm(std::move(plan)).ok());
    ex.RunUntil(t0 + Millis(100));
    EXPECT_GT(ow.world.injector().stats().cxl_failures, 0u);
    EXPECT_GT(ow.world.MemoryBytes().snapshot_saved, 0u);
    EXPECT_NE(ow.DeviceBytes(), captured);
    ow.world.RestoreSnapshot();
    EXPECT_EQ(ow.DeviceBytes(), captured);
  }
}

TEST(SnapshotTest, WorldKeysTellApartDoublesPastTheSixthDigit) {
  // Each pair differs only after the sixth significant digit of a double
  // that shapes the world before the window opens. Printed at six digits
  // (0.9999999 and 0.99999999 both print as "1") the pair shared a key and
  // the second config silently forked the first one's world.
  WorldCache cache;
  PoolingConfig pool = SmallPooling(engine::BufferPoolKind::kCxl);
  pool.measure = Millis(5);
  pool.sysbench.zipf_theta = 0.9999999;
  EXPECT_FALSE(RunPooling(pool, &cache).snapshot_hit);
  pool.sysbench.zipf_theta = 0.99999999;
  EXPECT_FALSE(RunPooling(pool, &cache).snapshot_hit);
  EXPECT_TRUE(RunPooling(pool, &cache).snapshot_hit);

  ChaosConfig chaos = SmallChaos(engine::BufferPoolKind::kCxl);
  chaos.measure = Millis(5);
  chaos.plan = faults::FaultPlan{};
  chaos.write_fraction = 0.25;
  EXPECT_FALSE(RunChaos(chaos, &cache).snapshot_hit);
  chaos.write_fraction = 0.2500001;
  EXPECT_FALSE(RunChaos(chaos, &cache).snapshot_hit);
  EXPECT_TRUE(RunChaos(chaos, &cache).snapshot_hit);
}

TEST(SnapshotTest, ReadOnlyForkSavesOnlyPoolMetadataChunks) {
  OracleWorld ow(OracleSpec(), workload::SysbenchOp::kPointSelect, 3);
  ow.world.CaptureSnapshot();
  sim::Executor& ex = ow.world.executor();
  ex.RunUntil(ex.MaxClock() + Millis(30));

  // Point selects only move LRU links: the saved chunks must all lie in
  // some pool's header + block-meta area, never in its page frames.
  std::vector<std::pair<MemOffset, MemOffset>> meta_areas;
  for (uint32_t i = 0; i < ow.world.num_instances(); i++) {
    auto* pool =
        static_cast<bufferpool::CxlBufferPool*>(ow.world.db(i)->pool());
    const uint64_t frames = static_cast<uint64_t>(pool->num_blocks());
    const uint64_t meta_bytes =
        bufferpool::CxlBufferPool::RegionBytes(frames) - frames * kPageSize;
    meta_areas.emplace_back(pool->region(), pool->region() + meta_bytes);
  }
  // One device backs the legacy world, so device offsets are fabric ones.
  ASSERT_EQ(ow.world.fabric().num_devices(), 1u);
  const std::vector<MemOffset> saved =
      ow.world.fabric().device(0).SavedChunkOffsets();
  EXPECT_FALSE(saved.empty());
  for (const MemOffset off : saved) {
    bool in_meta = false;
    for (const auto& [lo, hi] : meta_areas) in_meta |= off >= lo && off < hi;
    EXPECT_TRUE(in_meta) << "saved chunk at " << off << " is not metadata";
  }
  const SimWorld::MemoryLedger m = ow.world.MemoryBytes();
  EXPECT_EQ(m.snapshot_saved, saved.size() * kPageSize);
  uint64_t meta_bytes = 0;
  for (const auto& [lo, hi] : meta_areas) meta_bytes += hi - lo;
  EXPECT_LE(m.snapshot_saved, meta_bytes);
}

}  // namespace
}  // namespace polarcxl::harness
