#include "harness/chaos_driver.h"

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/executor.h"

namespace polarcxl::harness {

namespace {
constexpr NodeId kInstanceNode = 1;  // tenant / crash-target identity

/// Lane bookkeeping referenced by the executor lambdas; heap-stable because
/// a cached world outlives every run that forks it.
struct ChaosLaneState : PointOpLane {
  using PointOpLane::PointOpLane;
  double write_fraction = 0;
  Nanos error_backoff = 0;
  ChaosResult* result = nullptr;
  // Sentinel start (max Nanos): before the window opens nothing reaches
  // the sentinel, so the lane lambda needs no "window set?" branch.
  Nanos window_start = std::numeric_limits<Nanos>::max();
  Nanos window_end = -1;
};

/// A chaos world parked in a WorldCache: the simulated host (fault injector
/// wired but disarmed) and its lanes; the lane RNGs are the lane state.
struct ChaosWorld : CachedWorld {
  using CachedWorld::CachedWorld;
  std::vector<std::unique_ptr<ChaosLaneState>> lane_states;
  ChaosResult result;  // lane lambdas point here; re-initialized per run
};

/// One instance, fault injector wired (disarmed until the window opens, so
/// warmup is fault-free).
SimWorld::Spec SpecFor(const ChaosConfig& c) {
  return {.kind = c.kind, .instances = 1, .sysbench = c.sysbench,
          .lbp_fraction = c.lbp_fraction, .cpu_cache_bytes = c.cpu_cache_bytes,
          .wire_faults = true, .fabric = {}};
}

std::unique_ptr<ChaosWorld> BuildChaosWorld(const ChaosConfig& config) {
  auto cw = std::make_unique<ChaosWorld>(SpecFor(config));
  SimWorld& world = cw->world;
  sim::Executor& executor = world.executor();
  executor.ReserveLanes(config.lanes);
  const Nanos setup_end = world.setup_end();
  engine::Database* db = world.db(0);

  for (uint32_t l = 0; l < config.lanes; l++) {
    auto state = std::make_unique<ChaosLaneState>(
        db, config.seed + l, config.sysbench.rows_per_table);
    state->write_fraction = config.write_fraction;
    state->error_backoff = config.error_backoff;
    state->result = &cw->result;
    ChaosLaneState* raw = state.get();
    cw->lane_rngs.push_back(&raw->rng);
    cw->lane_states.push_back(std::move(state));
    executor.AddLane(
        [raw](sim::ExecContext& ctx) {
          const Nanos start = ctx.now;
          const Status s = raw->Run(ctx, raw->write_fraction);
          if (start >= raw->window_start && ctx.now <= raw->window_end) {
            if (s.ok()) {
              raw->result->ok.Add(ctx.now - raw->window_start);
              raw->result->ok_ops++;
            } else {
              raw->result->failed.Add(ctx.now - raw->window_start);
              raw->result->failed_ops++;
            }
          }
          if (!s.ok()) ctx.Advance(raw->error_backoff);
          return true;
        },
        kInstanceNode, db->cache(), setup_end);
  }
  AddCheckpointLane(executor, db, kInstanceNode, config.checkpoint_interval,
                    setup_end);
  return cw;
}
}  // namespace

const char* ChaosPoolName(engine::BufferPoolKind kind) {
  switch (kind) {
    case engine::BufferPoolKind::kDram:
      return "dram";
    case engine::BufferPoolKind::kCxl:
      return "cxl";
    case engine::BufferPoolKind::kTieredRdma:
      return "tiered_rdma";
  }
  return "?";
}

faults::FaultPlan CanonicalChaosPlan(Nanos measure) {
  using faults::FaultEvent;
  using faults::FaultKind;
  const double m = static_cast<double>(measure);
  const auto frac = [m](double f) { return static_cast<Nanos>(m * f); };

  faults::FaultPlan plan;
  plan.seed = 7;
  // Full CXL outage: the CXL pool must degrade to storage reads, not crash.
  plan.Add({FaultKind::kCxlDown, frac(0.20), frac(0.35)});
  // NIC brownout overlapping the tail of the outage: the tiered baseline
  // loses its remote tier, the verbs retry path kicks in.
  plan.Add({FaultKind::kNicDown, frac(0.30), frac(0.40)});
  // Transient flakiness: seeded probability window, exercises per-lane
  // draw determinism.
  {
    FaultEvent e{FaultKind::kCxlFlaky, frac(0.45), frac(0.55)};
    e.probability = 0.2;
    plan.Add(e);
  }
  // Link degradation: latency adder + per-KB tax, throughput dips but no
  // failures.
  {
    FaultEvent e{FaultKind::kNicDegrade, frac(0.55), frac(0.70)};
    e.extra_latency = Micros(4);
    e.per_kb_ns = 40.0;
    plan.Add(e);
  }
  {
    FaultEvent e{FaultKind::kCxlDegrade, frac(0.58), frac(0.66)};
    e.extra_latency = 300;
    e.per_kb_ns = 25.0;
    plan.Add(e);
  }
  // Disk stall at the end: hits every pool's storage fallback path.
  {
    FaultEvent e{FaultKind::kDiskStall, frac(0.75), frac(0.85)};
    e.extra_latency = Micros(300);
    plan.Add(e);
  }
  plan.Normalize();
  return plan;
}

ChaosResult RunChaos(const ChaosConfig& config, WorldCache* cache) {
  const uint32_t world_threads = ResolveWorldThreads(config.world_threads);
  // The plan, measure window and timeline bucket are per-run.
  std::string key = WorldKey("chaos", SpecFor(config), world_threads >= 1);
  AppendKey(&key, config.lanes, config.write_fraction, config.warmup,
            config.error_backoff, config.checkpoint_interval, config.seed);
  WarmWorld warm = AcquireWarmWorld(
      cache, key, world_threads, config.warmup,
      [&] { return BuildChaosWorld(config); });
  ChaosWorld* cw = warm.as<ChaosWorld>();

  // The world-owned result the lane lambdas point at. Warmup never records
  // (sentinel windows), so initializing it here covers both paths.
  cw->result = ChaosResult();
  cw->result.ok = TimeSeries(config.bucket);
  cw->result.failed = TimeSeries(config.bucket);

  // ---- arm and measure (identical for cold and forked worlds) ----
  const Nanos t0 = warm.window_start();
  const Nanos t1 = t0 + config.measure;
  for (auto& state : cw->lane_states) {
    state->window_start = t0;
    state->window_end = t1;
  }
  // A node crash freezes every lane: the whole instance is gone.
  const auto lanes = static_cast<uint32_t>(warm.world().executor().num_lanes());
  RunFaultWindow(warm, config.plan, t1, {{0, lanes - 1}}, &cw->result);
  return cw->result;
}

}  // namespace polarcxl::harness
