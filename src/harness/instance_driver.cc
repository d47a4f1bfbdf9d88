#include "harness/instance_driver.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <sstream>
#include <string>

#include "bufferpool/tiered_rdma_buffer_pool.h"
#include "common/prof.h"

namespace polarcxl::harness {

namespace {
constexpr NodeId kHostNode = 0;  // all instances share this NIC

/// Lane bookkeeping referenced by the executor lambdas; heap-stable because
/// a cached world outlives every run that forks it.
struct PoolLaneState {
  workload::SysbenchWorkload* wl;
  RunMetrics* metrics;
  // Sentinel start (max Nanos) makes `start >= window_start` alone gate
  // recording: before the window opens nothing can reach the sentinel, so
  // the hot lane lambda needs no separate "window set?" branch.
  Nanos window_start = std::numeric_limits<Nanos>::max();
  Nanos window_end = -1;
};

/// A pooling world parked in a WorldCache: the simulated host plus the lane
/// drivers and their post-warmup RNG/counter states.
struct PoolingWorld : CachedWorld {
  explicit PoolingWorld(const SimWorld::Spec& spec) : world(spec) {}
  SimWorld world;
  std::vector<std::unique_ptr<workload::SysbenchWorkload>> lanes_wl;
  std::vector<std::unique_ptr<PoolLaneState>> lane_states;
  RunMetrics metrics;  // lane lambdas point here; reset before each measure
  /// Epoch-parallel worlds record into one RunMetrics per instance (each
  /// instance is one shard group, so no two threads touch the same slot) and
  /// merge them in instance order after the run — same totals and histogram
  /// buckets as the serial shared accumulator, since both are commutative.
  std::vector<RunMetrics> instance_metrics;
  bool epoch = false;
  std::vector<workload::SysbenchWorkload::State> wl_states;  // post-warmup
};

SimWorld::Spec SpecFor(const PoolingConfig& config) {
  SimWorld::Spec spec;
  spec.kind = config.kind;
  spec.instances = config.instances;
  spec.sysbench = config.sysbench;
  spec.lbp_fraction = config.lbp_fraction;
  spec.cpu_cache_bytes = config.cpu_cache_bytes;
  spec.group_commit_window = config.group_commit_window;
  spec.wire_faults = false;  // fault-free figures keep the injector-null path
  spec.fabric = config.fabric;
  return spec;
}

/// Every config field that influences the world before the measurement
/// window opens. `measure` is deliberately absent: runs differing only in
/// window length share one snapshot.
std::string PoolingKey(const PoolingConfig& c, bool epoch) {
  std::ostringstream os;
  // Epoch discipline is part of the key (it changes the metrics wiring);
  // the thread COUNT is not — worlds are identical across counts, so a
  // cached world is re-sharded with SetThreads() on hit.
  os << "pooling:e" << (epoch ? 1 : 0) << ':'
     << static_cast<int>(c.kind) << ':' << c.instances << ':'
     << c.lanes_per_instance << ':' << static_cast<int>(c.op) << ':'
     << c.sysbench.tables << ':' << c.sysbench.rows_per_table << ':'
     << c.sysbench.range_size << ':' << c.sysbench.row_size << ':'
     << static_cast<int>(c.sysbench.distribution) << ':'
     << c.sysbench.zipf_theta << ':' << c.sysbench.num_nodes << ':'
     << c.sysbench.shared_fraction << ':' << c.lbp_fraction << ':'
     << c.cpu_cache_bytes << ':' << c.group_commit_window << ':' << c.warmup
     << ':' << c.seed;
  // Fabric shape (the default tuple matches every pre-topology key's world).
  const FabricWorldSpec& f = c.fabric;
  os << ":f" << f.switches << ':' << f.devices_per_switch << ':'
     << (f.ring ? 1 : 0) << ':' << f.uplink_bps << ':' << f.uplink_latency
     << ':' << static_cast<int>(f.interleave.mode) << ':'
     << f.interleave.granule << ':' << f.interleave.ways << ':'
     << static_cast<int>(f.placement) << ':' << (f.topology_mode ? 1 : 0)
     << ':' << f.port_bps << ':' << f.device_port_bps;
  return os.str();
}

/// Builds the world and lanes, then runs warmup — everything a snapshot
/// amortizes.
std::unique_ptr<PoolingWorld> BuildPoolingWorld(const PoolingConfig& config,
                                                uint32_t world_threads) {
  auto pw = std::make_unique<PoolingWorld>(SpecFor(config));
  pw->epoch = world_threads >= 1;
  if (pw->epoch) pw->instance_metrics.resize(config.instances);
  SimWorld& world = pw->world;
  sim::Executor& executor = world.executor();
  executor.ReserveLanes(static_cast<size_t>(config.instances) *
                        config.lanes_per_instance);
  const Nanos setup_end = world.setup_end();
  for (uint32_t i = 0; i < config.instances; i++) {
    for (uint32_t l = 0; l < config.lanes_per_instance; l++) {
      pw->lanes_wl.push_back(std::make_unique<workload::SysbenchWorkload>(
          world.db(i), config.sysbench, 0, config.seed + i * 1000 + l,
          world.client_net()));
      auto state = std::make_unique<PoolLaneState>();
      state->wl = pw->lanes_wl.back().get();
      state->metrics =
          pw->epoch ? &pw->instance_metrics[i] : &pw->metrics;
      PoolLaneState* raw = state.get();
      pw->lane_states.push_back(std::move(state));
      const workload::SysbenchOp op = config.op;
      executor.AddLane(
          [raw, op](sim::ExecContext& ctx) {
            const Nanos start = ctx.now;
            const uint32_t queries = raw->wl->RunEvent(ctx, op);
            if (start >= raw->window_start && ctx.now <= raw->window_end) {
              POLAR_PROF_SCOPE(kMetrics);
              raw->metrics->queries += queries;
              raw->metrics->events++;
              raw->metrics->latency.Add(ctx.now - start);
            }
            return true;
          },
          i, world.db(i)->cache(), setup_end);
    }
  }
  if (pw->epoch) world.EnableInWorldParallelism(world_threads);
  executor.RunUntil(setup_end + config.warmup);
  return pw;
}
}  // namespace

uint64_t SysbenchDatasetPages(const workload::SysbenchConfig& config) {
  const uint64_t entry = 8 + config.row_size;
  const uint64_t per_leaf = (kPageSize - 64) / entry;
  // Leaves (with split slack) + internal nodes + catalog margin.
  const uint64_t leaves_per_table =
      config.rows_per_table * 2 / per_leaf + 2;  // half-full after splits
  return config.TotalTables() * (leaves_per_table + 4) + 64;
}

PoolingResult RunPooling(const PoolingConfig& config, WorldCache* cache) {
  const double wall_start = ThreadCpuSeconds();
  const uint32_t world_threads = ResolveWorldThreads(config.world_threads);
  const bool epoch = world_threads >= 1;

  // ---- acquire a warmed world: fork a snapshot or build cold ----
  WorldCache::Lease lease;
  std::unique_ptr<PoolingWorld> local;
  PoolingWorld* pw = nullptr;
  bool hit = false;
  if (cache != nullptr) {
    lease = cache->Acquire(PoolingKey(config, epoch));
    pw = static_cast<PoolingWorld*>(lease.get());
    hit = pw != nullptr;
  }
  if (pw == nullptr) {
    auto fresh = BuildPoolingWorld(config, world_threads);
    if (cache != nullptr) {
      // Park the warmed world for every later rep / sweep point sharing the
      // key. Capture is pure host-side copying, so a cold run that captures
      // stays bit-identical to one that doesn't.
      fresh->world.CaptureSnapshot();
      fresh->wl_states.reserve(fresh->lanes_wl.size());
      for (const auto& wl : fresh->lanes_wl) {
        fresh->wl_states.push_back(wl->Capture());
      }
      pw = fresh.get();
      lease.put(std::move(fresh));
    } else {
      local = std::move(fresh);
      pw = local.get();
    }
  } else {
    // The cached world may have been sharded for a different thread count;
    // re-shard first so Restore pushes lanes into the right shards.
    if (epoch) pw->world.executor().SetThreads(world_threads);
    pw->world.RestoreSnapshot();
    for (size_t i = 0; i < pw->lanes_wl.size(); i++) {
      pw->lanes_wl[i]->Restore(pw->wl_states[i]);
    }
    pw->metrics = RunMetrics();
    for (RunMetrics& m : pw->instance_metrics) m = RunMetrics();
  }

  // ---- measure (identical for cold and forked worlds) ----
  SimWorld& world = pw->world;
  sim::Executor& executor = world.executor();
  const Nanos setup_end = world.setup_end();
  const Nanos t0 = executor.MinClock(setup_end + config.warmup);
  const Nanos t1 = t0 + config.measure;
  for (auto& state : pw->lane_states) {
    state->window_start = t0;
    state->window_end = t1;
  }

  sim::BandwidthChannel* nic_wire = &world.net().nic(kHostNode)->wire();
  // Sum over the host-side switch ports (one port on the legacy layout, one
  // per switch in topology mode) and over the inter-switch uplinks.
  auto uplink_bytes = [&world] {
    uint64_t total = 0;
    fabric::FabricTopology& topo = world.fabric().topology();
    for (size_t u = 0; u < topo.num_uplinks(); u++) {
      total += topo.uplink(u)->total_bytes();
    }
    return total;
  };
  BandwidthProbe nic_probe{nic_wire->total_bytes(), 0};
  BandwidthProbe cxl_probe{world.fabric().host_port_bytes(), 0};
  BandwidthProbe uplink_probe{uplink_bytes(), 0};

  const uint64_t steps_before = executor.total_steps();
  // Epoch/divergence counters are cumulative over the executor's life
  // (forks do not rewind them); report this run's deltas.
  const uint64_t epochs_before = executor.epochs_run();
  const uint64_t divergence_before = executor.drain_divergence();
  const uint64_t sched_ops_before = executor.sched_ops();
  const uint64_t window_adv_before = world.WindowAdvances();
  const double setup_done = ThreadCpuSeconds();
  const auto real_start = std::chrono::steady_clock::now();
  executor.RunUntil(t1);
  const auto real_end = std::chrono::steady_clock::now();
  const double measure_done = ThreadCpuSeconds();

  nic_probe.after = nic_wire->total_bytes();
  cxl_probe.after = world.fabric().host_port_bytes();
  uplink_probe.after = uplink_bytes();

  PoolingResult result;
  if (pw->epoch) {
    // Deterministic merge in instance order; sums and bucket counts are
    // commutative, so this equals the serial shared accumulator.
    for (const RunMetrics& m : pw->instance_metrics) {
      pw->metrics.queries += m.queries;
      pw->metrics.events += m.events;
      pw->metrics.latency.Merge(m.latency);
    }
  }
  pw->metrics.window = config.measure;
  result.metrics = pw->metrics;
  result.nic_gbps = nic_probe.Gbps(config.measure);
  result.cxl_gbps = cxl_probe.Gbps(config.measure);
  result.uplink_gbps = uplink_probe.Gbps(config.measure);
  result.interconnect_gbps =
      config.kind == engine::BufferPoolKind::kTieredRdma ? result.nic_gbps
                                                         : result.cxl_gbps;
  uint64_t dram_bytes = 0;
  double hit_rate = 0;
  for (uint32_t i = 0; i < world.num_instances(); i++) {
    dram_bytes += world.db(i)->pool()->local_dram_bytes();
    hit_rate += world.db(i)->pool()->stats().HitRate();
  }
  result.local_dram_bytes = dram_bytes;
  result.lbp_hit_rate = hit_rate / config.instances;
  result.lane_steps = executor.total_steps();
  result.measure_steps = result.lane_steps - steps_before;
  result.virtual_end = executor.MaxClock();
  for (size_t l = 0; l < executor.num_lanes(); l++) {
    const sim::ExecContext& lane = executor.context(static_cast<uint32_t>(l));
    result.line_hits += lane.mem_line_hits;
    result.line_misses += lane.mem_line_misses;
    result.pages_read_io += lane.pages_read_io;
    result.breakdown.total += lane.now - setup_end;
    result.breakdown.mem += lane.t_mem;
    result.breakdown.io += lane.t_io;
    result.breakdown.net += lane.t_net;
    result.breakdown.lock += lane.t_lock;
  }
  result.setup_wall_sec = setup_done - wall_start;
  result.measure_wall_sec = measure_done - setup_done;
  result.measure_real_sec =
      std::chrono::duration<double>(real_end - real_start).count();
  result.snapshot_hit = hit;
  result.epochs = executor.epochs_run() - epochs_before;
  result.drain_divergence = executor.drain_divergence() - divergence_before;
  result.sched_ops = executor.sched_ops() - sched_ops_before;
  result.window_advances = world.WindowAdvances() - window_adv_before;
  result.memory = world.MemoryBytes();
  return result;
}

PoolingConfig Fig7PoolingConfig(engine::BufferPoolKind kind) {
  PoolingConfig c;
  c.kind = kind;
  c.instances = 8;
  c.lanes_per_instance = 8;
  c.op = workload::SysbenchOp::kPointSelect;
  c.sysbench.tables = 4;
  c.sysbench.rows_per_table = 8000;
  c.cpu_cache_bytes = 2ULL << 20;
  c.lbp_fraction = 0.3;
  return c;
}

}  // namespace polarcxl::harness
