// Copyright 2026 The PolarCXLMem Reproduction Authors.
// World construction, deterministic snapshot/fork, and the run core of the
// SimWorld drivers (RunPooling, RunChaos, RunOpenLoop). SimWorld builds one
// simulated host — fabric, NICs, disk, instances, loaded tables — and can
// capture its post-warmup state and rewind to it. On top of it sits the
// run core every driver shares: AcquireWarmWorld forks a cached world or
// builds a cold one (keyed by WorldKey over every Spec field plus the
// driver's lane-level fields, doubles by bit pattern), WarmWorld brackets
// the measurement window and fills the RunCore base of the drivers'
// results, and the fault-run pieces (PointOpLane, AddCheckpointLane,
// RunFaultWindow) serve the chaos and open-loop drivers.
//
// Determinism contract: a forked run is bit-identical to a cold-built run —
// same lane_steps, metrics, histograms, bandwidth probes. The snapshot is a
// restore-in-place design: RestoreSnapshot() rewinds the SAME world object
// back to its captured state, so raw cross-component pointers (MemorySpace
// homes in the CPU-cache sim, lane closures, charge targets, device bytes
// handed out by CxlAccessor::Raw) stay valid and no pointer translation
// ever happens. CXL device bytes are copy-before-write page chunks: the
// capture copies none of them, and a restore rewrites only the chunks the
// fork wrote. Parallel sweeps (POLAR_SWEEP_THREADS) serialize per cache key
// and parallelize across keys.
#pragma once

#include <bit>
#include <chrono>
#include <ctime>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "engine/database.h"
#include "fabric/hdm_decoder.h"
#include "fabric/placement_policy.h"
#include "faults/fault_injector.h"
#include "sim/executor.h"
#include "storage/disk.h"
#include "workload/sysbench.h"
#include "workload/tatp.h"
#include "workload/tpcc.h"

namespace polarcxl::harness {

// ---------------------------------------------------------------------------
// Shared load path (the former per-driver Load*Tables call sites)
// ---------------------------------------------------------------------------

/// Which benchmark's tables to create + populate, and with what shape.
struct WorkloadSpec {
  enum class Bench { kSysbench, kTpcc, kTatp };
  Bench bench = Bench::kSysbench;
  workload::SysbenchConfig sysbench;
  workload::TpccConfig tpcc;
  workload::TatpConfig tatp;
};

/// Creates and populates the spec's tables on `db`, charging `ctx`.
Status LoadTables(sim::ExecContext& ctx, engine::Database* db,
                  const WorkloadSpec& spec);

/// The create-then-load sequence every single-instance driver used to
/// inline: fresh instance over `env`/`opt`, schema + data from `spec`,
/// all charged to `ctx` (ctx.cache is pointed at the new instance's cache).
Result<std::unique_ptr<engine::Database>> CreateAndLoad(
    sim::ExecContext& ctx, const engine::DatabaseEnv& env,
    const engine::DatabaseOptions& opt, const WorkloadSpec& spec);

/// Resolves a driver's world_threads knob against POLAR_WORLD_THREADS:
/// `requested` < 0 reads the env var (unset/0 = serial), otherwise the value
/// is used as-is. Returns 0 for serial legacy execution, else the
/// epoch-parallel thread count (the executor runs at most one shard per
/// instance group).
uint32_t ResolveWorldThreads(int requested);

/// CPU time of the calling thread in seconds (wall-split accounting; thread
/// time keeps parallel sweep workers from polluting each other's numbers).
inline double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------------------
// SimWorld: the shared single-host world of the pooling/chaos/open-loop
// drivers
// ---------------------------------------------------------------------------

/// Shape of the CXL fabric behind the world's instances. The default — one
/// switch, one device, routing off — is the historical single-switch world,
/// bit-identical to the pre-topology driver. Raising `switches` (or setting
/// `topology_mode` with one switch) activates per-address routing: every
/// access additionally charges its route's uplinks, entered switch fabrics,
/// and destination device port.
struct FabricWorldSpec {
  uint32_t switches = 1;
  uint32_t devices_per_switch = 1;
  /// Ring topology when true, chain otherwise (same graph below 3).
  bool ring = true;
  uint64_t uplink_bps = 56ULL * 1000 * 1000 * 1000;
  Nanos uplink_latency = 100;
  /// Port-width overrides for every switch (0 = the model defaults: x16
  /// 56 GB/s ports). `device_port_bps` narrows only the memory-device
  /// ports — x8/x4 expanders or oversubscribed trunks behind full-width
  /// host links.
  uint64_t port_bps = 0;
  uint64_t device_port_bps = 0;
  fabric::InterleaveSpec interleave;
  fabric::PlacementMode placement = fabric::PlacementMode::kLocalFirst;
  /// Forces topology-mode routing even with a single switch.
  bool topology_mode = false;

  bool TopologyActive() const { return switches > 1 || topology_mode; }
};

/// One simulated host: CXL fabric + switch(es), RDMA NIC pair, remote memory
/// pool, client network, shared PolarFS-like disk, and `instances` database
/// instances loaded with sysbench tables.
class SimWorld {
 public:
  struct Spec {
    engine::BufferPoolKind kind = engine::BufferPoolKind::kCxl;
    uint32_t instances = 1;
    workload::SysbenchConfig sysbench;
    double lbp_fraction = 0.3;
    uint64_t cpu_cache_bytes = 28ULL << 20;
    Nanos group_commit_window = 0;
    /// Verbs retry budget for kTieredRdma instances (0 = unlimited).
    Nanos verbs_retry_budget = 0;
    /// Wire the fault injector into fabric/manager/net/disk. Off for the
    /// fault-free figures so their pools keep the injector-null fast path
    /// (bit-identical to the pre-snapshot drivers).
    bool wire_faults = false;
    /// Fabric topology behind the instances (default = legacy one-switch).
    FabricWorldSpec fabric;
  };

  explicit SimWorld(const Spec& spec);
  ~SimWorld();
  POLAR_DISALLOW_COPY(SimWorld);

  uint32_t num_instances() const {
    return static_cast<uint32_t>(instances_.size());
  }
  engine::Database* db(uint32_t i) { return instances_[i].db.get(); }
  Nanos setup_end() const { return setup_end_; }
  sim::Executor& executor() { return executor_; }
  faults::FaultInjector& injector() { return injector_; }
  rdma::RdmaNetwork& net() { return net_; }
  cxl::CxlFabric& fabric() { return fabric_; }
  sim::BandwidthChannel* client_net() { return &client_net_; }

  /// Sum of window_advances over every channel in the world — fabric
  /// (ports/fabrics/uplinks), both NICs, client net, disk bandwidth+IOPS,
  /// and the per-instance DRAM channels. Monotone diagnostics; drivers
  /// meter a window by delta (see PoolingResult::window_advances).
  uint64_t WindowAdvances() const;

  /// Host bytes held by the world's largest consumers. A measurement
  /// ledger for memory ceilings (tools/check.sh --scale) and the scale-cost
  /// bench; reading it has no effect on the simulation.
  struct MemoryLedger {
    /// CXL device chunks ever written (the devices' host cost).
    uint64_t device_allocated = 0;
    /// Captured chunk contents the snapshot holds (copy-before-write).
    uint64_t snapshot_saved = 0;
    /// Live durable page images, all instances.
    uint64_t page_store_images = 0;
    /// Retained redo records, all instances.
    uint64_t redo_records = 0;
  };
  MemoryLedger MemoryBytes() const;

  /// Switches the world into epoch-parallel execution on `threads` workers
  /// (POLAR_WORLD_THREADS): marks every cross-instance channel — CXL host
  /// link + fabric, both RDMA NICs' wire/doorbell, client network, disk
  /// bandwidth + IOPS — as shared so their charges defer into per-instance
  /// effect queues, then shards the executor. Call once, after lane
  /// registration and before warmup. Results are bit-identical for every
  /// thread count; use SetThreads() on the executor to re-shard later.
  void EnableInWorldParallelism(uint32_t threads);

  /// Captures the whole simulated state — executor lanes, channels, disk,
  /// device bytes, page stores, logs, pools, engine state, remote pool —
  /// into an in-memory snapshot owned by this world. Pure host-side
  /// work: zero effect on virtual time. Call after warmup, before the
  /// measurement window is armed. Device bytes are not copied here: the
  /// capture arms each CXL device's copy-before-write, and the first write
  /// to a page chunk afterwards saves that chunk (cxl/cxl_device.h). So the
  /// snapshot's device cost is the chunks a fork writes, not the pool size.
  /// A second capture replaces the first.
  void CaptureSnapshot();
  /// Rewinds the world to the captured state (restore-in-place). Device
  /// chunks written since the capture get their saved bytes back in place,
  /// so device addresses — and every Raw() pointer — never move. The fault
  /// injector is disarmed and its stats cleared, matching the cold world's
  /// pre-measure state.
  void RestoreSnapshot();

 private:
  struct Instance {
    std::unique_ptr<storage::PageStore> store;
    std::unique_ptr<storage::RedoLog> log;
    std::unique_ptr<engine::Database> db;
  };
  struct Snapshot;

  // Destruction order (reverse of declaration) must keep the injector alive
  // past every component that may hold a pointer to it.
  faults::FaultInjector injector_;
  sim::BandwidthModel bw_;
  cxl::CxlFabric fabric_;
  std::vector<cxl::CxlAccessor*> host_accs_;
  std::unique_ptr<cxl::CxlMemoryManager> manager_;
  rdma::RdmaNetwork net_;
  std::unique_ptr<rdma::RemoteMemoryPool> remote_;
  sim::BandwidthChannel client_net_;
  std::unique_ptr<storage::SimDisk> disk_;
  std::vector<Instance> instances_;
  sim::Executor executor_;
  Nanos setup_end_ = 0;
  bool wire_faults_ = false;
  std::unique_ptr<Snapshot> snapshot_;
};

// ---------------------------------------------------------------------------
// Run core: fork-or-build, world keys, the measured window
// ---------------------------------------------------------------------------

/// A warmed world parked in a WorldCache: the simulated host plus the lane
/// state a driver keeps beside it. Lane RNGs listed in `lane_rngs` are
/// saved after warmup and put back on every fork; drivers whose lanes carry
/// other state outside the SimWorld snapshot override the lane-state pair.
struct CachedWorld {
  explicit CachedWorld(const SimWorld::Spec& spec) : world(spec) {}
  virtual ~CachedWorld() = default;
  virtual void CaptureLanes();
  virtual void RestoreLanes();

  SimWorld world;
  std::vector<Rng*> lane_rngs;

 private:
  std::vector<uint64_t> rng_states_;
};

/// Builds a world and registers its lanes (see AcquireWarmWorld).
using BuildWorldFn = std::function<std::unique_ptr<CachedWorld>()>;
class WarmWorld;

/// Maps a config key to a prebuilt world. A run holds its key's mutex from
/// AcquireWarmWorld to its end: two sweep workers with the same key
/// serialize (they would race on the one world object), while distinct keys
/// proceed in parallel. The cache owns the worlds; its destruction frees
/// them, so sweep loops scope one cache per point when holding every
/// point's world would blow up memory.
class WorldCache {
 public:
  WorldCache() = default;
  POLAR_DISALLOW_COPY(WorldCache);

 private:
  friend WarmWorld AcquireWarmWorld(WorldCache* cache, const std::string& key,
                                    uint32_t world_threads, Nanos warmup,
                                    const BuildWorldFn& build);
  struct Entry {
    std::mutex mu;
    std::unique_ptr<CachedWorld> world;
  };
  std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
};

/// Executor counters and wall-clock provenance shared by every SimWorld
/// driver's result.
struct RunCore {
  /// Executor lane-steps over the whole run (setup excluded) and inside
  /// the measurement window alone, and the largest virtual clock reached.
  uint64_t lane_steps = 0;
  uint64_t measure_steps = 0;
  Nanos virtual_end = 0;
  /// Wall-clock (thread CPU time) split: everything before the measurement
  /// window vs the window itself, and whether setup was served by forking a
  /// cached world snapshot instead of a cold build+load+warmup.
  double setup_wall_sec = 0;
  double measure_wall_sec = 0;
  /// Real (monotonic) wall time of the measurement window. Thread CPU time
  /// only meters the calling thread, so it under-counts epoch-parallel runs
  /// where workers do most of the stepping; scaling metrics must divide by
  /// this instead.
  double measure_real_sec = 0;
  bool snapshot_hit = false;
  /// Epoch-parallel diagnostics (0 on the serial path): epochs executed,
  /// and how many deferred shared-channel charges replayed to a different
  /// completion time than the in-epoch observation.
  uint64_t epochs = 0;
  uint64_t drain_divergence = 0;
  /// Scale-cost counters over the measurement window: scheduler operations
  /// charged by the executor and window-ledger maintenance work across
  /// every channel in the world. Divide by measure_steps for the
  /// per-lane-step costs in BENCH_sim_throughput.json's scale_cost section.
  uint64_t sched_ops = 0;
  uint64_t window_advances = 0;
};

/// The warmed world of one run, forked from a cache or built cold, and the
/// bracket of its measurement window. Holds the cache key's lock (or owns
/// the cold world) until the run ends.
class WarmWorld {
 public:
  template <typename W>
  W* as() const { return static_cast<W*>(world_); }
  SimWorld& world() const { return world_->world; }
  /// First clock of the measurement window: the earliest lane clock at or
  /// after the warmup end.
  Nanos window_start() const { return window_start_; }
  /// Call just before the window opens: baselines the world's monotone
  /// counters (forks do not rewind them) and starts the window clocks.
  void OpenWindow();
  /// Call right after the window closes: fills `core` with this run's
  /// deltas, snapshot_hit, and the setup time since AcquireWarmWorld.
  void CloseWindow(RunCore* core) const;

 private:
  friend WarmWorld AcquireWarmWorld(WorldCache* cache, const std::string& key,
                                    uint32_t world_threads, Nanos warmup,
                                    const BuildWorldFn& build);
  WarmWorld() = default;
  std::unique_lock<std::mutex> lock_;
  std::unique_ptr<CachedWorld> local_;
  CachedWorld* world_ = nullptr;
  Nanos window_start_ = 0;
  /// Counter baselines at OpenWindow; snapshot_hit is this run's, the wall
  /// fields hold thread CPU time at acquire (setup) and at OpenWindow.
  RunCore base_;
  std::chrono::steady_clock::time_point real_start_;
};

/// Fork-or-build. `build` constructs the world and registers its lanes. A
/// built world is switched to epoch execution when `world_threads` >= 1
/// and warmed up for `warmup` past its setup end; without a cache it then
/// serves this run alone, with one it is captured (world and lanes) and
/// parked under `key`. A hit re-shards an epoch world for `world_threads`
/// (it may have been sharded for another count, and Restore pushes lanes
/// into the current shards), then restores the snapshot and the lanes.
/// Capture is pure host-side copying, so a cold run that captures is
/// bit-identical to one that does not, and every fork to both.
WarmWorld AcquireWarmWorld(WorldCache* cache, const std::string& key,
                           uint32_t world_threads, Nanos warmup,
                           const BuildWorldFn& build);

/// Appends fields to a world key, `:`-separated. Doubles are encoded by
/// bit pattern, so configs that differ in any bit never share a world.
template <typename... T>
void AppendKey(std::string* key, const T&... fields) {
  const auto append = [key](const auto& v) {
    uint64_t word;
    if constexpr (std::is_floating_point_v<std::decay_t<decltype(v)>>) {
      word = std::bit_cast<uint64_t>(static_cast<double>(v));
    } else {
      word = static_cast<uint64_t>(v);
    }
    *key += ':' + std::to_string(word);
  };
  (append(fields), ...);
}

/// The cache key of a world built from `spec`: `driver`, the epoch
/// discipline (it changes how drivers wire their lanes) and every Spec
/// field, fabric included. The thread count is not in it — worlds are
/// identical across counts and re-sharded on a hit. Drivers append the
/// lane-level fields that shape the world before the window opens.
std::string WorldKey(const char* driver, const SimWorld::Spec& spec,
                     bool epoch);

// ---------------------------------------------------------------------------
// Fault runs: the pieces RunChaos and RunOpenLoop share
// ---------------------------------------------------------------------------

/// The fault-run part of ChaosResult and OpenLoopResult.
struct FaultRunCore : RunCore {
  /// Operations completed / failed per bucket, origin at the measurement
  /// window start.
  TimeSeries ok{Millis(10)};
  TimeSeries failed{Millis(10)};
  uint64_t ok_ops = 0;
  uint64_t failed_ops = 0;
  /// Buffer-pool degradation counters over the whole run, summed over the
  /// instances (see BufferPoolStats), and the injector's own accounting.
  uint64_t degraded_fetches = 0;
  uint64_t fault_rejections = 0;
  uint64_t fault_retries = 0;
  uint64_t retries_exhausted = 0;
  faults::FaultInjector::Stats injected;
  Nanos window = 0;  // measurement window length
};

/// A lane issuing sysbench-style point ops over the Status-returning table
/// surface, so faults surface as a Status instead of an abort (the sysbench
/// workload driver POLAR_CHECKs on write failures, right for fault-free
/// figures only). Chaos lanes and open-loop server lanes derive from it.
struct PointOpLane {
  PointOpLane(engine::Database* db, uint64_t seed, uint32_t rows);
  /// One op: a single-column update with probability `write_fraction`,
  /// else a point read, on a uniformly drawn table and row.
  Status Run(sim::ExecContext& ctx, double write_fraction);

  engine::Database* db;
  Rng rng;
  uint32_t tables;
  uint32_t rows;
  std::string scratch;
};

/// Registers a lane on `node` that checkpoints `db` every `interval` from
/// setup_end + interval (none when `interval` is 0). The flushes leave
/// clean pages that the degraded read path re-serves from storage; lanes
/// release every page fix before yielding, so a flush never sees one.
void AddCheckpointLane(sim::Executor& executor, engine::Database* db,
                       NodeId node, Nanos interval, Nanos setup_end);

/// Lane-id range [first, last] of one instance's lanes.
using LaneSpan = std::pair<uint32_t, uint32_t>;

/// Runs the measurement window [window_start, t1) of `warm` under `plan`
/// (timestamps relative to the window start): shifts and arms it, steps
/// through its node-crash windows — at each crash start the lanes of every
/// matching instance (node i + 1 owns `spans[i]`) park and resume at the
/// crash end, a fast process failover — then runs to t1 and disarms. Fills
/// `out` with the window's RunCore, the pool and injector counters and the
/// window length.
void RunFaultWindow(WarmWorld& warm, const faults::FaultPlan& plan, Nanos t1,
                    const std::vector<LaneSpan>& spans, FaultRunCore* out);

}  // namespace polarcxl::harness
