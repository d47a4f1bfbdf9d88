// Copyright 2026 The PolarCXLMem Reproduction Authors.
// World construction and deterministic snapshot/fork for the experiment
// drivers. Every driver used to rebuild the same simulated world — fabric,
// NICs, disk, instances, loaded tables, warmed pool — from zero for every
// sweep point and every rep. This module centralizes the build (one copy of
// the load call sites) and lets drivers capture the post-warmup world once
// per (config key) and fork it for every run that shares the key.
//
// Determinism contract: a forked run is bit-identical to a cold-built run —
// same lane_steps, metrics, histograms, bandwidth probes. The snapshot is a
// restore-in-place design: RestoreSnapshot() rewinds the SAME world object
// back to its captured state, so raw cross-component pointers (MemorySpace
// homes in the CPU-cache sim, lane closures, charge targets, device bytes
// handed out by CxlAccessor::Raw) stay valid and no pointer translation
// ever happens. CXL device bytes are copy-before-write page chunks: the
// capture copies none of them, and a restore rewrites only the chunks the
// fork wrote. Parallel sweeps (POLAR_SWEEP_THREADS)
// serialize per cache key and parallelize across keys.
#pragma once

#include <ctime>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

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
/// epoch-parallel thread count.
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
// SimWorld: the shared single-host world of the pooling/chaos drivers
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
/// instances loaded with sysbench tables. Identical to what RunPooling and
/// RunChaos (instances == 1, wire_faults) used to build inline.
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
  cxl::CxlMemoryManager& cxl_manager() { return *manager_; }
  /// Host CXL ports: one accessor per switch in topology mode, the single
  /// legacy accessor otherwise. Instance i uses port i % num_host_ports().
  uint32_t num_host_ports() const {
    return static_cast<uint32_t>(host_accs_.size());
  }
  cxl::CxlAccessor* host_port(uint32_t i) { return host_accs_[i]; }
  rdma::RemoteMemoryPool& remote() { return *remote_; }
  sim::BandwidthChannel* client_net() { return &client_net_; }
  storage::SimDisk& disk() { return *disk_; }

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
  bool has_snapshot() const { return snapshot_ != nullptr; }
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
  cxl::CxlAccessor* host_acc_ = nullptr;  // == host_accs_[0]
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
// WorldCache: keyed store of prebuilt worlds
// ---------------------------------------------------------------------------

/// Base for the driver-specific cached-world wrappers (world + lane state).
struct CachedWorld {
  virtual ~CachedWorld() = default;
};

/// Maps a config key to a prebuilt world. Acquire() hands out a lease that
/// holds the per-key mutex for the duration of the run: two sweep workers
/// with the same key serialize (they would race on the one world object),
/// while distinct keys proceed in parallel. The cache owns the worlds; its
/// destruction frees them, so sweep loops scope one cache per point when
/// holding every point's world would blow up memory.
class WorldCache {
 public:
  WorldCache() = default;
  POLAR_DISALLOW_COPY(WorldCache);

  class Lease {
   public:
    Lease() = default;
    /// Null on miss — the caller builds the world and calls put().
    CachedWorld* get() const { return slot_ != nullptr ? slot_->get() : nullptr; }
    void put(std::unique_ptr<CachedWorld> world) { *slot_ = std::move(world); }

   private:
    friend class WorldCache;
    std::unique_ptr<CachedWorld>* slot_ = nullptr;
    std::unique_lock<std::mutex> lock_;
  };

  Lease Acquire(const std::string& key);

 private:
  struct Entry {
    std::mutex mu;
    std::unique_ptr<CachedWorld> world;
  };
  std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<Entry>> entries_;
};

}  // namespace polarcxl::harness
