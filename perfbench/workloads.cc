// Copyright 2026 The PolarCXLMem Reproduction Authors.
// The benchmark's three workloads. Each calls the simulator's public
// drivers (harness/) exactly as a user regenerating a result would, times
// those calls, reads the drivers' own result structs, and checks them.
//
// Every knob that the drivers would otherwise resolve from the environment
// is fixed here: world_threads is explicit in every config, sweeps are not
// used (one driver call at a time), and every seed / arrival_seed / fault
// plan seed field receives the workload seed.
//
// Simulated (virtual-time) values are exact for a given seed on any host.
// The model reproduces the paper's shapes only, so they are unvalidated in
// absolute terms.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/chaos_driver.h"
#include "harness/instance_driver.h"
#include "harness/recovery_driver.h"
#include "harness/sharing_driver.h"
#include "harness/traffic_driver.h"
#include "harness/world_builder.h"
#include "perfbench.h"
#include "workload/sysbench.h"

namespace perfbench {

namespace {

using polarcxl::Histogram;
using polarcxl::Micros;
using polarcxl::Millis;
using polarcxl::Nanos;
using polarcxl::engine::BufferPoolKind;
namespace harness = polarcxl::harness;
namespace workload = polarcxl::workload;

double Us(Nanos ns) { return static_cast<double>(ns) / 1e3; }
double Ms(Nanos ns) { return static_cast<double>(ns) / 1e6; }
double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Bit-identity of two latency histograms, through the public surface.
bool SameHistogram(const Histogram& a, const Histogram& b) {
  if (a.count() != b.count() || a.min() != b.min() || a.max() != b.max() ||
      a.Mean() != b.Mean()) {
    return false;
  }
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0}) {
    if (a.Percentile(p) != b.Percentile(p)) return false;
  }
  return true;
}

/// Runs `fn` inside a span and returns its real duration in seconds.
template <class Fn>
double TimedCall(Tracer& tracer, const char* name, Fn&& fn, int* span_id) {
  ScopedSpan span(tracer, name);
  if (span_id != nullptr) *span_id = span.id();
  const double t0 = NowSeconds();
  fn();
  return NowSeconds() - t0;
}

/// Records the measurement window a driver reports inside the call span
/// that just closed (a derived child: the driver's own clock, placed at the
/// end of the call), and returns the call's remaining (self) seconds.
double DriverWindow(Tracer& tracer, int call_span, double call_s,
                    double measure_s) {
  if (call_span >= 0) {
    const double end = tracer.spans()[call_span].end;
    tracer.AddDerived(call_span, "sim.measure", end - measure_s, end);
  }
  return call_s - measure_s;
}

/// Sum of the executor-level counters a workload exposes through its
/// drivers' result structs.
struct SimTotals {
  uint64_t lane_steps = 0;
  uint64_t measure_steps = 0;
  double measure_s = 0;
  /// Lane steps per host second of the fastest measured window. Host
  /// contention only ever slows a window down, so the fastest one tracks
  /// the simulator's own speed rather than the host's load.
  double best_window_rate = 0;
  double driver_self_s = 0;
  uint64_t epochs = 0;
  uint64_t divergence = 0;

  void AddWindow(uint64_t steps, double seconds) {
    measure_steps += steps;
    measure_s += seconds;
    if (seconds > 0) {
      best_window_rate =
          std::max(best_window_rate, static_cast<double>(steps) / seconds);
    }
  }
};

void ReportBreakdown(Report& report, const harness::TimeBreakdown& b) {
  report.Layer("sim.vt_cpu_share", b.Pct(b.Cpu()));
  report.Layer("sim.vt_mem_share", b.Pct(b.mem));
  report.Layer("sim.vt_io_share", b.Pct(b.io));
  report.Layer("sim.vt_net_share", b.Pct(b.net));
  report.Layer("sim.vt_lock_share", b.Pct(b.lock));
}

void ReportSim(Report& report, const SimTotals& t) {
  report.Layer("sim.lane_steps", static_cast<double>(t.lane_steps));
  report.Layer("sim.measure_steps", static_cast<double>(t.measure_steps));
  report.Layer("sim.measure_s", t.measure_s);
  report.Layer("sim.epochs", static_cast<double>(t.epochs));
  report.Layer("sim.drain_divergence_per_epoch",
               Ratio(static_cast<double>(t.divergence),
                     static_cast<double>(t.epochs)));
  report.Layer("harness.driver_self_s", t.driver_self_s);
}

// ---------------------------------------------------------------------------
// Replica world (traced runs only)
// ---------------------------------------------------------------------------

/// What the traced run learns from a replica of a workload's world: the
/// set-up pieces the drivers do inside one monolithic call, timed through
/// SimWorld's public construction / snapshot API, plus world counters the
/// open-loop result struct does not carry, read over a closed-loop window.
struct ReplicaSpec {
  harness::SimWorld::Spec world;
  uint32_t lanes_per_instance = 8;
  Nanos warmup = 0;
  Nanos window = 0;  // 0 = no closed-loop window
  uint64_t seed = 1;
  uint32_t world_threads = 0;
};

struct ReplicaStats {
  double build_load_s = 0;
  double warmup_s = 0;
  double capture_s = 0;
  double capture_rss_mb = 0;
  uint64_t steps = 0;
  uint64_t sched_ops = 0;
  uint64_t window_advances = 0;
  uint64_t line_hits = 0;
  uint64_t line_misses = 0;
  uint64_t pages_read_io = 0;
  double cxl_gbps = 0;
  double nic_gbps = 0;
  double lbp_hit_rate = 0;
  harness::TimeBreakdown breakdown;
};

/// Builds the replica as the pooling driver builds its world: SimWorld
/// construction (build + load), one closed-loop point-select sysbench lane
/// per vCPU, warm-up, snapshot capture, then an optional measured window.
ReplicaStats RunReplica(Tracer& tracer, const ReplicaSpec& rs) {
  ScopedSpan phase(tracer, "replica", /*phase=*/true);
  ReplicaStats st;
  std::unique_ptr<harness::SimWorld> world;
  st.build_load_s = TimedCall(
      tracer, "harness.SimWorld",
      [&] { world = std::make_unique<harness::SimWorld>(rs.world); }, nullptr);
  polarcxl::sim::Executor& ex = world->executor();
  const Nanos setup_end = world->setup_end();
  std::vector<std::unique_ptr<workload::SysbenchWorkload>> lanes;
  st.warmup_s = TimedCall(
      tracer, "sim.warmup",
      [&] {
        for (uint32_t i = 0; i < world->num_instances(); i++) {
          for (uint32_t l = 0; l < rs.lanes_per_instance; l++) {
            lanes.push_back(std::make_unique<workload::SysbenchWorkload>(
                world->db(i), rs.world.sysbench, 0,
                rs.seed + i * 1000 + l, world->client_net()));
            workload::SysbenchWorkload* wl = lanes.back().get();
            ex.AddLane(
                [wl](polarcxl::sim::ExecContext& ctx) {
                  wl->RunEvent(ctx, workload::SysbenchOp::kPointSelect);
                  return true;
                },
                i, world->db(i)->cache(), setup_end);
          }
        }
        if (rs.world_threads >= 1) {
          world->EnableInWorldParallelism(rs.world_threads);
        }
        ex.RunUntil(setup_end + rs.warmup);
      },
      nullptr);
  const double rss_before = RssMb();
  st.capture_s = TimedCall(
      tracer, "harness.CaptureSnapshot", [&] { world->CaptureSnapshot(); },
      nullptr);
  st.capture_rss_mb = RssMb() - rss_before;
  if (rs.window <= 0) return st;

  const uint64_t steps0 = ex.total_steps();
  const uint64_t sched0 = ex.sched_ops();
  const uint64_t adv0 = world->WindowAdvances();
  const uint64_t cxl0 = world->fabric().host_port_bytes();
  const uint64_t nic0 = world->net().nic(0)->wire().total_bytes();
  std::vector<polarcxl::sim::ExecContext> before;
  for (size_t l = 0; l < ex.num_lanes(); l++) {
    before.push_back(ex.context(static_cast<uint32_t>(l)));
  }
  const Nanos t0 = ex.MinClock(setup_end + rs.warmup);
  TimedCall(tracer, "sim.window", [&] { ex.RunUntil(t0 + rs.window); },
            nullptr);
  st.steps = ex.total_steps() - steps0;
  st.sched_ops = ex.sched_ops() - sched0;
  st.window_advances = world->WindowAdvances() - adv0;
  const double window = static_cast<double>(rs.window);
  st.cxl_gbps =
      static_cast<double>(world->fabric().host_port_bytes() - cxl0) / window;
  st.nic_gbps =
      static_cast<double>(world->net().nic(0)->wire().total_bytes() - nic0) /
      window;
  for (size_t l = 0; l < ex.num_lanes(); l++) {
    const auto& now = ex.context(static_cast<uint32_t>(l));
    const auto& was = before[l];
    st.line_hits += now.mem_line_hits - was.mem_line_hits;
    st.line_misses += now.mem_line_misses - was.mem_line_misses;
    st.pages_read_io += now.pages_read_io - was.pages_read_io;
    st.breakdown.total += now.now - was.now;
    st.breakdown.mem += now.t_mem - was.t_mem;
    st.breakdown.io += now.t_io - was.t_io;
    st.breakdown.net += now.t_net - was.t_net;
    st.breakdown.lock += now.t_lock - was.t_lock;
  }
  double hit_rate = 0;
  for (uint32_t i = 0; i < world->num_instances(); i++) {
    hit_rate += world->db(i)->pool()->stats().HitRate();
  }
  st.lbp_hit_rate = hit_rate / world->num_instances();
  return st;
}

void ReportReplicaSetup(Report& report, const ReplicaStats& st) {
  report.Layer("harness.build_load_s", st.build_load_s);
  report.Layer("harness.warmup_s", st.warmup_s);
  report.Layer("harness.snapshot_capture_s", st.capture_s);
  report.Layer("harness.snapshot_rss_mb", st.capture_rss_mb);
}

/// Scheduler, channel and cache-sim costs over the replica's window.
void ReportReplicaWindow(Report& report, const ReplicaStats& st) {
  const double steps = static_cast<double>(st.steps);
  report.Layer("sim.sched_ops_per_step",
               Ratio(static_cast<double>(st.sched_ops), steps));
  report.Layer("sim.window_advances_per_step",
               Ratio(static_cast<double>(st.window_advances), steps));
  report.Layer("sim.cache_line_hits", static_cast<double>(st.line_hits));
  report.Layer("sim.cache_line_misses", static_cast<double>(st.line_misses));
  report.Layer("sim.cache_hit_ratio",
               Ratio(static_cast<double>(st.line_hits),
                     static_cast<double>(st.line_hits + st.line_misses)));
}

// ---------------------------------------------------------------------------
// Open-loop helpers (rdma_open_rw, cxl_write_mix chaos phase)
// ---------------------------------------------------------------------------

/// Two tenants per instance — steady gold Poisson plus bursty best-effort —
/// sized like bench_slo_capacity's scale-1.0 point (120k/s each, best
/// effort on/off 20 ms with a 0.1 off factor), 25 % single-column updates,
/// a 900 us p99 SLO and 2 ms queueing deadlines.
harness::OpenLoopConfig OpenLoopBase(BufferPoolKind kind, uint32_t instances,
                                     Nanos checkpoint_interval,
                                     uint64_t seed) {
  harness::OpenLoopConfig c;
  c.kind = kind;
  c.instances = instances;
  c.lanes_per_instance = 8;
  c.sysbench.tables = 4;
  c.sysbench.rows_per_table = 8000;
  c.warmup = Millis(100);
  c.measure = Millis(400);
  c.bucket = Millis(10);
  c.checkpoint_interval = checkpoint_interval;
  c.slo_latency = Micros(900);
  c.gold_deadline = Millis(2);
  c.best_effort_deadline = Millis(2);
  c.admission.gold_cap = 256;
  c.admission.best_effort_cap = 128;
  c.verbs_retry_budget = Millis(1);
  c.seed = seed;
  c.arrival_seed = seed;
  c.world_threads = 0;  // serial: these worlds are too small to shard
  for (uint32_t i = 0; i < instances; i++) {
    harness::TenantSpec gold;
    gold.name = "gold" + std::to_string(i);
    gold.qos = harness::QosClass::kGold;
    gold.arrivals.rate_per_sec = 120'000.0;
    gold.write_fraction = 0.25;
    gold.instance = i;
    harness::TenantSpec be;
    be.name = "be" + std::to_string(i);
    be.qos = harness::QosClass::kBestEffort;
    be.arrivals.kind = harness::ArrivalKind::kBurstyOnOff;
    be.arrivals.rate_per_sec = 120'000.0;
    be.arrivals.on_period = Millis(20);
    be.arrivals.off_period = Millis(20);
    be.arrivals.off_factor = 0.1;
    be.write_fraction = 0.25;
    be.instance = i;
    c.tenants.push_back(gold);
    c.tenants.push_back(be);
  }
  return c;
}

harness::SimWorld::Spec OpenLoopWorldSpec(const harness::OpenLoopConfig& c) {
  harness::SimWorld::Spec s;
  s.kind = c.kind;
  s.instances = c.instances;
  s.sysbench = c.sysbench;
  s.lbp_fraction = c.lbp_fraction;
  s.cpu_cache_bytes = c.cpu_cache_bytes;
  s.verbs_retry_budget = c.verbs_retry_budget;
  s.wire_faults = true;
  return s;
}

/// Builds, warms and snapshots an open-loop world with a zero-length
/// window, so the call is set-up alone and its lane_steps are the warm-up
/// steps every later fork starts from.
harness::OpenLoopResult ColdOpenLoop(Tracer& tracer, Report& report,
                                     const harness::OpenLoopConfig& base,
                                     harness::WorldCache* cache,
                                     double* setup_s) {
  ScopedSpan phase(tracer, "cold", /*phase=*/true);
  harness::OpenLoopConfig cold = base;
  cold.measure = 0;
  cold.plan = polarcxl::faults::FaultPlan();
  harness::OpenLoopResult r;
  *setup_s = TimedCall(
      tracer, "harness.RunOpenLoop",
      [&] { r = harness::RunOpenLoop(cold, cache); }, nullptr);
  report.Check("cold_open_loop_built_cold", !r.snapshot_hit);
  report.Check("cold_open_loop_warmed", r.lane_steps > 0);
  return r;
}

/// Folds a forked open-loop run's executor counters into `totals`;
/// `warm_steps` are the cold call's (post-warm-up) lane_steps.
void FoldOpenLoop(SimTotals* totals, const harness::OpenLoopResult& r,
                  uint64_t warm_steps) {
  totals->lane_steps += r.lane_steps;
  totals->AddWindow(r.lane_steps - warm_steps, r.measure_wall_sec);
  totals->epochs += r.epochs;
  totals->divergence += r.drain_divergence;
}

/// Runs one forked open-loop window and folds it into `totals`.
harness::OpenLoopResult ForkOpenLoop(Tracer& tracer, Report& report,
                                     const harness::OpenLoopConfig& config,
                                     harness::WorldCache* cache,
                                     uint64_t warm_steps, SimTotals* totals,
                                     std::vector<double>* restore_s) {
  harness::OpenLoopResult r;
  int span = -1;
  const double call_s = TimedCall(
      tracer, "harness.RunOpenLoop",
      [&] { r = harness::RunOpenLoop(config, cache); }, &span);
  report.Check("open_loop_forked", r.snapshot_hit);
  report.Check("open_loop_progress",
               r.lane_steps > warm_steps && r.offered > 0 && r.ok_ops > 0);
  FoldOpenLoop(totals, r, warm_steps);
  totals->driver_self_s +=
      DriverWindow(tracer, span, call_s, r.measure_wall_sec);
  restore_s->push_back(r.setup_wall_sec);
  return r;
}

/// Open-loop counter reconciliation: every offered op was admitted or shed
/// at the queue, and every admitted op completed, failed, was shed at its
/// deadline, or is still queued / in service when the window closed.
void CheckOpenLoopCounters(Report& report, const char* what,
                           const harness::OpenLoopConfig& c,
                           const harness::OpenLoopResult& r) {
  const std::string p = std::string(what) + ":";
  report.Check(p + "offered=admitted+shed_queue",
               r.offered == r.admitted + r.shed_queue);
  const uint64_t settled = r.ok_ops + r.failed_ops + r.shed_deadline;
  const uint64_t max_in_flight =
      static_cast<uint64_t>(c.instances) *
      (c.admission.gold_cap + c.admission.best_effort_cap +
       c.lanes_per_instance);
  report.Check(p + "admitted=ok+failed+shed_deadline+in_flight",
               r.admitted >= settled && r.admitted - settled <= max_in_flight);
  report.Check(p + "ok_in_slo<=ok", r.ok_in_slo <= r.ok_ops);
  report.Check(p + "latency_samples=ok", r.latency.count() == r.ok_ops);
}

/// Bit-identity of two open-loop runs forked from one snapshot.
bool SameOpenLoop(const harness::OpenLoopResult& a,
                  const harness::OpenLoopResult& b) {
  const auto& ia = a.injected;
  const auto& ib = b.injected;
  return a.lane_steps == b.lane_steps && a.virtual_end == b.virtual_end &&
         a.offered == b.offered && a.admitted == b.admitted &&
         a.shed_queue == b.shed_queue && a.shed_deadline == b.shed_deadline &&
         a.ok_ops == b.ok_ops && a.ok_in_slo == b.ok_in_slo &&
         a.failed_ops == b.failed_ops && a.retried_ops == b.retried_ops &&
         SameHistogram(a.latency, b.latency) &&
         SameHistogram(a.queue_wait, b.queue_wait) &&
         a.degraded_fetches == b.degraded_fetches &&
         a.fault_rejections == b.fault_rejections &&
         ia.cxl_failures == ib.cxl_failures &&
         ia.cxl_degraded == ib.cxl_degraded &&
         ia.nic_failures == ib.nic_failures &&
         ia.nic_degraded == ib.nic_degraded &&
         ia.disk_stalls == ib.disk_stalls;
}

void ReportOpenLoop(Report& report, const harness::OpenLoopResult& r) {
  report.Layer("open_loop.offered", static_cast<double>(r.offered));
  report.Layer("open_loop.admitted", static_cast<double>(r.admitted));
  report.Layer("open_loop.shed_queue", static_cast<double>(r.shed_queue));
  report.Layer("open_loop.shed_deadline",
               static_cast<double>(r.shed_deadline));
  report.Layer("open_loop.failed", static_cast<double>(r.failed_ops));
  report.Layer("open_loop.retried", static_cast<double>(r.retried_ops));
  report.Layer("open_loop.queue_wait_p99_us",
               Us(r.queue_wait.Percentile(99.0)));
}

/// End-to-end latency/throughput of a headline window.
void ReportOutcome(Report& report, double qps, const Histogram& latency) {
  report.E2e("sim_qps", qps);
  report.E2e("sim_p50_us", Us(latency.Percentile(50.0)));
  report.E2e("sim_p99_us", Us(latency.Percentile(99.0)));
  report.E2e("latency_samples", static_cast<double>(latency.count()));
}

void ReportHost(Report& report, double wall_s, double setup_s,
                const SimTotals& t) {
  report.E2e("wall_s", wall_s);
  report.E2e("setup_s", setup_s);
  report.E2e("steps_per_s", t.best_window_rate);
  report.E2e("steps_mean_per_s",
             Ratio(static_cast<double>(t.measure_steps), t.measure_s));
  report.E2e("steps_base", static_cast<double>(t.measure_steps));
  report.E2e("steps_window_s", t.measure_s);
  report.E2e("peak_rss_mb", PeakRssMb());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace

// ---------------------------------------------------------------------------
// pool_read_scale
// ---------------------------------------------------------------------------

/// Figure 7 point-select pooling at 32 CXL-pool instances x 8 lanes on a
/// 2-switch ring with spread placement (every CXL byte crosses an uplink),
/// epoch-parallel on min(4, nproc) threads: one cold run that builds,
/// loads, warms and snapshots the world, then one run forked from it.
void RunPoolReadScale(const RunOptions& opt, Tracer& tracer, Report& report) {
  const double t_start = NowSeconds();
  harness::PoolingConfig c = harness::Fig7PoolingConfig(BufferPoolKind::kCxl);
  c.instances = 32;
  c.lanes_per_instance = 8;
  c.fabric.switches = 2;
  c.fabric.ring = true;
  c.fabric.placement = polarcxl::fabric::PlacementMode::kSpread;
  c.warmup = Millis(50);
  c.measure = Millis(100);
  c.seed = opt.seed;
  c.world_threads = static_cast<int>(opt.world_threads);

  SimTotals totals;
  harness::PoolingResult cold, fork;
  double setup_s = 0;
  {
    harness::WorldCache cache;
    const auto run = [&](const char* phase_name, harness::PoolingResult* r) {
      ScopedSpan phase(tracer, phase_name, /*phase=*/true);
      int span = -1;
      const double call_s = TimedCall(
          tracer, "harness.RunPooling",
          [&] { *r = harness::RunPooling(c, &cache); }, &span);
      totals.lane_steps += r->lane_steps;
      totals.AddWindow(r->measure_steps, r->measure_real_sec);
      totals.epochs += r->epochs;
      totals.divergence += r->drain_divergence;
      const double self =
          DriverWindow(tracer, span, call_s, r->measure_real_sec);
      totals.driver_self_s += self;
      return self;
    };
    setup_s = run("cold", &cold);
    run("fork", &fork);
  }
  const double wall_s = NowSeconds() - t_start;

  report.Check("cold_built_cold", !cold.snapshot_hit);
  report.Check("fork_hit_snapshot", fork.snapshot_hit);
  report.Check("progress", cold.measure_steps > 0 &&
                               cold.metrics.queries > 0 &&
                               cold.metrics.latency.count() > 0);
  report.Check("fork=cold:lane_steps", fork.lane_steps == cold.lane_steps);
  report.Check("fork=cold:measure_steps",
               fork.measure_steps == cold.measure_steps);
  report.Check("fork=cold:virtual_end", fork.virtual_end == cold.virtual_end);
  report.Check("fork=cold:queries",
               fork.metrics.queries == cold.metrics.queries &&
                   fork.metrics.events == cold.metrics.events);
  report.Check("fork=cold:latency_histogram",
               SameHistogram(fork.metrics.latency, cold.metrics.latency));
  report.Check("fork=cold:cache_lines", fork.line_hits == cold.line_hits &&
                                            fork.line_misses ==
                                                cold.line_misses);
  report.Check("fork=cold:bandwidth", fork.cxl_gbps == cold.cxl_gbps &&
                                          fork.uplink_gbps ==
                                              cold.uplink_gbps);
  report.Check("spread_placement_uses_uplinks", fork.uplink_gbps > 0);

  ReportHost(report, wall_s, setup_s, totals);
  ReportOutcome(report, fork.metrics.Qps(), fork.metrics.latency);

  ReportSim(report, totals);
  const double steps = static_cast<double>(fork.measure_steps);
  report.Layer("sim.sched_ops_per_step",
               Ratio(static_cast<double>(fork.sched_ops), steps));
  report.Layer("sim.window_advances_per_step",
               Ratio(static_cast<double>(fork.window_advances), steps));
  const double lines =
      static_cast<double>(fork.line_hits + fork.line_misses);
  report.Layer("sim.cache_line_hits", static_cast<double>(fork.line_hits));
  report.Layer("sim.cache_line_misses",
               static_cast<double>(fork.line_misses));
  report.Layer("sim.cache_hit_ratio",
               Ratio(static_cast<double>(fork.line_hits), lines));
  ReportBreakdown(report, fork.breakdown);
  report.Layer("harness.snapshot_restore_s", fork.setup_wall_sec);
  report.Layer("cxl.host_port_gbps", fork.cxl_gbps);
  report.Layer("fabric.uplink_gbps", fork.uplink_gbps);
  report.Layer("storage.pages_read_io",
               static_cast<double>(fork.pages_read_io));
  report.Layer("engine.queries", static_cast<double>(fork.metrics.queries));
  report.Layer("engine.events", static_cast<double>(fork.metrics.events));

  if (tracer.enabled()) {
    ReplicaSpec rs;
    rs.world.kind = c.kind;
    rs.world.instances = c.instances;
    rs.world.sysbench = c.sysbench;
    rs.world.lbp_fraction = c.lbp_fraction;
    rs.world.cpu_cache_bytes = c.cpu_cache_bytes;
    rs.world.fabric = c.fabric;
    rs.lanes_per_instance = c.lanes_per_instance;
    rs.warmup = c.warmup;
    rs.seed = c.seed;
    rs.world_threads = opt.world_threads;
    ReportReplicaSetup(report, RunReplica(tracer, rs));
  }
}

// ---------------------------------------------------------------------------
// rdma_open_rw
// ---------------------------------------------------------------------------

/// Open-loop read/write traffic on the tiered-RDMA baseline: 4 instances
/// behind one host NIC. A nominal run at 0.3x the per-instance scale-1.0
/// rate (below the knee), then FindSloCapacity; every run forks the world
/// the cold call snapshotted.
void RunRdmaOpenRw(const RunOptions& opt, Tracer& tracer, Report& report) {
  const double t_start = NowSeconds();
  // Checkpoints every 200 ms (two per window) keep their stalls in the
  // p99.9 tail; at 40 ms the stalls hold 2-3 % of ops, the p99 lands on
  // that ramp and moves by +-30 % from seed to seed.
  const harness::OpenLoopConfig base = OpenLoopBase(
      BufferPoolKind::kTieredRdma, 4, Millis(200), opt.seed);
  constexpr double kNominalScale = 0.3;

  SimTotals totals;
  std::vector<double> restore_s;
  harness::OpenLoopResult nominal;
  harness::CapacityPoint capacity;
  std::vector<harness::CapacityPoint> probes;
  double setup_s = 0, probe_s = 0;
  {
    harness::WorldCache cache;
    const uint64_t warm =
        ColdOpenLoop(tracer, report, base, &cache, &setup_s).lane_steps;
    totals.driver_self_s += setup_s;
    {
      ScopedSpan phase(tracer, "nominal", /*phase=*/true);
      nominal = ForkOpenLoop(tracer, report,
                             harness::ScaleArrivals(base, kNominalScale),
                             &cache, warm, &totals, &restore_s);
    }
    ScopedSpan phase(tracer, "capacity", /*phase=*/true);
    harness::CapacitySearch search;
    search.lo_scale = 0.25;
    search.hi_scale = 4.0;
    search.iters = 5;
    int span = -1;
    probe_s = TimedCall(
        tracer, "harness.FindSloCapacity",
        [&] {
          capacity = harness::FindSloCapacity(base, search, &cache, &probes);
        },
        &span);
    // Per-probe spans are derived from the driver's own per-run split
    // (thread CPU seconds), laid end to end from the call's start.
    double cursor = span >= 0 ? tracer.spans()[span].start : 0;
    double probe_windows = 0;
    for (size_t i = 0; i < probes.size(); i++) {
      const harness::OpenLoopResult& r = probes[i].result;
      report.Check("probe_forked", r.snapshot_hit);
      report.Check("probe_progress", r.lane_steps > warm && r.offered > 0);
      CheckOpenLoopCounters(report, "probe", base, r);
      FoldOpenLoop(&totals, r, warm);
      probe_windows += r.measure_wall_sec;
      restore_s.push_back(r.setup_wall_sec);
      if (span >= 0) {
        const double end = cursor + r.setup_wall_sec + r.measure_wall_sec;
        const int p = tracer.AddDerived(span, "probe " + std::to_string(i),
                                        cursor, end);
        tracer.AddDerived(p, "sim.measure", end - r.measure_wall_sec, end);
        cursor = end;
      }
    }
    totals.driver_self_s += probe_s - probe_windows;
  }
  const double wall_s = NowSeconds() - t_start;

  const harness::OpenLoopConfig nominal_cfg =
      harness::ScaleArrivals(base, kNominalScale);
  CheckOpenLoopCounters(report, "nominal", nominal_cfg, nominal);
  report.Check("capacity_search_probed", probes.size() >= 2);

  const double window_s =
      static_cast<double>(nominal_cfg.measure) / polarcxl::kNanosPerSec;
  ReportHost(report, wall_s, setup_s, totals);
  ReportOutcome(report, static_cast<double>(nominal.ok_ops) / window_s,
                nominal.latency);

  ReportSim(report, totals);
  ReportOpenLoop(report, nominal);
  report.Layer("harness.snapshot_restore_s", Median(restore_s));
  report.Layer("harness.probe_s", probe_s);
  report.Layer("harness.capacity_probes", static_cast<double>(probes.size()));
  uint64_t verbs_retries = nominal.fault_retries;
  uint64_t exhausted = nominal.retries_exhausted;
  for (const auto& p : probes) {
    verbs_retries += p.result.fault_retries;
    exhausted += p.result.retries_exhausted;
  }
  report.Layer("rdma.verbs_retries", static_cast<double>(verbs_retries));
  report.Layer("rdma.retries_exhausted", static_cast<double>(exhausted));
  report.Layer("engine.events", static_cast<double>(nominal.ok_ops));
  report.Layer("engine.queries", static_cast<double>(nominal.ok_ops));
  report.Layer("goodput_per_s", nominal.goodput);
  report.Layer("slo_capacity_per_s", capacity.offered_rate);
  report.Layer("fail_frac", nominal.loss_fraction);

  if (tracer.enabled()) {
    ReplicaSpec rs;
    rs.world = OpenLoopWorldSpec(base);
    rs.lanes_per_instance = base.lanes_per_instance;
    rs.warmup = base.warmup;
    rs.window = Millis(100);
    rs.seed = opt.seed;
    const ReplicaStats st = RunReplica(tracer, rs);
    ReportReplicaSetup(report, st);
    ReportReplicaWindow(report, st);
    ReportBreakdown(report, st.breakdown);
    report.Layer("rdma.nic_gbps", st.nic_gbps);
    report.Layer("bufferpool.lbp_hit_rate", st.lbp_hit_rate);
    report.Layer("storage.pages_read_io",
                 static_cast<double>(st.pages_read_io));
  }
}

// ---------------------------------------------------------------------------
// cxl_write_mix
// ---------------------------------------------------------------------------

/// PolarCXLMem under writes and failures, three phases on one seed:
/// multi-primary sharing (Figure 11 peak), a read-write crash recovered by
/// PolarRecv (Figure 10), and open-loop chaos at 2x load replaying the
/// canonical fault plan on the CXL pool.
void RunCxlWriteMix(const RunOptions& opt, Tracer& tracer, Report& report) {
  constexpr int kChaosForks = 8;
  const double t_start = NowSeconds();
  SimTotals totals;

  // ---- sharing ----
  harness::SharingConfig sc;
  sc.mode = harness::SharingMode::kCxl;
  sc.nodes = 8;
  sc.lanes_per_node = 8;
  sc.sysbench.tables = 1;
  sc.sysbench.rows_per_table = 6000;
  sc.sysbench.num_nodes = 8;
  sc.sysbench.shared_fraction = 0.4;
  sc.op = workload::SysbenchOp::kPointUpdate;
  sc.warmup = Millis(40);
  sc.measure = Millis(480);
  sc.seed = opt.seed;
  harness::SharingResult sharing;
  double sharing_s = 0;
  {
    ScopedSpan phase(tracer, "sharing", /*phase=*/true);
    sharing_s = TimedCall(
        tracer, "harness.RunSharing",
        [&] { sharing = harness::RunSharing(sc); }, nullptr);
  }
  report.Check("sharing_progress", sharing.metrics.events > 0 &&
                                       sharing.metrics.latency.count() > 0);
  report.Check("sharing_coherency_traffic",
               sharing.invalidations > 0 && sharing.sync_lines > 0);

  // ---- recovery ----
  harness::RecoveryConfig rc;
  rc.scheme = harness::RecoveryScheme::kPolarRecv;
  rc.op = workload::SysbenchOp::kReadWrite;
  rc.sysbench.tables = 4;
  rc.sysbench.rows_per_table = 40000;
  rc.lanes = 16;
  rc.crash_at = Millis(1500);
  rc.total = Millis(3000);
  rc.bucket = Millis(250);
  rc.checkpoint_interval = Millis(750);
  rc.process_restart = Millis(100);
  rc.pace_interval = Millis(4);
  rc.cpu_cache_bytes = 4ULL << 20;
  rc.seed = opt.seed;
  harness::RecoveryResult recovery;
  double recovery_s = 0;
  {
    ScopedSpan phase(tracer, "recovery", /*phase=*/true);
    recovery_s = TimedCall(
        tracer, "harness.RunRecoveryExperiment",
        [&] { recovery = harness::RunRecoveryExperiment(rc); }, nullptr);
  }
  report.Check("recovery_serving_after_crash",
               recovery.serving_at > recovery.crash_at);
  report.Check("recovery_progress", recovery.pre_crash_qps > 0 &&
                                        recovery.polar.blocks_scanned > 0);

  // ---- chaos ----
  harness::OpenLoopConfig chaos_cfg = harness::ScaleArrivals(
      OpenLoopBase(BufferPoolKind::kCxl, 1, Millis(40), opt.seed), 2.0);
  chaos_cfg.plan = harness::CanonicalChaosPlan(chaos_cfg.measure);
  chaos_cfg.plan.seed = opt.seed;
  harness::OpenLoopResult chaos;
  double setup_s = 0;
  std::vector<double> restore_s;
  {
    harness::WorldCache cache;
    const uint64_t warm =
        ColdOpenLoop(tracer, report, chaos_cfg, &cache, &setup_s).lane_steps;
    totals.driver_self_s += setup_s;
    // The chaos window is short, so it is forked several times: more host
    // time in the steps_per_s base, and each fork must replay the first.
    for (int i = 0; i < kChaosForks; i++) {
      ScopedSpan phase(tracer, "chaos", /*phase=*/true);
      const harness::OpenLoopResult r = ForkOpenLoop(
          tracer, report, chaos_cfg, &cache, warm, &totals, &restore_s);
      if (i == 0) {
        chaos = r;
      } else {
        report.Check("chaos_fork=first", SameOpenLoop(r, chaos));
      }
    }
  }
  const double wall_s = NowSeconds() - t_start;
  CheckOpenLoopCounters(report, "chaos", chaos_cfg, chaos);
  // The CXL pool reaches no NIC, so only CXL and disk faults can land.
  report.Check("chaos_faults_fired", chaos.injected.cxl_failures > 0 &&
                                         chaos.injected.cxl_degraded > 0 &&
                                         chaos.injected.disk_stalls > 0);

  ReportHost(report, wall_s, setup_s, totals);
  ReportOutcome(report, sharing.metrics.Qps(), sharing.metrics.latency);

  ReportSim(report, totals);
  ReportBreakdown(report, sharing.breakdown);
  ReportOpenLoop(report, chaos);
  report.Layer("harness.snapshot_restore_s", Median(restore_s));
  report.Layer("bufferpool.degraded_fetches",
               static_cast<double>(chaos.degraded_fetches));
  report.Layer("bufferpool.fault_rejections",
               static_cast<double>(chaos.fault_rejections));
  report.Layer("faults.cxl_failures",
               static_cast<double>(chaos.injected.cxl_failures));
  report.Layer("faults.cxl_degraded",
               static_cast<double>(chaos.injected.cxl_degraded));
  report.Layer("faults.nic_failures",
               static_cast<double>(chaos.injected.nic_failures));
  report.Layer("faults.nic_degraded",
               static_cast<double>(chaos.injected.nic_degraded));
  report.Layer("faults.disk_stalls",
               static_cast<double>(chaos.injected.disk_stalls));
  report.Layer("sharing.lock_waits", static_cast<double>(sharing.lock_waits));
  report.Layer("sharing.lock_wait_ms", Ms(sharing.total_lock_wait));
  report.Layer("sharing.invalidations",
               static_cast<double>(sharing.invalidations));
  report.Layer("sharing.sync_lines", static_cast<double>(sharing.sync_lines));
  report.Layer("sharing.run_s", sharing_s);
  report.Layer("recovery.blocks_scanned",
               static_cast<double>(recovery.polar.blocks_scanned));
  report.Layer("recovery.pages_repaired",
               static_cast<double>(recovery.polar.pages_repaired));
  report.Layer("recovery.records_applied",
               static_cast<double>(recovery.polar.records_applied));
  report.Layer("recovery.duration_ms", Ms(recovery.polar.duration));
  report.Layer("recovery.run_s", recovery_s);
  report.Layer("engine.queries",
               static_cast<double>(sharing.metrics.queries));
  report.Layer("engine.events", static_cast<double>(sharing.metrics.events));
  report.Layer("goodput_per_s", chaos.goodput);
  report.Layer("recovery_ms", Ms(recovery.serving_at - recovery.crash_at));
  report.Layer("fail_frac", chaos.loss_fraction);

  if (tracer.enabled()) {
    ReplicaSpec rs;
    rs.world = OpenLoopWorldSpec(chaos_cfg);
    rs.lanes_per_instance = chaos_cfg.lanes_per_instance;
    rs.warmup = chaos_cfg.warmup;
    rs.window = Millis(100);
    rs.seed = opt.seed;
    const ReplicaStats st = RunReplica(tracer, rs);
    ReportReplicaSetup(report, st);
    ReportReplicaWindow(report, st);
    report.Layer("cxl.host_port_gbps", st.cxl_gbps);
  }
}

}  // namespace perfbench
