// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Fault-resilience timelines ("Figure 14", beyond the paper): the canonical
// mixed-fault schedule (CXL outage, NIC brownout, flaky windows, link
// degradation, disk stall) is replayed against all three buffer-pool
// configurations and the ok/failed operations-per-bucket timelines are
// printed. The headline behaviors:
//   - CXL pool: degrades to storage reads during the outage (reads keep
//     flowing, writes fail fast), recovers to the pre-fault rate after.
//   - Tiered RDMA pool: rides out the NIC brownout with capped-backoff
//     verbs retries + storage fallback.
//   - DRAM pool: control — only the disk stall touches it.
// The three experiments are independent and fan out over
// POLAR_SWEEP_THREADS; results are bit-identical for any thread count.
// Full-scale runs refresh BENCH_fault_resilience.json (committed).
// At the pinned scale (POLAR_BENCH_SCALE=0.1) the run is also a lane_steps
// bit-identity gate against bench/pins.h (tools/check.sh --faults).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "harness/chaos_driver.h"
#include "harness/report.h"
#include "harness/sweep_runner.h"

namespace polarcxl::bench {
namespace {

using harness::ChaosConfig;
using harness::ChaosResult;

ChaosConfig MakeConfig(engine::BufferPoolKind kind) {
  ChaosConfig c;
  c.kind = kind;
  c.lanes = 8;
  c.sysbench.tables = 4;
  c.sysbench.rows_per_table = 8000;
  c.write_fraction = 0.25;
  c.lbp_fraction = 0.3;
  c.warmup = Scaled(Millis(100));
  c.measure = Scaled(Millis(800));
  c.bucket = Scaled(Millis(20));
  c.checkpoint_interval = Scaled(Millis(40));
  c.plan = harness::CanonicalChaosPlan(c.measure);
  return c;
}

void WriteJson(const std::vector<ChaosResult>& results,
               const std::vector<ChaosConfig>& configs) {
  FILE* f = std::fopen("BENCH_fault_resilience.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_fault_resilience.json\n");
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"fault_resilience\",\n");
  std::fprintf(f,
               "  \"workload\": \"single-instance sysbench-style 25%% "
               "update mix, 8 lanes, canonical mixed-fault schedule\",\n");
  std::fprintf(f, "  \"scale\": %.3f,\n", BenchScale());
  std::fprintf(f, "  \"plan\": \"%s\",\n",
               "cxl-down .20-.35, nic-down .30-.40, cxl-flaky .45-.55 "
               "p=0.2, nic-degrade .55-.70, cxl-degrade .58-.66, "
               "disk-stall .75-.85 (fractions of the measure window)");
  std::fprintf(f, "  \"pools\": {\n");
  for (size_t i = 0; i < results.size(); i++) {
    const ChaosResult& r = results[i];
    std::fprintf(f, "    \"%s\": {\n", harness::ChaosPoolName(configs[i].kind));
    std::fprintf(f, "      \"lane_steps\": %llu,\n",
                 static_cast<unsigned long long>(r.lane_steps));
    std::fprintf(f, "      \"ok_ops\": %llu,\n",
                 static_cast<unsigned long long>(r.ok_ops));
    std::fprintf(f, "      \"failed_ops\": %llu,\n",
                 static_cast<unsigned long long>(r.failed_ops));
    std::fprintf(f, "      \"degraded_fetches\": %llu,\n",
                 static_cast<unsigned long long>(r.degraded_fetches));
    std::fprintf(f, "      \"fault_retries\": %llu,\n",
                 static_cast<unsigned long long>(r.fault_retries));
    std::fprintf(f, "      \"fault_rejections\": %llu,\n",
                 static_cast<unsigned long long>(r.fault_rejections));
    std::fprintf(f, "      \"timeline_ok\": [");
    for (size_t b = 0; b < r.ok.num_buckets(); b++) {
      std::fprintf(f, "%s%llu", b == 0 ? "" : ", ",
                   static_cast<unsigned long long>(r.ok.bucket(b)));
    }
    std::fprintf(f, "],\n");
    std::fprintf(f, "      \"timeline_failed\": [");
    for (size_t b = 0; b < r.failed.num_buckets(); b++) {
      std::fprintf(f, "%s%llu", b == 0 ? "" : ", ",
                   static_cast<unsigned long long>(r.failed.bucket(b)));
    }
    std::fprintf(f, "]\n");
    std::fprintf(f, "    }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

int Main() {
  using namespace polarcxl::harness;
  PrintHeader("Figure 14: fault-resilience timelines (chaos schedule)",
              "n/a (beyond the paper: graceful degradation under injected "
              "CXL/NIC/disk faults)");

  const engine::BufferPoolKind kinds[] = {
      engine::BufferPoolKind::kCxl,
      engine::BufferPoolKind::kDram,
      engine::BufferPoolKind::kTieredRdma,
  };
  std::vector<ChaosConfig> configs;
  for (auto kind : kinds) configs.push_back(MakeConfig(kind));

  const auto results = RunSweep<ChaosConfig, ChaosResult>(
      configs, [](const ChaosConfig& c) { return RunChaos(c); });

  ReportTable summary("Resilience summary (whole run)",
                      {"pool", "ok ops", "failed ops", "degraded fetches",
                       "verbs retries", "rejections", "injected cxl/nic/disk"});
  for (size_t i = 0; i < results.size(); i++) {
    const ChaosResult& r = results[i];
    char injected[64];
    std::snprintf(injected, sizeof(injected), "%llu/%llu/%llu",
                  static_cast<unsigned long long>(r.injected.cxl_failures),
                  static_cast<unsigned long long>(r.injected.nic_failures),
                  static_cast<unsigned long long>(r.injected.disk_stalls));
    summary.AddRow({ChaosPoolName(configs[i].kind), std::to_string(r.ok_ops),
                    std::to_string(r.failed_ops),
                    std::to_string(r.degraded_fetches),
                    std::to_string(r.fault_retries),
                    std::to_string(r.fault_rejections), injected});
  }
  summary.Print();

  ReportTable series(
      "K-ops/s over time (ok; 'f' column = failed ops in bucket)",
      {"t (ms)", "cxl", "cxl f", "dram", "dram f", "rdma", "rdma f"});
  size_t buckets = 0;
  for (const ChaosResult& r : results) {
    buckets = std::max({buckets, r.ok.num_buckets(), r.failed.num_buckets()});
  }
  for (size_t b = 0; b < buckets; b++) {
    const double t_ms = static_cast<double>(b) *
                        static_cast<double>(results[0].ok.bucket_width()) /
                        1e6;
    series.AddRow({Fmt(t_ms, 0), Fmt(results[0].ok.RatePerSec(b) / 1000, 1),
                   std::to_string(results[0].failed.bucket(b)),
                   Fmt(results[1].ok.RatePerSec(b) / 1000, 1),
                   std::to_string(results[1].failed.bucket(b)),
                   Fmt(results[2].ok.RatePerSec(b) / 1000, 1),
                   std::to_string(results[2].failed.bucket(b))});
  }
  series.Print();

  if (BenchScale() == 1.0) {
    WriteJson(results, configs);
    std::printf("wrote BENCH_fault_resilience.json\n");
  } else {
    std::printf(
        "POLAR_BENCH_SCALE != 1: BENCH_fault_resilience.json not refreshed\n");
  }

  // Determinism gate: virtual-time output must not move with host speed or
  // thread count — only with semantic changes to the simulation or the
  // fault model.
  if (!AtPinnedScale()) return 0;
  return pins::CheckPins("chaos", pins::kChaosBench,
                         {results[0].lane_steps, results[1].lane_steps,
                          results[2].lane_steps});
}

}  // namespace
}  // namespace polarcxl::bench

int main() { return polarcxl::bench::Main(); }
