// Copyright 2026 The PolarCXLMem Reproduction Authors.
// The pin table: every pinned virtual-time lane_steps value and every gate
// ceiling, written down once. lane_steps is pure virtual-time output, so
// host speed and thread counts cannot move it; only a semantic change to
// the simulation can. Such a change may be intentional, but it must never
// be an accident: edit a value here only alongside an explanation of what
// changed the simulated execution (CHANGES.md, DESIGN.md).
//
// The benches check their own families whenever they run at kPinnedScale
// (POLAR_BENCH_SCALE=0.1), and the tests read the same constants; see
// tools/check.sh for which leg runs which bench.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>

namespace polarcxl::pins {

/// One pinned value: the run it names (for messages) and its lane_steps.
struct Pin {
  const char* name;
  uint64_t lane_steps;
};

/// POLAR_BENCH_SCALE of every bench pin below.
inline constexpr double kPinnedScale = 0.1;

/// Fig7 8-instance point-select pooling point at quick scale (4 ms warmup,
/// 12 ms measure): bench_sim_throughput and determinism_test. The epoch
/// set holds for every world thread count >= 1; it differs from the serial
/// set by design, because deferred cross-shard charges observe
/// window-frozen channel ledgers (DESIGN.md, "In-world parallelism").
inline constexpr Pin kFig7Serial[] = {{"cxl", 22105}, {"tiered_rdma", 17460}};
inline constexpr Pin kFig7Epoch[] = {{"cxl", 22107}, {"tiered_rdma", 17460}};

/// bench_fig14_fault_resilience under the canonical fault schedule. Chaos
/// worlds are single-group, so these hold serial and epoch-parallel.
inline constexpr Pin kChaosBench[] = {
    {"cxl", 27857}, {"dram", 35212}, {"tiered_rdma", 25375}};

/// bench_slo_capacity: the scale-1.0 sweep point per pool, then the
/// chaos-under-peak run. Every arrival, shed and retry is on the virtual
/// clock, so these hold for any sweep or world thread count.
inline constexpr Pin kSloBench[] = {{"cxl", 47468},
                                    {"dram", 47328},
                                    {"tiered_rdma", 41387},
                                    {"chaos-under-peak", 35498}};

/// bench_fabric_topology's 2-switch reference point (8 instances,
/// round-robin page interleave, 1 GB/s device ports): serial, then the
/// epoch value shared by world threads 1, 2 and 4.
inline constexpr Pin kFabricGate[] = {{"serial", 5666}, {"epoch", 5666}};

/// The fig7 CXL pooling world at 64 instances (bench_sim_throughput
/// --scale-gate): serial, then epoch-parallel with one worker.
inline constexpr Pin kScale64[] = {{"serial", 87662}, {"epoch", 87766}};

/// faults_test's QuickChaos schedule (CanonicalScheduleLaneStepsPinned).
inline constexpr Pin kQuickChaos[] = {
    {"cxl", 37619}, {"dram", 47724}, {"tiered_rdma", 36399}};

/// Ceiling on scheduler bookkeeping per lane-step at 64 instances. The
/// timing wheel holds ~2.1-2.2 ops/step flat across 8..256 instances; a
/// binary heap pays ~9-11 (O(log n) sift levels per step).
inline constexpr double kMaxSchedOpsPerStep = 3.0;

/// Bytes-per-instance ceilings on the 64-instance memory ledger, read after
/// a read-only fork: the sparse devices may hold at most the pool region
/// plus kMaxDeviceSlackPages pages, the snapshot may save at most
/// kMaxSavedFraction of the device bytes (copy-before-write of pool
/// metadata only), and the redo log may retain at most kMaxRedoFraction of
/// them (the load's checkpoint frees its records and a read-only window
/// logs nothing).
inline constexpr uint64_t kMaxDeviceSlackPages = 1;
inline constexpr double kMaxSavedFraction = 0.01;
inline constexpr double kMaxRedoFraction = 0.05;

/// Ceiling on the engine+cache_sim share of profiled self CPU time in a
/// POLAR_PROF build (measured ~90 %): a pool that re-virtualizes or a probe
/// path that bloats pushes past it.
inline constexpr double kMaxHotShare = 0.93;

/// Compares `got` against a pin family. Prints one line on a match; on
/// drift prints every differing value to stderr and returns 1.
template <size_t N>
int CheckPins(const char* family, const Pin (&pins)[N],
              const uint64_t (&got)[N]) {
  int rc = 0;
  for (size_t i = 0; i < N; i++) {
    if (got[i] != pins[i].lane_steps) {
      std::fprintf(stderr, "%s lane_steps drift (%s): got %llu, pinned %llu\n",
                   family, pins[i].name,
                   static_cast<unsigned long long>(got[i]),
                   static_cast<unsigned long long>(pins[i].lane_steps));
      rc = 1;
    }
  }
  if (rc == 0) {
    std::printf("%s lane_steps match the pins (bench/pins.h)\n", family);
  }
  return rc;
}

}  // namespace polarcxl::pins
