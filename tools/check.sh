#!/usr/bin/env bash
# Repo verification gate: the tier-1 build + full test suite, then a
# sanitizer build (ASan+UBSan) of the simulation-core, determinism and
# transaction tests. Run from anywhere; builds land in build/ and build-asan/.
#
#   tools/check.sh            # tier-1 + sanitizer pass
#   tools/check.sh --fast     # tier-1 only
#   tools/check.sh --bench    # tier-1 + quick-scale bench bit-identity gate
#                             #   + POLAR_NO_SIMD leg (same pins, scalar
#                             #   kernels) + POLAR_PROF hot-share gate
#   tools/check.sh --faults   # tier-1 + sanitized fault suite + chaos gate
#   tools/check.sh --snapshot # tier-1 + sanitized snapshot suite +
#                             #   cold-vs-fork bit-identity on the fig7 point
#   tools/check.sh --parallel # tier-1 + epoch-parallel bit-identity gate
#                             #   (POLAR_WORLD_THREADS sweep) + TSan leg over
#                             #   the executor/snapshot/faults suites
#   tools/check.sh --slo      # tier-1 + quick-scale open-loop SLO-capacity
#                             #   gate: lane_steps pins across sweep/world
#                             #   thread counts + sanitized open-loop suite
#   tools/check.sh --fabric   # tier-1 + sanitized fabric suite + quick-scale
#                             #   multi-switch gate (serial + epoch pins,
#                             #   POLAR_WORLD_THREADS identity inside the
#                             #   bench)
#   tools/check.sh --scale    # tier-1 + scheduler suite + 64-instance
#                             #   quick-scale sweep: serial + epoch
#                             #   lane_steps pins, a sched-ops-per-step
#                             #   ceiling (O(active) scheduling guard) and
#                             #   bytes-per-instance memory ceilings
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

# Quick-scale (POLAR_BENCH_SCALE=0.1) lane_steps for the fig7 bench point.
# Pure virtual-time output: immune to host speed, moved only by semantic
# changes to the simulation. Keep in sync with the pinned constants in
# tests/determinism_test.cc (Fig7QuickScaleLaneStepsArePinned).
BENCH_EXPECT_QUICK="22105,17460"

# Quick-scale lane_steps for the fig14 chaos bench (cxl,dram,tiered_rdma
# under the canonical fault schedule). Keep in sync with the pinned
# constants in tests/faults_test.cc (CanonicalScheduleLaneStepsPinned).
CHAOS_EXPECT_QUICK="27857,35212,25375"

# Quick-scale fig7 lane_steps under the epoch-parallel discipline
# (POLAR_WORLD_THREADS >= 1). Differs from BENCH_EXPECT_QUICK by design:
# deferred cross-shard charges observe window-frozen channel ledgers, which
# shifts a handful of completions on multi-instance shared channels. The
# value is identical for EVERY thread count — that is the gate.
BENCH_EXPECT_QUICK_EPOCH="22107,17460"

# Quick-scale lane_steps for the slo-capacity bench (the scale-1.0 sweep
# point for cxl, dram, tiered_rdma, plus the chaos-under-peak run). Pure
# virtual-time output: every admission, shed, retry, and arrival is on the
# simulated clock, so the pins hold for ANY sweep/world thread count.
SLO_EXPECT_QUICK="47468,47328,41387,35498"

# Quick-scale lane_steps for the fabric-topology bench's 2-switch reference
# point (8 instances, round-robin page interleave, 1 GB/s device ports):
# serial value, then the epoch value shared by every POLAR_WORLD_THREADS
# count (the bench itself sweeps 1/2/4 and fails on divergence).
FABRIC_EXPECT_QUICK="5666,5666"

# Quick-scale 64-instance lane_steps for the scale-cost sweep (fig7 CXL
# pooling world at 64 instances): serial, then epoch (POLAR_WORLD_THREADS=1).
# Same virtual-time purity as the other pins.
SCALE_EXPECT_QUICK="87662,87766"

# Ceiling on scheduler bookkeeping per lane-step at 64 instances. The
# timing wheel holds ~2.1-2.2 ops/step flat across 8..256 instances; the
# old binary heap paid ~9-11 (O(log n) sift levels per step). 3.0 leaves
# headroom for noise while catching any return to O(log n) behaviour.
SCALE_MAX_SCHED_OPS="3.0"

# Ceiling on the engine+cache_sim share of profiled self CPU time (see
# POLAR_BENCH_MAX_HOT_SHARE in bench_sim_throughput.cc). The third-wave
# hot-path work measured ~90%; a build where the pool re-virtualizes or a
# probe path bloats pushes past this.
BENCH_MAX_HOT_SHARE="0.93"

echo "==> tier-1: configure + build + ctest"
# POLAR_CMAKE_FLAGS lets CI matrix legs reconfigure the tier-1 build (e.g.
# -DPOLAR_NO_SIMD=ON to run the whole suite on the scalar fallbacks).
# shellcheck disable=SC2086
cmake -B build -S . ${POLAR_CMAKE_FLAGS:-} >/dev/null
cmake --build build -j "$JOBS" >/dev/null
ctest --test-dir build --output-on-failure -j "$JOBS"

if [[ "${1:-}" == "--fast" ]]; then
  echo "==> OK (fast mode: sanitizer pass skipped)"
  exit 0
fi

if [[ "${1:-}" == "--bench" ]]; then
  echo "==> bench: quick-scale sim-throughput bit-identity gate"
  # Fails on lane_steps drift (POLAR_BENCH_EXPECT); the wall-clock numbers
  # it prints are informational only — quick scale is too short to gate on.
  POLAR_BENCH_SCALE=0.1 POLAR_BENCH_REPS=1 \
    POLAR_BENCH_EXPECT="$BENCH_EXPECT_QUICK" \
    build/bench/bench_sim_throughput
  echo "==> bench: POLAR_NO_SIMD leg (scalar kernels, same pins)"
  # The SIMD kernels are host-side only: the scalar build must retire the
  # exact same lane_steps, and the kernel equivalence tests must pass with
  # the fallback paths compiled in.
  cmake -B build-nosimd -S . -DPOLAR_NO_SIMD=ON >/dev/null
  cmake --build build-nosimd -j "$JOBS" \
    --target bench_sim_throughput kernel_test >/dev/null
  build-nosimd/tests/kernel_test
  POLAR_BENCH_SCALE=0.1 POLAR_BENCH_REPS=1 \
    POLAR_BENCH_EXPECT="$BENCH_EXPECT_QUICK" \
    build-nosimd/bench/bench_sim_throughput
  echo "==> bench: POLAR_PROF hot-share regression gate"
  # A profiled quick run measures where simulator CPU time goes; the gate
  # fails if the engine+cache_sim hot paths grew past the pinned share.
  cmake -B build-prof -S . -DPOLAR_PROF=ON -DPOLAR_LTO=OFF >/dev/null
  cmake --build build-prof -j "$JOBS" --target bench_sim_throughput >/dev/null
  POLAR_BENCH_SCALE=0.1 POLAR_BENCH_REPS=1 \
    POLAR_BENCH_EXPECT="$BENCH_EXPECT_QUICK" \
    POLAR_BENCH_MAX_HOT_SHARE="$BENCH_MAX_HOT_SHARE" \
    build-prof/bench/bench_sim_throughput
  echo "==> OK (bench mode: sanitizer pass skipped)"
  exit 0
fi

if [[ "${1:-}" == "--faults" ]]; then
  echo "==> faults: ASan+UBSan build of the fault suite"
  cmake -B build-asan -S . -DPOLAR_SANITIZE=ON -DPOLAR_LTO=OFF >/dev/null
  cmake --build build-asan -j "$JOBS" \
    --target faults_test failure_injection_test >/dev/null
  for t in faults_test failure_injection_test; do
    echo "==> build-asan/tests/$t"
    "build-asan/tests/$t"
  done
  echo "==> faults: quick-scale chaos bit-identity gate (threads 1 vs many)"
  # Same canonical schedule, serial and parallel sweeps: lane_steps must
  # match the pinned values either way (POLAR_CHAOS_EXPECT exits 1 on
  # drift). Wall-clock throughput at quick scale is informational only.
  POLAR_BENCH_SCALE=0.1 POLAR_BENCH_REPS=1 POLAR_SWEEP_THREADS=1 \
    POLAR_CHAOS_EXPECT="$CHAOS_EXPECT_QUICK" \
    build/bench/bench_fig14_fault_resilience >/dev/null
  POLAR_BENCH_SCALE=0.1 POLAR_BENCH_REPS=1 \
    POLAR_CHAOS_EXPECT="$CHAOS_EXPECT_QUICK" \
    build/bench/bench_fig14_fault_resilience
  echo "==> OK (faults mode)"
  exit 0
fi

if [[ "${1:-}" == "--snapshot" ]]; then
  echo "==> snapshot: ASan+UBSan build of the snapshot suite"
  cmake -B build-asan -S . -DPOLAR_SANITIZE=ON -DPOLAR_LTO=OFF >/dev/null
  cmake --build build-asan -j "$JOBS" --target snapshot_test >/dev/null
  echo "==> build-asan/tests/snapshot_test"
  build-asan/tests/snapshot_test
  echo "==> snapshot: quick-scale cold-vs-fork bit-identity gate"
  # Rep 1 builds the fig7 quick-scale world cold; rep 2 forks its snapshot.
  # Both reps must retire the pinned lane_steps (the bench exits 1 if a
  # forked rep diverges from the cold one, and POLAR_BENCH_EXPECT pins the
  # absolute values).
  POLAR_BENCH_SCALE=0.1 POLAR_BENCH_REPS=2 \
    POLAR_BENCH_EXPECT="$BENCH_EXPECT_QUICK" \
    build/bench/bench_sim_throughput
  echo "==> OK (snapshot mode)"
  exit 0
fi

if [[ "${1:-}" == "--parallel" ]]; then
  echo "==> parallel: epoch-parallel determinism suite"
  build/tests/parallel_world_test
  echo "==> parallel: quick-scale bench identity across POLAR_WORLD_THREADS"
  # Same world, sharded 1/2/4 ways: lane_steps must hit the epoch pins at
  # every thread count. Wall-clock is informational (see in_world_scaling
  # in BENCH_sim_throughput.json for the honest scaling numbers).
  for n in 1 2 4; do
    echo "==> POLAR_WORLD_THREADS=$n"
    POLAR_WORLD_THREADS="$n" POLAR_BENCH_SCALE=0.1 POLAR_BENCH_REPS=1 \
      POLAR_BENCH_EXPECT="$BENCH_EXPECT_QUICK_EPOCH" \
      build/bench/bench_sim_throughput >/dev/null
  done
  echo "==> parallel: chaos gate at POLAR_WORLD_THREADS=2 (serial pins)"
  # Chaos worlds are single-group, so the epoch discipline replays the
  # serial timeline exactly — the UNCHANGED serial pins must hold.
  POLAR_WORLD_THREADS=2 POLAR_BENCH_SCALE=0.1 POLAR_BENCH_REPS=1 \
    POLAR_SWEEP_THREADS=1 POLAR_CHAOS_EXPECT="$CHAOS_EXPECT_QUICK" \
    build/bench/bench_fig14_fault_resilience >/dev/null
  echo "==> parallel: TSan build of executor/snapshot/faults suites"
  cmake -B build-tsan -S . -DPOLAR_SANITIZE=thread -DPOLAR_LTO=OFF >/dev/null
  cmake --build build-tsan -j "$JOBS" \
    --target sim_test snapshot_test faults_test parallel_world_test >/dev/null
  for t in sim_test snapshot_test faults_test parallel_world_test; do
    echo "==> build-tsan/tests/$t"
    "build-tsan/tests/$t"
  done
  echo "==> OK (parallel mode)"
  exit 0
fi

if [[ "${1:-}" == "--slo" ]]; then
  echo "==> slo: ASan+UBSan build of the open-loop suite"
  cmake -B build-asan -S . -DPOLAR_SANITIZE=ON -DPOLAR_LTO=OFF >/dev/null
  cmake --build build-asan -j "$JOBS" --target open_loop_test >/dev/null
  echo "==> build-asan/tests/open_loop_test"
  build-asan/tests/open_loop_test
  echo "==> slo: quick-scale capacity bit-identity gate (thread sweep)"
  # Open-loop arrival schedules are counter-mode (a pure function of seed,
  # tenant, and index) and all serving runs on the virtual clock, so the
  # same pins must hold serial, sweep-parallel, and epoch-parallel
  # (POLAR_SLO_EXPECT exits 1 on drift).
  POLAR_BENCH_SCALE=0.1 POLAR_SWEEP_THREADS=1 \
    POLAR_SLO_EXPECT="$SLO_EXPECT_QUICK" \
    build/bench/bench_slo_capacity >/dev/null
  POLAR_BENCH_SCALE=0.1 POLAR_SWEEP_THREADS=4 \
    POLAR_SLO_EXPECT="$SLO_EXPECT_QUICK" \
    build/bench/bench_slo_capacity >/dev/null
  POLAR_BENCH_SCALE=0.1 POLAR_WORLD_THREADS=4 \
    POLAR_SLO_EXPECT="$SLO_EXPECT_QUICK" \
    build/bench/bench_slo_capacity
  echo "==> OK (slo mode)"
  exit 0
fi

if [[ "${1:-}" == "--fabric" ]]; then
  echo "==> fabric: ASan+UBSan build of the fabric suite"
  cmake -B build-asan -S . -DPOLAR_SANITIZE=ON -DPOLAR_LTO=OFF >/dev/null
  cmake --build build-asan -j "$JOBS" --target fabric_test >/dev/null
  echo "==> build-asan/tests/fabric_test"
  build-asan/tests/fabric_test
  echo "==> fabric: quick-scale multi-switch bit-identity gate"
  # The bench runs its 2-switch reference point serial and epoch-parallel
  # (threads 1/2/4 must agree internally); POLAR_FABRIC_EXPECT pins the
  # absolute serial and epoch lane_steps (exit 1 on drift).
  POLAR_BENCH_SCALE=0.1 \
    POLAR_FABRIC_EXPECT="$FABRIC_EXPECT_QUICK" \
    build/bench/bench_fabric_topology
  echo "==> OK (fabric mode)"
  exit 0
fi

if [[ "${1:-}" == "--scale" ]]; then
  # The executor always runs the timing wheel; the flat binary heap lives on
  # only as this suite's oracle (LaneScheduler::Mode::kHeap).
  echo "==> scale: scheduler wheel-vs-heap-oracle equivalence suite"
  build/tests/scheduler_test
  echo "==> scale: 64-instance quick sweep (pins + ops and memory ceilings)"
  # POLAR_SCALE_EXPECT pins the 64-instance lane_steps for both execution
  # modes (exit 1 on drift); POLAR_MAX_SCHED_OPS_PER_STEP fails the gate
  # if per-step scheduler work regresses toward O(log n). The gate also
  # applies three fixed bytes-per-instance ceilings to the memory ledger
  # (ScaleGate in bench_sim_throughput.cc): device bytes <= pool region +
  # 1 page, bytes saved by a read-only fork <= 1 % of device bytes, and
  # retained redo bytes <= 5 % of device bytes.
  POLAR_BENCH_SCALE=0.1 \
    POLAR_SCALE_EXPECT="$SCALE_EXPECT_QUICK" \
    POLAR_MAX_SCHED_OPS_PER_STEP="$SCALE_MAX_SCHED_OPS" \
    build/bench/bench_sim_throughput
  echo "==> OK (scale mode)"
  exit 0
fi

echo "==> sanitizer: ASan+UBSan build of sim core, determinism and"
echo "    transaction (undo-record serialization) tests"
# LTO off: it slows the instrumented build down a lot for no extra signal.
cmake -B build-asan -S . -DPOLAR_SANITIZE=ON -DPOLAR_LTO=OFF >/dev/null
cmake --build build-asan -j "$JOBS" \
  --target sim_test sweep_runner_test determinism_test transaction_test \
  >/dev/null
for t in sim_test sweep_runner_test determinism_test transaction_test; do
  echo "==> build-asan/tests/$t"
  "build-asan/tests/$t"
done

echo "==> OK"
