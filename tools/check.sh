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

# Every pinned lane_steps value and gate ceiling lives in bench/pins.h. The
# benches check their own pins whenever they run at POLAR_BENCH_SCALE=0.1,
# so the legs below only pick the scale, the thread counts and the builds.
MODE="${1:-}"
case "$MODE" in
  ""|--fast|--bench|--faults|--snapshot|--parallel|--slo|--fabric|--scale) ;;
  *)
    sed -n '2,/^set -euo/s/^# \{0,1\}//p' tools/check.sh >&2
    exit 2
    ;;
esac

echo "==> tier-1: configure + build + ctest"
# POLAR_CMAKE_FLAGS lets CI matrix legs reconfigure the tier-1 build (e.g.
# -DPOLAR_NO_SIMD=ON to run the whole suite on the scalar fallbacks).
# shellcheck disable=SC2086
cmake -B build -S . ${POLAR_CMAKE_FLAGS:-} >/dev/null
cmake --build build -j "$JOBS" >/dev/null
ctest --test-dir build --output-on-failure -j "$JOBS"

if [[ "$MODE" == "--fast" ]]; then
  echo "==> OK (fast mode: sanitizer pass skipped)"
  exit 0
fi

if [[ "$MODE" == "--bench" ]]; then
  echo "==> bench: quick-scale sim-throughput bit-identity gate"
  # Fails on lane_steps drift; the wall-clock numbers it prints are
  # informational only — quick scale is too short to gate on.
  POLAR_BENCH_SCALE=0.1 POLAR_BENCH_REPS=1 build/bench/bench_sim_throughput
  echo "==> bench: POLAR_NO_SIMD leg (scalar kernels, same pins)"
  # The SIMD kernels are host-side only: the scalar build must retire the
  # exact same lane_steps, and the kernel equivalence tests must pass with
  # the fallback paths compiled in.
  cmake -B build-nosimd -S . -DPOLAR_NO_SIMD=ON >/dev/null
  cmake --build build-nosimd -j "$JOBS" \
    --target bench_sim_throughput kernel_test >/dev/null
  build-nosimd/tests/kernel_test
  POLAR_BENCH_SCALE=0.1 POLAR_BENCH_REPS=1 \
    build-nosimd/bench/bench_sim_throughput
  echo "==> bench: POLAR_PROF hot-share regression gate"
  # A profiled quick run measures where simulator CPU time goes; a
  # POLAR_PROF build of the bench fails if the engine+cache_sim hot paths
  # grew past the pinned share.
  cmake -B build-prof -S . -DPOLAR_PROF=ON -DPOLAR_LTO=OFF >/dev/null
  cmake --build build-prof -j "$JOBS" --target bench_sim_throughput >/dev/null
  POLAR_BENCH_SCALE=0.1 POLAR_BENCH_REPS=1 \
    build-prof/bench/bench_sim_throughput
  echo "==> OK (bench mode: sanitizer pass skipped)"
  exit 0
fi

if [[ "$MODE" == "--faults" ]]; then
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
  # match the pinned values either way (the bench exits 1 on drift).
  # Wall-clock throughput at quick scale is informational only.
  POLAR_BENCH_SCALE=0.1 POLAR_BENCH_REPS=1 POLAR_SWEEP_THREADS=1 \
    build/bench/bench_fig14_fault_resilience >/dev/null
  POLAR_BENCH_SCALE=0.1 POLAR_BENCH_REPS=1 \
    build/bench/bench_fig14_fault_resilience
  echo "==> OK (faults mode)"
  exit 0
fi

if [[ "$MODE" == "--snapshot" ]]; then
  echo "==> snapshot: ASan+UBSan build of the snapshot suite"
  cmake -B build-asan -S . -DPOLAR_SANITIZE=ON -DPOLAR_LTO=OFF >/dev/null
  cmake --build build-asan -j "$JOBS" --target snapshot_test >/dev/null
  echo "==> build-asan/tests/snapshot_test"
  build-asan/tests/snapshot_test
  echo "==> snapshot: quick-scale cold-vs-fork bit-identity gate"
  # Rep 1 builds the fig7 quick-scale world cold; rep 2 forks its snapshot.
  # Both reps must retire the pinned lane_steps (the bench exits 1 if a
  # forked rep diverges from the cold one or from the pins).
  POLAR_BENCH_SCALE=0.1 POLAR_BENCH_REPS=2 build/bench/bench_sim_throughput
  echo "==> OK (snapshot mode)"
  exit 0
fi

if [[ "$MODE" == "--parallel" ]]; then
  echo "==> parallel: epoch-parallel determinism suite"
  build/tests/parallel_world_test
  echo "==> parallel: quick-scale bench identity across POLAR_WORLD_THREADS"
  # Same world, sharded 1/2/4 ways: lane_steps must hit the epoch pins at
  # every thread count. Wall-clock is informational (see in_world_scaling
  # in BENCH_sim_throughput.json for the honest scaling numbers).
  for n in 1 2 4; do
    echo "==> POLAR_WORLD_THREADS=$n"
    POLAR_WORLD_THREADS="$n" POLAR_BENCH_SCALE=0.1 POLAR_BENCH_REPS=1 \
      build/bench/bench_sim_throughput >/dev/null
  done
  echo "==> parallel: chaos gate at POLAR_WORLD_THREADS=2 (serial pins)"
  # Chaos worlds are single-group, so the epoch discipline replays the
  # serial timeline exactly — the UNCHANGED serial pins must hold.
  POLAR_WORLD_THREADS=2 POLAR_BENCH_SCALE=0.1 POLAR_BENCH_REPS=1 \
    POLAR_SWEEP_THREADS=1 build/bench/bench_fig14_fault_resilience >/dev/null
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

if [[ "$MODE" == "--slo" ]]; then
  echo "==> slo: ASan+UBSan build of the open-loop suite"
  cmake -B build-asan -S . -DPOLAR_SANITIZE=ON -DPOLAR_LTO=OFF >/dev/null
  cmake --build build-asan -j "$JOBS" --target open_loop_test >/dev/null
  echo "==> build-asan/tests/open_loop_test"
  build-asan/tests/open_loop_test
  echo "==> slo: quick-scale capacity bit-identity gate (thread sweep)"
  # Open-loop arrival schedules are counter-mode (a pure function of seed,
  # tenant, and index) and all serving runs on the virtual clock, so the
  # same pins must hold serial, sweep-parallel, and epoch-parallel
  # (the bench exits 1 on drift).
  POLAR_BENCH_SCALE=0.1 POLAR_SWEEP_THREADS=1 \
    build/bench/bench_slo_capacity >/dev/null
  POLAR_BENCH_SCALE=0.1 POLAR_SWEEP_THREADS=4 \
    build/bench/bench_slo_capacity >/dev/null
  POLAR_BENCH_SCALE=0.1 POLAR_WORLD_THREADS=4 build/bench/bench_slo_capacity
  echo "==> OK (slo mode)"
  exit 0
fi

if [[ "$MODE" == "--fabric" ]]; then
  echo "==> fabric: ASan+UBSan build of the fabric suite"
  cmake -B build-asan -S . -DPOLAR_SANITIZE=ON -DPOLAR_LTO=OFF >/dev/null
  cmake --build build-asan -j "$JOBS" --target fabric_test >/dev/null
  echo "==> build-asan/tests/fabric_test"
  build-asan/tests/fabric_test
  echo "==> fabric: quick-scale multi-switch bit-identity gate"
  # The bench runs its 2-switch reference point serial and epoch-parallel
  # (threads 1/2/4 must agree internally) and pins the absolute serial and
  # epoch lane_steps (exit 1 on drift).
  POLAR_BENCH_SCALE=0.1 build/bench/bench_fabric_topology
  echo "==> OK (fabric mode)"
  exit 0
fi

if [[ "$MODE" == "--scale" ]]; then
  # The executor always runs the timing wheel; the flat binary heap lives on
  # only as this suite's oracle (LaneScheduler::Mode::kHeap).
  echo "==> scale: scheduler wheel-vs-heap-oracle equivalence suite"
  build/tests/scheduler_test
  echo "==> scale: 64-instance quick sweep (pins + ops and memory ceilings)"
  # --scale-gate pins the 64-instance lane_steps for both execution modes,
  # fails if per-step scheduler work regresses toward O(log n), and applies
  # the bytes-per-instance ceilings to the memory ledger: device bytes,
  # bytes saved by a read-only fork, and retained redo bytes.
  POLAR_BENCH_SCALE=0.1 build/bench/bench_sim_throughput --scale-gate
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
