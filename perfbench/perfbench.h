// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Shared pieces of the benchmark binary: the in-memory span recorder, the
// per-process report, and the three workload entry points.
//
// Spans are recorded only around calls the benchmark itself makes into the
// simulator's public API; nothing under src/ is instrumented. A span has a
// name, start, end, parent and the id of the phase it belongs to; the tree
// is workload -> phase -> module call. Spans stay in memory and are written
// out once, with the report, when the workload ends.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Real seconds since the first call (process-relative monotonic clock).
double NowSeconds();

/// Peak resident set size of this process so far, in MiB (VmHWM).
double PeakRssMb();
/// Current resident set size of this process, in MiB (VmRSS).
double RssMb();

struct Span {
  std::string name;
  int parent = -1;  // index into Tracer::spans(), -1 for the root
  int phase = -1;   // index of the enclosing phase span (itself for phases)
  double start = 0;
  double end = 0;
  /// Placed from a duration the driver reports about its own call (its
  /// measurement window), not timed by the benchmark.
  bool derived = false;
};

/// Records nested spans when enabled; a disabled tracer records nothing, so
/// the untraced run pays one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span under the innermost open one. `phase` marks it as the
  /// phase whose id its descendants carry.
  int Begin(std::string name, bool phase = false);
  void End(int id);
  /// Adds a closed, derived child span under `parent`.
  int AddDerived(int parent, std::string name, double start, double end);

  const std::vector<Span>& spans() const { return spans_; }
  bool enabled() const { return enabled_; }
  /// Span duration minus the time its direct children cover.
  double SelfSeconds(int id) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, bool phase = false)
      : tracer_(tracer),
        id_(tracer.enabled() ? tracer.Begin(std::move(name), phase) : -1) {}
  int id() const { return id_; }
  ~ScopedSpan() {
    if (id_ >= 0) tracer_.End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Everything one workload process measured. Host metrics carry the host's
/// noise; every other value is a pure function of the seed.
struct Report {
  /// End-to-end metrics (BENCHMARK.json "end_to_end") plus their bases.
  std::vector<std::pair<std::string, double>> e2e;
  /// Per-module metrics (BENCHMARK.json "per_layer"); virtual-time and
  /// counter values here are exact per seed.
  std::vector<std::pair<std::string, double>> layer;
  /// Correctness gate: every check evaluated, with its outcome.
  std::vector<std::pair<std::string, bool>> checks;

  void E2e(std::string name, double v) { e2e.emplace_back(std::move(name), v); }
  void Layer(std::string name, double v) {
    layer.emplace_back(std::move(name), v);
  }
  void Check(std::string name, bool ok) {
    checks.emplace_back(std::move(name), ok);
  }
};

struct RunOptions {
  uint64_t seed = 1;
  bool trace = false;
  /// Epoch-parallel executor threads for the multi-instance closed-loop
  /// world: min(4, nproc), fixed before any world is built.
  uint32_t world_threads = 1;
};

void RunPoolReadScale(const RunOptions& opt, Tracer& tracer, Report& report);
void RunRdmaOpenRw(const RunOptions& opt, Tracer& tracer, Report& report);
void RunCxlWriteMix(const RunOptions& opt, Tracer& tracer, Report& report);

}  // namespace perfbench
