// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Built-in scope profiler for the simulator's own wall-clock cost.
// Perf work on the step path has so far been guided by ad-hoc `perf`
// sessions; this gives every bench a first-class per-subsystem breakdown
// (cache sim, channels, executor, engine, workload, metrics) that
// bench_sim_throughput prints and, at full scale, records in
// BENCH_sim_profile.json.
//
// The profiler is a compile-time feature: configure with -DPOLAR_PROF=ON
// to enable it. In the default build POLAR_PROF_SCOPE() expands to
// ((void)0), so the step path carries no instrumentation at all — the
// committed throughput numbers always come from a profiler-free build.
//
// When enabled, POLAR_PROF_SCOPE(kEngine) opens an RAII scope that charges
// elapsed cycles to its domain. Scopes nest: a parent is charged only its
// SELF time (child scopes subtract their elapsed time from it), so the
// per-domain self columns sum to roughly the instrumented wall clock.
// Cycles come from rdtsc where available (≈ 7 ns per scope, cheap enough
// that the breakdown percentages stay honest) and are converted to seconds
// at report time against steady_clock. Per-thread stats blocks live in a
// mutex-guarded global registry; blocks are leaked deliberately (bounded
// by thread count) so reports can outlive worker threads.
#pragma once

#include <cstdint>
#include <vector>

#ifdef POLAR_PROF
#include <chrono>
#include <mutex>
#endif

namespace polarcxl::prof {

enum class Domain {
  kCacheSim = 0,  // CpuCacheSim probe/evict/flush machinery
  kChannels,      // BandwidthChannel transfer accounting
  kExecutor,      // lane heap scheduling (executor step overhead)
  kEngine,        // b-tree / buffer pool / transaction logic
  kWorkload,      // query generation and row materialization
  kMetrics,       // histogram + time-series recording
};
inline constexpr int kNumDomains = 6;
inline constexpr const char* kDomainNames[kNumDomains] = {
    "cache_sim", "channels", "executor", "engine", "workload", "metrics",
};

/// One row of the aggregated report (all threads merged).
struct DomainTotals {
  const char* name = "";
  uint64_t calls = 0;
  double self_sec = 0;   // excludes time inside nested child scopes
  double total_sec = 0;  // includes nested scopes (double-counts recursion)
};

#ifdef POLAR_PROF

inline constexpr bool kEnabled = true;

namespace detail {

inline uint64_t Now() {
#if defined(__x86_64__)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

struct ThreadStats {
  uint64_t calls[kNumDomains] = {};
  uint64_t self_cycles[kNumDomains] = {};
  uint64_t total_cycles[kNumDomains] = {};
};

inline std::mutex& RegistryMutex() {
  static std::mutex m;
  return m;
}

inline std::vector<ThreadStats*>& Registry() {
  static std::vector<ThreadStats*> r;
  return r;
}

inline ThreadStats& Stats() {
  thread_local ThreadStats* stats = [] {
    auto* s = new ThreadStats();  // leaked: report may run after thread exit
    std::lock_guard<std::mutex> lock(RegistryMutex());
    Registry().push_back(s);
    return s;
  }();
  return *stats;
}

/// Cycle units per second, calibrated once against steady_clock. With the
/// steady_clock fallback this is ~1e9 (units are already ns).
inline double CyclesPerSec() {
  static const double rate = [] {
    const auto t0 = std::chrono::steady_clock::now();
    const uint64_t c0 = Now();
    while (std::chrono::steady_clock::now() - t0 <
           std::chrono::milliseconds(20)) {
    }
    const uint64_t c1 = Now();
    const auto t1 = std::chrono::steady_clock::now();
    const double sec =
        std::chrono::duration<double>(t1 - t0).count();
    return static_cast<double>(c1 - c0) / sec;
  }();
  return rate;
}

class Scope;
inline thread_local Scope* tls_current = nullptr;

class Scope {
 public:
  explicit Scope(Domain d)
      : domain_(static_cast<int>(d)), parent_(tls_current), start_(Now()) {
    tls_current = this;
  }
  ~Scope() {
    const uint64_t total = Now() - start_;
    ThreadStats& s = Stats();
    s.calls[domain_]++;
    s.self_cycles[domain_] += total - child_cycles_;
    s.total_cycles[domain_] += total;
    if (parent_ != nullptr) parent_->child_cycles_ += total;
    tls_current = parent_;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int domain_;
  Scope* parent_;
  uint64_t start_;
  uint64_t child_cycles_ = 0;
};

}  // namespace detail

/// Aggregated per-domain totals across all threads, ordered as Domain.
/// Domains with zero calls are included (callers may filter).
inline std::vector<DomainTotals> Collect() {
  const double rate = detail::CyclesPerSec();
  std::vector<DomainTotals> out(kNumDomains);
  std::lock_guard<std::mutex> lock(detail::RegistryMutex());
  for (int d = 0; d < kNumDomains; d++) {
    out[d].name = kDomainNames[d];
    for (const detail::ThreadStats* s : detail::Registry()) {
      out[d].calls += s->calls[d];
      out[d].self_sec += static_cast<double>(s->self_cycles[d]) / rate;
      out[d].total_sec += static_cast<double>(s->total_cycles[d]) / rate;
    }
  }
  return out;
}

/// Zeroes all counters (e.g. between warm-up and the measured repetition).
inline void ResetAll() {
  std::lock_guard<std::mutex> lock(detail::RegistryMutex());
  for (detail::ThreadStats* s : detail::Registry()) *s = detail::ThreadStats{};
}

#define POLAR_PROF_CONCAT_INNER(a, b) a##b
#define POLAR_PROF_CONCAT(a, b) POLAR_PROF_CONCAT_INNER(a, b)
#define POLAR_PROF_SCOPE(domain)                       \
  ::polarcxl::prof::detail::Scope POLAR_PROF_CONCAT(   \
      polar_prof_scope_, __LINE__)(::polarcxl::prof::Domain::domain)

#else  // !POLAR_PROF

inline constexpr bool kEnabled = false;

inline std::vector<DomainTotals> Collect() { return {}; }
inline void ResetAll() {}

#define POLAR_PROF_SCOPE(domain) ((void)0)

#endif  // POLAR_PROF

}  // namespace polarcxl::prof
