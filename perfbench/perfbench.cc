// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Benchmark binary: runs one workload in this process and prints one JSON
// line with its end-to-end metrics, per-module metrics, correctness checks,
// build/host provenance and (with --trace) the recorded spans.
//
//   perfbench --workload pool_read_scale|rdma_open_rw|cxl_write_mix
//             --seed N [--trace]
//
// perfbench/run.py builds this binary, runs it once per repetition (one
// process per workload run, so peak RSS and set-up time belong to that
// workload alone) and aggregates the repetitions.
#include "perfbench.h"

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "common/prof.h"
#include "common/simd.h"

extern char** environ;

namespace perfbench {

double NowSeconds() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

namespace {

/// Reads one "Key:   N kB" line of /proc/self/status, in MiB.
double StatusMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0 && line.size() > n && line[n] == ':') {
      return std::strtod(line.c_str() + n + 1, nullptr) / 1024.0;
    }
  }
  return 0;
}

void PrintString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

void PrintMetrics(const std::vector<std::pair<std::string, double>>& m) {
  std::putchar('{');
  for (size_t i = 0; i < m.size(); i++) {
    if (i > 0) std::putchar(',');
    PrintString(m[i].first);
    std::printf(":%.17g", m[i].second);
  }
  std::putchar('}');
}

/// The simulator reads POLAR_WORLD_THREADS, POLAR_SWEEP_THREADS and
/// POLAR_SCHED from the environment; the benchmark fixes every knob in its
/// configs instead, so an exported knob must not change what is measured.
std::vector<std::string> ScrubPolarEnv() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; e++) {
    if (std::strncmp(*e, "POLAR_", 6) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    names.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
  }
  for (const std::string& n : names) unsetenv(n.c_str());
  return names;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "pool_read_scale|rdma_open_rw|cxl_write_mix --seed N "
               "[--trace]\n");
  return 2;
}

}  // namespace

double PeakRssMb() { return StatusMb("VmHWM"); }
double RssMb() { return StatusMb("VmRSS"); }

int Tracer::Begin(std::string name, bool phase) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  const int id = static_cast<int>(spans_.size());
  s.phase = phase ? id : (s.parent >= 0 ? spans_[s.parent].phase : -1);
  s.start = NowSeconds();
  spans_.push_back(std::move(s));
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  spans_[id].end = NowSeconds();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int Tracer::AddDerived(int parent, std::string name, double start,
                       double end) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.phase = spans_[parent].phase;
  s.start = start;
  s.end = end;
  s.derived = true;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

double Tracer::SelfSeconds(int id) const {
  double self = spans_[id].end - spans_[id].start;
  for (const Span& s : spans_) {
    if (s.parent == id) self -= s.end - s.start;
  }
  return self;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  NowSeconds();  // pin the clock origin at process start
  std::string workload;
  RunOptions opt;
  bool have_seed = false;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    if (a == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      opt.seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (a == "--trace") {
      opt.trace = true;
    } else {
      return Usage();
    }
  }
  if (!have_seed) return Usage();

  const std::vector<std::string> ignored_env = ScrubPolarEnv();
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  opt.world_threads = std::min(4u, nproc);

  Tracer tracer(opt.trace);
  Report report;
  {
    ScopedSpan root(tracer, workload);
    if (workload == "pool_read_scale") {
      RunPoolReadScale(opt, tracer, report);
    } else if (workload == "rdma_open_rw") {
      RunRdmaOpenRw(opt, tracer, report);
    } else if (workload == "cxl_write_mix") {
      RunCxlWriteMix(opt, tracer, report);
    } else {
      return Usage();
    }
  }
  for (auto* metrics : {&report.e2e, &report.layer}) {
    for (auto& [name, v] : *metrics) {
      if (!std::isfinite(v)) {
        report.Check("finite:" + name, false);
        v = 0;
      }
    }
  }

  std::printf("{\"workload\":");
  PrintString(workload);
  std::printf(",\"seed\":%llu,\"traced\":%s",
              static_cast<unsigned long long>(opt.seed),
              opt.trace ? "true" : "false");
  std::printf(",\"host\":{\"nproc\":%u,\"world_threads\":%u,\"simd\":",
              nproc, opt.world_threads);
  PrintString(polarcxl::kSimdLevel);
  std::printf(",\"build_type\":");
  PrintString(PERFBENCH_BUILD_TYPE);
  std::printf(",\"lto\":");
  PrintString(PERFBENCH_LTO);
  std::printf(",\"compiler\":");
  PrintString(PERFBENCH_COMPILER);
  std::printf(",\"prof_build\":%s,\"ignored_env\":[",
              polarcxl::prof::kEnabled ? "true" : "false");
  for (size_t i = 0; i < ignored_env.size(); i++) {
    if (i > 0) std::putchar(',');
    PrintString(ignored_env[i]);
  }
  std::printf("]},\"e2e\":");
  PrintMetrics(report.e2e);
  std::printf(",\"layer\":");
  PrintMetrics(report.layer);
  std::printf(",\"checks\":[");
  for (size_t i = 0; i < report.checks.size(); i++) {
    if (i > 0) std::putchar(',');
    std::putchar('[');
    PrintString(report.checks[i].first);
    std::printf(",%s]", report.checks[i].second ? "true" : "false");
  }
  std::printf("],\"prof\":{");
  const auto totals = polarcxl::prof::Collect();
  for (size_t i = 0; i < totals.size(); i++) {
    if (i > 0) std::putchar(',');
    PrintString(totals[i].name);
    std::printf(":{\"calls\":%llu,\"self_s\":%.17g}",
                static_cast<unsigned long long>(totals[i].calls),
                totals[i].self_sec);
  }
  std::printf("},\"spans\":[");
  const auto& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); i++) {
    if (i > 0) std::putchar(',');
    std::printf("{\"id\":%zu,\"name\":", i);
    PrintString(spans[i].name);
    std::printf(",\"parent\":%d,\"phase\":%d,\"start\":%.9f,\"end\":%.9f,"
                "\"self\":%.9f,\"derived\":%s}",
                spans[i].parent, spans[i].phase, spans[i].start, spans[i].end,
                tracer.SelfSeconds(static_cast<int>(i)),
                spans[i].derived ? "true" : "false");
  }
  std::printf("]}\n");
  return 0;
}
