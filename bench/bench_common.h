// Copyright 2026 The PolarCXLMem Reproduction Authors.
// Shared helpers for the figure/table benchmark binaries.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/pins.h"
#include "common/types.h"
#include "harness/report.h"

namespace polarcxl::bench {

/// POLAR_BENCH_SCALE scales measurement windows (default 1.0). Raise it for
/// tighter confidence; lower it for a quick smoke pass.
inline double BenchScale() {
  const char* env = std::getenv("POLAR_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

/// True at the scale the pin table's bench values hold for (bench/pins.h).
inline bool AtPinnedScale() { return BenchScale() == pins::kPinnedScale; }

inline Nanos Scaled(Nanos base) {
  return static_cast<Nanos>(static_cast<double>(base) * BenchScale());
}

/// Header block naming the paper artifact this binary regenerates.
inline void PrintHeader(const char* artifact, const char* paper_summary) {
  std::printf("=============================================================\n");
  std::printf("PolarCXLMem reproduction — %s\n", artifact);
  std::printf("Paper reports: %s\n", paper_summary);
  std::printf("Scale factor: %.2fx (POLAR_BENCH_SCALE)\n", BenchScale());
  std::printf("=============================================================\n");
}

}  // namespace polarcxl::bench
