// Small statistics helpers for the benchmark. Percentiles use the
// library's own definition (common::Percentile, linear interpolation
// between order statistics).
#pragma once

#include <cmath>
#include <cstdint>
#include <ctime>
#include <vector>

#include "common/statistics.h"

namespace perfbench {

/// CLOCK_MONOTONIC in nanoseconds: one clock for both processes, so
/// client and decorator timestamps compare directly.
inline std::int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// p in [0, 100]; NaN for an empty sample.
inline double Pct(const std::vector<double>& v, double p) {
  if (v.empty()) return std::nan("");
  return amf::common::Percentile(v, p);
}

inline double MedianOf(const std::vector<double>& v) { return Pct(v, 50.0); }

}  // namespace perfbench
