// Sample arithmetic for the benchmark: quantiles, clocks and ratios.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nanoseconds on the process-wide steady clock. Client threads, server
/// workers and procedure bodies all run in this one process, so spans
/// recorded on different threads share one time base.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nearest-rank quantile: the smallest sample with at least q of the
/// samples at or below it. Reorders `v` (nth_element); 0 when empty.
inline uint64_t Quantile(std::vector<uint64_t>& v, double q) {
  if (v.empty()) return 0;
  double rank = std::ceil(q * static_cast<double>(v.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  if (idx >= v.size()) idx = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

inline double NsToUs(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// a / b, or 0 when b is 0 (a per-layer ratio whose base did not occur on
/// this workload, e.g. lock waits under MV).
inline double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

}  // namespace perfbench
