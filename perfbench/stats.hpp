// Timing and sample statistics for the benchmark.
//
// A tail percentile is reported only when at least ten samples lie beyond
// it (p99 needs n >= 1000); callers that must still print a number for a
// small sample use tail_or_max() and say so in the label.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds the whole process has used (every thread, user + system).
/// Set-up is timed on this clock: it leaves out time spent waiting for the
/// disk, whose fsync latency on a shared virtual disk drifts by half
/// between runs minutes apart.
inline double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Linear-interpolated quantile of an already sorted, non-empty sample.
inline double sorted_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Median (0 for an empty sample).
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return sorted_quantile(values, 0.5);
}

/// Samples needed beyond a reported percentile.
inline constexpr double kTailSamples = 10.0;

/// The q-quantile, or nullopt when fewer than ten samples lie beyond it.
inline std::optional<double> tail_percentile(std::vector<double> values,
                                             double q) {
  const double beyond = static_cast<double>(values.size()) * (1.0 - q);
  if (values.empty() || beyond + 1e-9 < kTailSamples) return std::nullopt;
  std::sort(values.begin(), values.end());
  return sorted_quantile(values, q);
}

/// A tail figure for the table: the percentile when it is reportable,
/// otherwise the sample maximum, labelled as such.
struct Tail {
  double value = 0.0;
  std::string label;  ///< "p99" or "max (n=8)"
};

inline Tail tail_or_max(const std::vector<double>& values, double q,
                        const std::string& name) {
  if (auto p = tail_percentile(values, q)) return {*p, name};
  const double max =
      values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
  return {max, "max (n=" + std::to_string(values.size()) + ")"};
}

inline double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

}  // namespace perfbench
