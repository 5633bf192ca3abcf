#include "sim/stats.hpp"

namespace colibri::sim {

Summary Summary::of(std::span<const double> xs) {
  std::vector<double> copy(xs.begin(), xs.end());
  return ofInPlace(copy);
}

Summary Summary::ofInPlace(std::span<double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) {
    return s;
  }
  std::sort(xs.begin(), xs.end());
  const std::span<const double> sorted = xs;
  s.min = sorted.front();
  s.max = sorted.back();
  double sum = 0.0;
  for (double x : sorted) {
    sum += x;
  }
  s.mean = sum / static_cast<double>(sorted.size());
  double var = 0.0;
  for (double x : sorted) {
    var += (x - s.mean) * (x - s.mean);
  }
  s.stddev = std::sqrt(var / static_cast<double>(sorted.size()));
  const std::size_t mid = sorted.size() / 2;
  s.median = sorted.size() % 2 == 1
                 ? sorted[mid]
                 : 0.5 * (sorted[mid - 1] + sorted[mid]);
  s.p50 = percentileSorted(sorted, 0.50);
  s.p95 = percentileSorted(sorted, 0.95);
  s.p99 = percentileSorted(sorted, 0.99);
  return s;
}

double Summary::percentileSorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  if (q <= 0.0) {
    return sorted.front();
  }
  if (q >= 1.0) {
    return sorted.back();
  }
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= sorted.size()) {
    return sorted.back();
  }
  return sorted[lo] + (sorted[lo + 1] - sorted[lo]) *
                          (pos - static_cast<double>(lo));
}

Summary Summary::ofCounts(std::span<const std::uint64_t> xs) {
  std::vector<double> d(xs.begin(), xs.end());
  return of(d);
}

double Summary::jainIndex(std::span<const std::uint64_t> xs) {
  if (xs.empty()) {
    return 1.0;
  }
  double sum = 0.0;
  double sumSq = 0.0;
  for (std::uint64_t x : xs) {
    const double d = static_cast<double>(x);
    sum += d;
    sumSq += d * d;
  }
  if (sumSq == 0.0) {
    return 1.0;
  }
  return (sum * sum) / (static_cast<double>(xs.size()) * sumSq);
}

double Accumulator::stddev() const {
  if (n_ < 2) {
    return 0.0;
  }
  const double m = mean();
  const double var = sumSq_ / static_cast<double>(n_) - m * m;
  return var > 0.0 ? std::sqrt(var) : 0.0;
}

}  // namespace colibri::sim
