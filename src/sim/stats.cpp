#include "sim/stats.hpp"

namespace colibri::sim {

namespace {

/// Linearly interpolated quantile over `n` ascending values, where at(i)
/// is the i-th smallest.
template <typename At>
double percentileAt(std::size_t n, const At& at, double q) {
  if (n == 0) {
    return 0.0;
  }
  if (q <= 0.0) {
    return at(0);
  }
  if (q >= 1.0) {
    return at(n - 1);
  }
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= n) {
    return at(n - 1);
  }
  const double a = at(lo);
  return a + (at(lo + 1) - a) * (pos - static_cast<double>(lo));
}

/// Summary of `n` values given in ascending order: at(i) is the i-th
/// smallest, and forEach(f) calls f on every value, smallest first. Sum and
/// variance add the values in that order, so any two representations of
/// the same multiset summarize bit for bit alike.
template <typename At, typename ForEach>
Summary summarizeAscending(std::size_t n, const At& at,
                           const ForEach& forEach) {
  Summary s;
  s.count = n;
  if (n == 0) {
    return s;
  }
  s.min = at(0);
  s.max = at(n - 1);
  double sum = 0.0;
  forEach([&sum](double x) { sum += x; });
  s.mean = sum / static_cast<double>(n);
  double var = 0.0;
  forEach([&var, mean = s.mean](double x) { var += (x - mean) * (x - mean); });
  s.stddev = std::sqrt(var / static_cast<double>(n));
  const std::size_t mid = n / 2;
  s.median = n % 2 == 1 ? at(mid) : 0.5 * (at(mid - 1) + at(mid));
  s.p50 = percentileAt(n, at, 0.50);
  s.p95 = percentileAt(n, at, 0.95);
  s.p99 = percentileAt(n, at, 0.99);
  return s;
}

}  // namespace

Summary Summary::of(std::span<const double> xs) {
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  return summarizeAscending(
      sorted.size(), [&sorted](std::size_t i) { return sorted[i]; },
      [&sorted](const auto& f) {
        for (double x : sorted) {
          f(x);
        }
      });
}

double Summary::percentileSorted(std::span<const double> sorted, double q) {
  return percentileAt(
      sorted.size(), [sorted](std::size_t i) { return sorted[i]; }, q);
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

Summary CycleSamples::summary() {
  std::sort(long_.begin(), long_.end());
  const std::size_t denseCount = count_ - long_.size();
  const auto at = [this, denseCount](std::size_t i) {
    if (i >= denseCount) {
      return static_cast<double>(long_[i - denseCount]);
    }
    for (Cycle c = 0;; ++c) {
      if (i < dense_[c]) {
        return static_cast<double>(c);
      }
      i -= dense_[c];
    }
  };
  const auto forEach = [this](const auto& f) {
    for (Cycle c = 0; c < kDenseBound; ++c) {
      const auto x = static_cast<double>(c);
      for (std::uint64_t k = dense_[c]; k > 0; --k) {
        f(x);
      }
    }
    for (Cycle c : long_) {
      f(static_cast<double>(c));
    }
  };
  return summarizeAscending(count_, at, forEach);
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
