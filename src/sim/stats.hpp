// Measurement utilities.
//
// The paper's evaluation reports steady-state rates (updates/cycle,
// accesses/cycle) and fairness (per-core min/max spread). WindowedCounter
// supports warmup-then-measure: events before the window opens are counted
// separately and excluded from the reported rate. Summary computes the
// descriptive statistics the figures need; CycleSamples collects the
// cycle counts (latencies, waits) it is computed over.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/types.hpp"

namespace colibri::sim {

/// Counts discrete completions, split at a measurement-window boundary.
class WindowedCounter {
 public:
  /// Open the measurement window at cycle `start` (events strictly before
  /// `start` are warmup). Window closes at `end` (events at/after `end`
  /// are cooldown). Defaults measure everything.
  void setWindow(Cycle start, Cycle end) {
    windowStart_ = start;
    windowEnd_ = end;
  }

  void record(Cycle at, std::uint64_t n = 1) {
    total_ += n;
    if (at >= windowStart_ && at < windowEnd_) {
      inWindow_ += n;
    }
  }

  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t inWindow() const { return inWindow_; }
  [[nodiscard]] Cycle windowStart() const { return windowStart_; }
  [[nodiscard]] Cycle windowEnd() const { return windowEnd_; }

  /// Events per cycle over the (clamped) window; `simEnd` caps the window
  /// if the simulation stopped early.
  [[nodiscard]] double rate(Cycle simEnd) const {
    const Cycle end = std::min(windowEnd_, simEnd);
    if (end <= windowStart_) {
      return 0.0;
    }
    return static_cast<double>(inWindow_) /
           static_cast<double>(end - windowStart_);
  }

 private:
  Cycle windowStart_ = 0;
  Cycle windowEnd_ = kCycleNever;
  std::uint64_t total_ = 0;
  std::uint64_t inWindow_ = 0;
};

/// Descriptive statistics over a sample (per-core op counts, latencies...).
struct Summary {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  double median = 0.0;
  double p50 = 0.0;  ///< == median (both kept: median predates percentiles)
  double p95 = 0.0;
  double p99 = 0.0;
  std::size_t count = 0;

  static Summary of(std::span<const double> xs);
  static Summary ofCounts(std::span<const std::uint64_t> xs);

  /// Linearly interpolated quantile over an *ascending-sorted* sample;
  /// q in [0, 1]. Empty samples yield 0.
  static double percentileSorted(std::span<const double> sorted, double q);

  /// Jain's fairness index: 1.0 = perfectly fair, 1/n = maximally unfair.
  static double jainIndex(std::span<const std::uint64_t> xs);
};

/// Exact sample of cycle counts (op latencies, lock waits) in bounded
/// memory. Values below kDenseBound are counted in a fixed dense array;
/// the rare longer ones go into a plain list that summary() sorts once.
/// summary() equals Summary::of over the same values bit for bit.
class CycleSamples {
 public:
  static constexpr Cycle kDenseBound = 4096;

  CycleSamples() : dense_(kDenseBound, 0) {}

  void add(Cycle c) {
    ++count_;
    if (c < kDenseBound) {
      ++dense_[c];
    } else {
      long_.push_back(c);
    }
  }

  /// Heap bytes held: the dense array plus the list of long values.
  [[nodiscard]] std::size_t heapBytes() const {
    return dense_.capacity() * sizeof(std::uint64_t) +
           long_.capacity() * sizeof(Cycle);
  }

  /// Summary of every value added so far (sorts the long list in place).
  [[nodiscard]] Summary summary();

 private:
  std::vector<std::uint64_t> dense_;  // dense_[c] = occurrences of c
  std::vector<Cycle> long_;           // values >= kDenseBound
  std::size_t count_ = 0;
};

/// Online accumulator for streaming samples (latency distributions).
class Accumulator {
 public:
  void add(double x) {
    ++n_;
    sum_ += x;
    sumSq_ += x * x;
    min_ = n_ == 1 ? x : std::min(min_, x);
    max_ = n_ == 1 ? x : std::max(max_, x);
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double stddev() const;

 private:
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double sumSq_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace colibri::sim
