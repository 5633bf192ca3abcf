// In-memory span log: the benchmark's tracing, recorded from outside the
// library around each call into a layer.
//
// A span has a name, host start/end (ns since the log's epoch), the index
// of the span that caused it (-1 for a root) and the simulation it belongs
// to (-1 for spans that are not part of one simulation). Spans stay in
// memory while the benchmark runs and are written out once at the end.
// A log is used from one thread only.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsBetween(Clock::time_point a,
                                           Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  int parent = -1;
  std::int64_t sim = -1;

  [[nodiscard]] std::int64_t durationNs() const { return endNs - startNs; }
};

class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  /// Open a span now; returns its index (for close() and as a parent).
  int open(std::string name, int parent, std::int64_t sim);
  void close(int index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<int>& children(int index) const {
    return children_[static_cast<std::size_t>(index)];
  }

  /// A fresh simulation id for the spans of one simulation.
  [[nodiscard]] std::int64_t nextSimId() { return nextSim_++; }

  /// Duration minus the part of its interval the span's children cover.
  [[nodiscard]] std::int64_t selfNs(int index) const;

  /// Sum of self times over the span's whole subtree.
  [[nodiscard]] std::int64_t subtreeSelfNs(int index) const;

  /// Check one root: every descendant lies inside its parent, and the
  /// subtree's self times add up to the root's duration. Returns an
  /// empty string when consistent, else what failed.
  [[nodiscard]] std::string checkRoot(int root) const;

  /// Chrome trace_event JSON (complete events, times in microseconds).
  void writeChromeTrace(std::ostream& os) const;

 private:
  [[nodiscard]] std::int64_t sinceEpoch() const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::vector<int>> children_;
  std::int64_t nextSim_ = 0;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int parent, std::int64_t sim)
      : log_(log),
        index_(log != nullptr ? log->open(std::move(name), parent, sim) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->close(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int index() const { return index_; }

 private:
  SpanLog* log_;
  int index_;
};

}  // namespace perfbench
