#include "spans.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

namespace perfbench {

std::int64_t SpanLog::sinceEpoch() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int SpanLog::open(std::string name, int parent, std::int64_t sim) {
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::move(name), sinceEpoch(), 0, parent, sim});
  children_.emplace_back();
  if (parent >= 0) {
    children_[static_cast<std::size_t>(parent)].push_back(index);
  }
  return index;
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].endNs = sinceEpoch();
}

std::int64_t SpanLog::selfNs(int index) const {
  const Span& s = spans_[static_cast<std::size_t>(index)];
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (const int c : children_[static_cast<std::size_t>(index)]) {
    const Span& k = spans_[static_cast<std::size_t>(c)];
    cover.emplace_back(std::max(k.startNs, s.startNs),
                       std::min(k.endNs, s.endNs));
  }
  std::sort(cover.begin(), cover.end());
  std::int64_t covered = 0;
  std::int64_t reach = s.startNs;
  for (const auto& [lo, hi] : cover) {
    const std::int64_t from = std::max(lo, reach);
    if (hi > from) {
      covered += hi - from;
      reach = hi;
    }
  }
  return s.durationNs() - covered;
}

std::int64_t SpanLog::subtreeSelfNs(int index) const {
  std::int64_t sum = selfNs(index);
  for (const int c : children_[static_cast<std::size_t>(index)]) {
    sum += subtreeSelfNs(c);
  }
  return sum;
}

std::string SpanLog::checkRoot(int root) const {
  std::vector<int> stack{root};
  while (!stack.empty()) {
    const int i = stack.back();
    stack.pop_back();
    const Span& s = spans_[static_cast<std::size_t>(i)];
    if (s.endNs < s.startNs) {
      return "span '" + s.name + "' ends before it starts";
    }
    for (const int c : children_[static_cast<std::size_t>(i)]) {
      const Span& k = spans_[static_cast<std::size_t>(c)];
      if (k.startNs < s.startNs || k.endNs > s.endNs) {
        return "span '" + k.name + "' escapes its parent '" + s.name + "'";
      }
      stack.push_back(c);
    }
  }
  const std::int64_t total = spans_[static_cast<std::size_t>(root)]
                                 .durationNs();
  if (subtreeSelfNs(root) != total) {
    return "self times of '" + spans_[static_cast<std::size_t>(root)].name +
           "' do not sum to its duration";
  }
  return {};
}

void SpanLog::writeChromeTrace(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << static_cast<double>(s.startNs) / 1e3
       << ",\"dur\":" << static_cast<double>(s.durationNs()) / 1e3
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"sim\":" << s.sim << "}}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
