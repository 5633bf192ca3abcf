// One iteration of a workload: every spec simulated once through
// exp::SweepRunner, timed from the first library call to the last checked
// result. Traced iterations (one worker) also record spans, exact layer
// counts and the isolated layer replays.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "driver.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

struct IterationResult {
  unsigned workers = 1;
  double wallS = 0.0;   ///< untraced: whole iteration; traced: minus replays
  double busyS = 0.0;   ///< sum of per-simulation (job) host times
  double coreCycles = 0.0;  ///< sum of cores x final simulated cycle
  std::vector<SimOutcome> sims;
  std::uint64_t digest = kDigestBasis;  ///< simulated behaviour
  std::uint64_t failed = 0;

  // --- Traced iterations only ----------------------------------------------
  LayerCounts layers{};
  std::uint64_t layerDigest = kDigestBasis;
  double runSelfS = 0.0;  ///< sum of workload.run span self times
  std::vector<std::string> spanErrors;
  ReplayTiming queue{};
  ReplayTiming route{};
  std::map<std::string, ReplayTiming> handle;
};

/// Run every spec once on `workers` SweepRunner workers. With `log` set
/// (one worker only) the iteration is traced and replays each layer.
[[nodiscard]] IterationResult runIteration(const Workload& w,
                                           unsigned workers, SpanLog* log,
                                           std::uint64_t seed);

}  // namespace perfbench
