// The benchmark's workloads: fixed lists of exp::RunSpec generated from
// the benchmark seed, and how many SweepRunner workers run them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/run.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  std::vector<colibri::exp::RunSpec> specs;
  /// SweepRunner workers of the untraced (production) iterations.
  unsigned workers = 1;
  /// Per-simulation tail percentile reported as sim_tail_ms. Pinned per
  /// workload so the statistic does not change with host speed; the
  /// benchmark checks that at least ten simulations lie beyond it and
  /// falls back to a lower percentile (and records it) when not.
  double tailPercentile = 90.0;
};

/// Names of every workload, in presentation order.
[[nodiscard]] const std::vector<std::string>& workloadNames();

/// Build a workload's specs from the benchmark seed; throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] Workload makeWorkload(const std::string& name,
                                    std::uint64_t seed);

/// fig3_sweep point labels of the 1-bin Colibri and LRSC histograms (the
/// pair behind the paper's 6.5x throughput and 7.1x energy claims).
inline constexpr const char* kFig3Colibri1 = "Colibri/1";
inline constexpr const char* kFig3Lrsc1 = "LRSC/1";

}  // namespace perfbench
