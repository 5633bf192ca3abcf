// The benchmark's split simulation driver: build -> run -> evaluate ->
// teardown of one exp::RunSpec, each phase timed from outside the
// library. It mirrors exp::runOne for the workload families the
// benchmark uses (histogram, wgen, msqueue, prodcons) and must give the
// same results; perfbench_selftest checks that.
//
// Traced simulations additionally attach an obs::Recorder (closing
// snapshot only: no sampling, no tracer) for exact per-layer counts,
// open spans around every phase, and can capture the engine's dispatch
// record for the event-queue replay.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/run.hpp"
#include "sim/engine.hpp"
#include "spans.hpp"
#include "workloads/harness.hpp"

namespace perfbench {

/// Exact per-layer counts of one simulation, read from the Recorder's
/// registry (and the adapters' own stats for successor updates) before
/// teardown. Deterministic: identical on every rerun of the same spec.
struct LayerCounts {
  std::uint64_t events = 0;
  std::uint64_t frames = 0;
  std::uint64_t heapFrames = 0;
  std::uint64_t msgsLocal = 0;
  std::uint64_t msgsGroup = 0;
  std::uint64_t msgsRemote = 0;
  std::uint64_t queueingCycles = 0;
  std::uint64_t bankRequests = 0;
  std::uint64_t wakeups = 0;  ///< successor updates + wake-ups + Mwait wakes
  std::uint64_t lrGrants = 0;
  std::uint64_t lrFails = 0;
  std::uint64_t scSuccesses = 0;
  std::uint64_t scFailures = 0;
  std::uint64_t issuedOps = 0;
  std::uint64_t retries = 0;  ///< RMW + CAS retries

  LayerCounts& operator+=(const LayerCounts& o);
};

/// What one simulation produced, plus its host phase times.
struct SimOutcome {
  std::string label;
  std::string error;  ///< non-empty if the simulation threw
  bool verified = false;
  std::uint64_t windowOps = 0;
  double opsPerCycle = 0.0;
  double energyPerOpPj = 0.0;
  colibri::workloads::SystemCounters counters{};
  colibri::sim::Cycle finalCycle = 0;
  std::uint64_t events = 0;
  std::uint32_t cores = 0;
  LayerCounts layers{};  ///< traced simulations only

  double buildS = 0.0;
  double teardownS = 0.0;
  double totalS = 0.0;

  [[nodiscard]] bool ok() const { return error.empty() && verified; }
};

/// Tracing attachments for one simulation (all optional).
struct TraceSink {
  SpanLog* log = nullptr;
  std::int64_t simId = -1;
  /// When set, receives the engine's (cycle, seq) dispatch record.
  std::vector<colibri::sim::DispatchRecord>* dispatch = nullptr;
  /// Index of the simulation's root span, set by simulate().
  int rootSpan = -1;
};

/// Run one repetition-0 simulation of `spec` (seed = spec.seed) with the
/// benchmark's own build/run/teardown path. Never throws for simulation
/// failures: they are reported in SimOutcome::error.
[[nodiscard]] SimOutcome simulate(const colibri::exp::RunSpec& spec,
                                  TraceSink* trace = nullptr);

/// FNV-1a offset basis: the starting value of a digest.
inline constexpr std::uint64_t kDigestBasis = 0xcbf29ce484222325ULL;

/// FNV-1a accumulation over the simulated behaviour of a simulation:
/// window ops, final cycle, executed events, verification and every
/// SystemCounters field. Layer counts are mixed in by digestLayers.
void digestOutcome(std::uint64_t& h, const SimOutcome& o);
void digestLayers(std::uint64_t& h, const LayerCounts& c);

}  // namespace perfbench
