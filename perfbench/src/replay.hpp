// Isolated layer replays: each times one layer's entry point on its own,
// fed a stream shaped like the workload's, outside any System.
//
//   queue   - a bare sim::Engine executing a simulation's dispatch record
//             (Engine::scheduleAt / run) with a bounded number in flight;
//   route   - a standalone arch::Network of the workload's geometry taking
//             a seeded stream with the workload's message count and
//             distance mix (routeRequest / routeResponse);
//   adapter - atomics::makeAdapter(cfg, ctx)->handle(req) over a request
//             stream in which every reservation protocol completes.
//
// Every replay checks its own result and throws std::runtime_error when
// the layer did something other than the recorded stream implies.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/config.hpp"
#include "sim/engine.hpp"

namespace perfbench {

struct ReplayTiming {
  double seconds = 0.0;
  std::uint64_t items = 0;  ///< events / messages / requests replayed

  [[nodiscard]] double nsPerItem() const {
    return items > 0 ? seconds * 1e9 / static_cast<double>(items) : 0.0;
  }
};

/// Replay a dispatch record on a fresh Engine, keeping `inflight` events
/// pending (each executed event schedules the record `inflight` ahead).
[[nodiscard]] ReplayTiming replayQueue(
    const std::vector<colibri::sim::DispatchRecord>& record,
    std::size_t inflight);

/// Route `messages` messages (alternating requests and responses) whose
/// distance classes follow `mix` (local tile, same group, remote group),
/// departing evenly over `cycles` simulated cycles.
[[nodiscard]] ReplayTiming replayRoute(const colibri::arch::SystemConfig& cfg,
                                       std::uint64_t messages,
                                       const std::array<std::uint64_t, 3>& mix,
                                       colibri::sim::Cycle cycles,
                                       std::uint64_t seed);

/// The adapters replayAdapter accepts (registry names).
[[nodiscard]] const std::vector<std::string>& replayAdapters();

/// Replay `requests` bank requests from 256 contending cores through the
/// named adapter; returns the median of `passes` timed passes.
[[nodiscard]] ReplayTiming replayAdapter(const std::string& adapter,
                                         std::uint64_t requests,
                                         std::uint64_t seed, int passes);

}  // namespace perfbench
