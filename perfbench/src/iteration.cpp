#include "iteration.hpp"

#include <functional>
#include <stdexcept>

#include "exp/sweep.hpp"

namespace perfbench {

using namespace colibri;

namespace {

/// Requests per adapter replay and timed passes over them.
constexpr std::uint64_t kAdapterRequests = 100'000;
constexpr int kAdapterPasses = 5;

void replayLayers(const Workload& w, SpanLog& log, std::uint64_t seed,
                  IterationResult& r) {
  const std::uint64_t sims = r.sims.size();
  std::array<std::uint64_t, 3> mix{r.layers.msgsLocal, r.layers.msgsGroup,
                                   r.layers.msgsRemote};
  std::uint64_t cycles = 0;
  for (const auto& s : r.sims) {
    cycles += s.finalCycle;
  }
  {
    const ScopedSpan s(&log, "replay.net.route", -1, -1);
    r.route = replayRoute(w.specs.front().config,
                          (mix[0] + mix[1] + mix[2]) / sims, mix,
                          cycles / sims, seed);
  }
  for (const auto& name : replayAdapters()) {
    const ScopedSpan s(&log, "replay.atomics." + name, -1, -1);
    r.handle[name] =
        replayAdapter(name, kAdapterRequests, seed, kAdapterPasses);
  }
}

}  // namespace

IterationResult runIteration(const Workload& w, unsigned workers,
                             SpanLog* log, std::uint64_t seed) {
  if (log != nullptr && workers != 1) {
    throw std::invalid_argument("traced iterations run on one worker");
  }
  IterationResult r;
  r.workers = workers;
  std::vector<sim::DispatchRecord> dispatch;
  std::vector<int> roots(w.specs.size(), -1);
  double replayS = 0.0;

  const auto t0 = Clock::now();
  exp::SweepRunner runner(workers);
  std::vector<std::function<SimOutcome()>> jobs;
  jobs.reserve(w.specs.size());
  for (std::size_t i = 0; i < w.specs.size(); ++i) {
    jobs.emplace_back([&, i] {
      if (log == nullptr) {
        return simulate(w.specs[i]);
      }
      TraceSink sink{log, log->nextSimId(), &dispatch};
      SimOutcome out = simulate(w.specs[i], &sink);
      roots[i] = sink.rootSpan;
      const auto q0 = Clock::now();
      {
        const ScopedSpan s(log, "replay.sim.queue", -1, sink.simId);
        const ReplayTiming q =
            replayQueue(dispatch, w.specs[i].config.numCores);
        r.queue.seconds += q.seconds;
        r.queue.items += q.items;
      }
      replayS += secondsBetween(q0, Clock::now());
      return out;
    });
  }
  r.sims = runner.map<SimOutcome>(std::move(jobs));
  for (const auto& s : r.sims) {
    r.busyS += s.totalS;
    r.coreCycles += static_cast<double>(s.cores) *
                    static_cast<double>(s.finalCycle);
    r.failed += s.ok() ? 0 : 1;
    digestOutcome(r.digest, s);
  }
  r.wallS = secondsBetween(t0, Clock::now()) - replayS;

  if (log != nullptr) {
    for (std::size_t i = 0; i < r.sims.size(); ++i) {
      r.layers += r.sims[i].layers;
      digestLayers(r.layerDigest, r.sims[i].layers);
      if (roots[i] < 0) {
        r.spanErrors.push_back(r.sims[i].label + ": no root span");
        continue;
      }
      if (std::string e = log->checkRoot(roots[i]); !e.empty()) {
        r.spanErrors.push_back(r.sims[i].label + ": " + e);
      }
      for (const int c : log->children(roots[i])) {
        if (log->spans()[static_cast<std::size_t>(c)].name == "workload.run") {
          r.runSelfS += static_cast<double>(log->selfNs(c)) * 1e-9;
        }
      }
    }
    replayLayers(w, *log, seed, r);
  }
  return r;
}

}  // namespace perfbench
