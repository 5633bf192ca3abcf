#include "driver.hpp"

#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <variant>

#include "arch/system.hpp"
#include "model/energy.hpp"
#include "obs/recorder.hpp"
#include "sim/framepool.hpp"

namespace perfbench {

using namespace colibri;

namespace {

/// Run the spec's workload on a built System (the exp::runOne dispatch,
/// restricted to the families the benchmark uses).
struct RunWorkload {
  arch::System& sys;
  const workloads::MeasureWindow& window;
  SimOutcome& out;

  void take(const workloads::RateResult& r) const {
    out.windowOps = r.opsInWindow;
    out.opsPerCycle = r.opsPerCycle;
    out.counters = r.counters;
  }

  void operator()(workloads::HistogramParams p) const {
    p.window = window;
    const auto r = workloads::runHistogram(sys, p);
    take(r.rate);
    out.verified = r.sumVerified;
  }
  void operator()(workloads::QueueParams p) const {
    p.window = window;
    const auto r = workloads::runQueue(sys, p);
    take(r.rate);
    out.verified = r.fifoVerified;
  }
  void operator()(workloads::ProdConsParams p) const {
    p.window = window;
    const auto r = workloads::runProdCons(sys, p);
    out.windowOps = r.itemsInWindow;
    out.opsPerCycle = r.itemsPerCycle;
    out.counters = r.counters;
    out.verified = r.allItemsSeen;
  }
  void operator()(wgen::WgenParams p) const {
    p.window = window;
    const auto r = wgen::runKernel(sys, p);
    take(r.rate);
    out.verified = r.sumVerified;
  }
  template <typename Other>
  void operator()(const Other&) const {
    throw std::invalid_argument(
        "perfbench drives histogram, wgen, msqueue and prodcons only");
  }
};

std::uint64_t count(const std::map<std::string, double>& m,
                    const std::string& name) {
  const auto it = m.find(name);
  if (it == m.end()) {
    throw std::runtime_error("obs registry has no metric '" + name + "'");
  }
  return static_cast<std::uint64_t>(it->second);
}

/// Exact counts from the recorder's closing snapshot; the System is still
/// alive, so gauge probes can be read directly.
LayerCounts readLayers(const obs::Recorder& rec, arch::System& sys,
                       std::uint64_t heapBase) {
  std::map<std::string, double> m;
  const obs::Registry& reg = rec.registry();
  for (const auto& info : reg.metrics()) {
    if (info.kind == obs::MetricKind::kCounter) {
      m[info.name] =
          static_cast<double>(reg.counterTotal(obs::MetricId{info.cell}));
    } else if (info.kind == obs::MetricKind::kGauge) {
      m[info.name] = reg.gaugeValue(info.cell);
    }
  }
  LayerCounts c;
  c.events = count(m, "engine.executedEvents");
  c.frames = count(m, "framepool.frames");
  c.heapFrames = count(m, "framepool.heapFrames") - heapBase;
  c.msgsLocal = count(m, "net.msgsLocalTile");
  c.msgsGroup = count(m, "net.msgsSameGroup");
  c.msgsRemote = count(m, "net.msgsRemoteGroup");
  c.queueingCycles = count(m, "net.queueingDelay");
  c.bankRequests = count(m, "bank.requests");
  c.lrGrants = count(m, "adapter.lrGrants");
  c.lrFails = count(m, "adapter.lrFails");
  c.scSuccesses = count(m, "adapter.scSuccesses");
  c.scFailures = count(m, "adapter.scFailures");
  c.issuedOps = count(m, "core.issuedOps");
  c.retries = count(m, "sync.rmwRetries") + count(m, "sync.casRetries");
  std::uint64_t successorUpdates = 0;
  for (std::uint32_t b = 0; b < sys.numBanks(); ++b) {
    successorUpdates += sys.bank(b).adapter().stats().successorUpdates;
  }
  c.wakeups = successorUpdates + count(m, "adapter.wakeUpRequests") +
              count(m, "adapter.mwaitWakes");
  return c;
}

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001b3ULL;
  }
}

}  // namespace

LayerCounts& LayerCounts::operator+=(const LayerCounts& o) {
  events += o.events;
  frames += o.frames;
  heapFrames += o.heapFrames;
  msgsLocal += o.msgsLocal;
  msgsGroup += o.msgsGroup;
  msgsRemote += o.msgsRemote;
  queueingCycles += o.queueingCycles;
  bankRequests += o.bankRequests;
  wakeups += o.wakeups;
  lrGrants += o.lrGrants;
  lrFails += o.lrFails;
  scSuccesses += o.scSuccesses;
  scFailures += o.scFailures;
  issuedOps += o.issuedOps;
  retries += o.retries;
  return *this;
}

SimOutcome simulate(const exp::RunSpec& spec, TraceSink* trace) {
  SimOutcome out;
  out.label = spec.label;
  arch::SystemConfig cfg = spec.config;
  cfg.seed = spec.seed;
  out.cores = cfg.numCores;

  SpanLog* log = trace != nullptr ? trace->log : nullptr;
  const std::int64_t simId = trace != nullptr ? trace->simId : -1;
  // Declared before the System: the System detaches from it on teardown.
  std::optional<obs::Recorder> rec;
  std::uint64_t heapBase = 0;
  if (trace != nullptr) {
    rec.emplace();
    rec->beginRun();
    cfg.recorder = &*rec;
    heapBase = sim::framepool::heapFrameCount();
  }

  const ScopedSpan root(log, "sim", -1, simId);
  if (trace != nullptr) {
    trace->rootSpan = root.index();
  }
  const auto start = Clock::now();
  auto built = start;
  auto teardown = start;
  try {
    std::unique_ptr<arch::System> sys;
    {
      const ScopedSpan s(log, "arch.build", root.index(), simId);
      sys = std::make_unique<arch::System>(cfg);
    }
    built = Clock::now();
    if (trace != nullptr && trace->dispatch != nullptr) {
      trace->dispatch->clear();
      sys->engine().setTrace(trace->dispatch);
    }
    {
      const ScopedSpan s(log, "workload.run", root.index(), simId);
      std::visit(RunWorkload{*sys, spec.window, out}, spec.params);
    }
    {
      const ScopedSpan s(log, "model.eval", root.index(), simId);
      sys->engine().setTrace(nullptr);
      out.finalCycle = sys->now();
      out.events = sys->engine().executedEvents();
      out.energyPerOpPj = model::energyPerOp(out.counters, out.windowOps);
      if (rec) {
        rec->finalize(sys->now());
        out.layers = readLayers(*rec, *sys, heapBase);
      }
    }
    teardown = Clock::now();
    {
      const ScopedSpan s(log, "arch.teardown", root.index(), simId);
      sys.reset();
    }
  } catch (const std::exception& e) {
    out.error = e.what();
    out.verified = false;
  }
  const auto done = Clock::now();
  out.buildS = secondsBetween(start, built);
  out.teardownS = secondsBetween(teardown, done);
  out.totalS = secondsBetween(start, done);
  return out;
}

void digestOutcome(std::uint64_t& h, const SimOutcome& o) {
  const auto& c = o.counters;
  for (const std::uint64_t v :
       {o.windowOps, static_cast<std::uint64_t>(o.finalCycle), o.events,
        static_cast<std::uint64_t>(o.verified), c.instructions,
        c.computeCycles, c.sleepCycles, c.stallCycles, c.bankAccesses,
        c.netMessages[0], c.netMessages[1], c.netMessages[2],
        static_cast<std::uint64_t>(c.windowCycles),
        static_cast<std::uint64_t>(c.activeCores)}) {
    mix(h, v);
  }
}

void digestLayers(std::uint64_t& h, const LayerCounts& c) {
  for (const std::uint64_t v :
       {c.events, c.frames, c.heapFrames, c.msgsLocal, c.msgsGroup,
        c.msgsRemote, c.queueingCycles, c.bankRequests, c.wakeups,
        c.lrGrants, c.lrFails, c.scSuccesses, c.scFailures, c.issuedOps,
        c.retries}) {
    mix(h, v);
  }
}

}  // namespace perfbench
