// perfbench_selftest: the benchmark's own checks.
//
// 1. Split-driver equivalence: for one spec of each workload family the
//    benchmark uses (histogram, wgen, msqueue, prodcons), its build -> run
//    -> teardown path, untraced and traced, gives exactly what
//    exp::runOne gives for the same spec and seed: window ops, every
//    SystemCounters field, `verified` and the final simulated cycle.
// 2. fig3_sweep gives identical per-simulation results on 1 and 2
//    SweepRunner workers.
// 3. A traced contended_sync iteration simulates exactly what an
//    untraced one does, and its span checks and layer replays pass.
// 4. Span self times add up to their root; an escaping child is caught.
//
// Exits 0 when every check passes, 1 otherwise.
#include <iostream>
#include <sstream>
#include <string>

#include "iteration.hpp"
#include "obs/recorder.hpp"

using namespace perfbench;
using namespace colibri;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

/// The final simulated cycle of an exp::runOne run: the cycle column of
/// its recorder's closing snapshot.
sim::Cycle finalCycleOf(const obs::Recorder& rec) {
  std::ostringstream csv;
  rec.writeMetricsCsv(csv);
  std::string line;
  std::string last;
  std::istringstream in(csv.str());
  while (std::getline(in, line)) {
    if (!line.empty()) {
      last = line;
    }
  }
  return std::stoull(last.substr(0, last.find(',')));
}

bool sameCounters(const workloads::SystemCounters& a,
                  const workloads::SystemCounters& b) {
  return a.instructions == b.instructions &&
         a.computeCycles == b.computeCycles &&
         a.sleepCycles == b.sleepCycles && a.stallCycles == b.stallCycles &&
         a.bankAccesses == b.bankAccesses && a.netMessages == b.netMessages &&
         a.windowCycles == b.windowCycles && a.activeCores == b.activeCores;
}

void checkEquivalent(const exp::RunSpec& spec) {
  exp::RunSpec observed = spec;
  obs::Recorder rec;
  observed.config.recorder = &rec;
  const exp::RunResult ref = exp::runOne(observed);
  const sim::Cycle refCycle = finalCycleOf(rec);

  SpanLog log;
  std::vector<sim::DispatchRecord> dispatch;
  TraceSink sink{&log, log.nextSimId(), &dispatch};
  const SimOutcome plain = simulate(spec);
  const SimOutcome traced = simulate(spec, &sink);
  for (const SimOutcome* o : {&plain, &traced}) {
    const std::string what =
        spec.label + (o == &traced ? " (traced)" : " (untraced)");
    check(o->error.empty(), what + ": threw " + o->error);
    check(o->verified && ref.verified, what + ": verified");
    check(o->windowOps == ref.rate.opsInWindow, what + ": window ops");
    check(sameCounters(o->counters, ref.rate.counters),
          what + ": SystemCounters");
    check(o->finalCycle == refCycle, what + ": final cycle");
    check(o->opsPerCycle == ref.rate.opsPerCycle, what + ": ops/cycle");
    check(o->energyPerOpPj == ref.energyPerOpPj, what + ": energy/op");
  }
  check(traced.layers.events == traced.events && traced.events > 0,
        spec.label + ": registry event count matches the engine");
  check(dispatch.size() == traced.events,
        spec.label + ": dispatch record holds every event");
  check(log.checkRoot(sink.rootSpan).empty(),
        spec.label + ": span self times sum to the root");
  std::cout << "equivalent: " << spec.label << " (" << traced.events
            << " events, final cycle " << traced.finalCycle << ")\n";
}

const exp::RunSpec& specNamed(const Workload& w, const std::string& label) {
  for (const auto& s : w.specs) {
    if (s.label == label) {
      return s;
    }
  }
  throw std::invalid_argument("no spec " + label + " in " + w.name);
}

void checkSweepWorkers(std::uint64_t seed) {
  const Workload w = makeWorkload("fig3_sweep", seed);
  const IterationResult one = runIteration(w, 1, nullptr, seed);
  const IterationResult two = runIteration(w, 2, nullptr, seed);
  check(one.failed == 0 && two.failed == 0, "fig3_sweep: all points pass");
  check(one.sims.size() == two.sims.size(), "fig3_sweep: point count");
  for (std::size_t i = 0; i < one.sims.size() && i < two.sims.size(); ++i) {
    const SimOutcome& a = one.sims[i];
    const SimOutcome& b = two.sims[i];
    check(a.label == b.label && a.windowOps == b.windowOps &&
              a.finalCycle == b.finalCycle && a.events == b.events &&
              a.verified == b.verified &&
              sameCounters(a.counters, b.counters),
          "fig3_sweep: " + a.label + " differs between 1 and 2 workers");
  }
  check(one.digest == two.digest, "fig3_sweep: digest, 1 vs 2 workers");
  std::cout << "fig3_sweep identical on 1 and 2 workers ("
            << one.sims.size() << " points)\n";
}

void checkTracedIteration(std::uint64_t seed) {
  const Workload w = makeWorkload("contended_sync", seed);
  SpanLog log;
  const IterationResult plain = runIteration(w, 1, nullptr, seed);
  const IterationResult traced = runIteration(w, 1, &log, seed);
  check(traced.failed == 0 && plain.failed == 0,
        "contended_sync: all simulations pass");
  check(traced.digest == plain.digest,
        "contended_sync: tracing changed the simulated behaviour");
  check(traced.spanErrors.empty(), "contended_sync: span checks");
  check(traced.queue.items == traced.layers.events,
        "contended_sync: queue replay ran every recorded event");
  check(traced.route.items > 0, "contended_sync: route replay ran");
  check(traced.handle.size() == replayAdapters().size(),
        "contended_sync: every adapter replayed");
  check(traced.layers.retries > 0 && traced.layers.wakeups > 0,
        "contended_sync: retries and wake-ups happen");
  std::cout << "contended_sync traced iteration matches the untraced one\n";
}

void checkSpans() {
  SpanLog log;
  const int root = log.open("root", -1, 0);
  const int a = log.open("a", root, 0);
  log.close(a);
  const int b = log.open("b", root, 0);
  log.close(b);
  log.close(root);
  check(log.checkRoot(root).empty(), "spans: nested children are consistent");
  check(log.selfNs(root) + log.selfNs(a) + log.selfNs(b) ==
            log.spans()[static_cast<std::size_t>(root)].durationNs(),
        "spans: self times sum to the root");

  const int outer = log.open("outer", -1, 1);
  log.close(outer);
  const int late = log.open("late", outer, 1);  // starts after outer ended
  log.close(late);
  check(!log.checkRoot(outer).empty(), "spans: escaping child detected");
}

}  // namespace

int main() {
  try {
    constexpr std::uint64_t kSeed = 0xC011B21;
    const Workload fig3 = makeWorkload("fig3_sweep", kSeed);
    const Workload uniform = makeWorkload("uniform_1k", kSeed);
    const Workload sync = makeWorkload("contended_sync", kSeed);
    checkEquivalent(specNamed(fig3, kFig3Colibri1));      // histogram
    checkEquivalent(specNamed(fig3, kFig3Lrsc1));         // histogram
    checkEquivalent(uniform.specs.front());               // wgen
    checkEquivalent(specNamed(sync, "lrsc_single/msqueue"));  // queue
    checkEquivalent(specNamed(sync, "colibri/prodcons"));     // prodcons
    checkSweepWorkers(kSeed);
    checkTracedIteration(kSeed);
    checkSpans();
  } catch (const std::exception& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    return 1;
  }
  if (failures != 0) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench selftest: all checks passed\n";
  return 0;
}
