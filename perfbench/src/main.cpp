// perfbench: time one workload for a given number of seconds and print its
// end-to-end metrics (--trace 0) or its per-layer metrics (--trace 1).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// Stdout: one `name value unit` line per metric, a `PERFBENCH_RECORD
// {...}` provenance record, and as its last line the result object
// {"correct", "attempted", "failed", "metrics"}. run.py builds and
// drives this program; see README.md for the metric definitions.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "iteration.hpp"
#include "sim/stats.hpp"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string outDir = ".bench_out";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds "
               "<s> --trace <0|1> [--out-dir <dir>]\n";
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  bool haveSeed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
        haveSeed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = std::stoi(value);
      } else if (flag == "--out-dir") {
        a.outDir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.workload.empty() || !haveSeed || !(a.seconds > 0.0) ||
      (a.trace != 0 && a.trace != 1)) {
    usage("--workload, --seed, --seconds > 0 and --trace 0|1 are required");
  }
  return a;
}

/// Refuse to time anything but an optimized, uninstrumented build.
std::string buildProblem() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release") {
    return "CMAKE_BUILD_TYPE is '" + type + "', not Release";
  }
  if (!std::string(PERFBENCH_SANITIZE).empty()) {
    return std::string("built with sanitizers: ") + PERFBENCH_SANITIZE;
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
#ifndef NDEBUG
  return "built without NDEBUG (assertions on)";
#endif
  return {};
}

double percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  return colibri::sim::Summary::percentileSorted(xs, p / 100.0);
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

/// Simulations strictly beyond the p-th percentile rank of n samples.
std::size_t beyond(double p, std::size_t n) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return n - std::min(rank, n);
}

/// The highest percentile, up to the workload's pinned one, that has at
/// least ten simulations beyond it (50 if none has).
double tailPercentile(double pinned, std::size_t n) {
  for (const double p : {99.0, 95.0, 90.0, 75.0}) {
    if (p <= pinned && beyond(p, n) >= 10) {
      return p;
    }
  }
  return 50.0;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  /// Reported in the result's "metrics" object (BENCHMARK.json lists
  /// it); the others appear in the table and the record only.
  bool gated = true;
};

/// Peak resident set of this process in MB: VmHWM of its own address
/// space. (getrusage's ru_maxrss survives exec, so when a larger parent
/// such as run.py's interpreter starts this program it would report the
/// parent's peak.)
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::uint64_t eventsOf(const IterationResult& it) {
  std::uint64_t n = 0;
  for (const auto& s : it.sims) {
    n += s.events;
  }
  return n;
}

double ratio(double num, double den, double ifEmpty) {
  return den > 0.0 ? num / den : ifEmpty;
}

struct Run {
  Workload workload;
  std::vector<IterationResult> production;  // the workload's own workers
  std::vector<IterationResult> baseline;    // untraced, one worker
  std::vector<IterationResult> traced;      // traced, one worker
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
};

void account(Run& run, const IterationResult& it, std::uint64_t digest) {
  run.attempted += it.sims.size();
  run.failed += it.failed;
  for (const auto& s : it.sims) {
    if (!s.ok()) {
      run.problems.push_back(s.label + ": " +
                             (s.error.empty() ? "not verified" : s.error));
    }
  }
  if (it.digest != digest) {
    run.problems.push_back("simulated behaviour differs between iterations");
  }
  for (const auto& e : it.spanErrors) {
    run.problems.push_back("span check: " + e);
  }
}

/// The run's quiet quarter: the fastest quarter of its iterations by
/// wall time (at least one). Other tenants of a shared host only ever
/// add time, in phases of seconds to minutes, so the fast iterations
/// measure the program and the slow ones mostly its neighbours. Used for
/// the iteration-level metrics; per-simulation ones use quietPerSim.
std::vector<const IterationResult*> quietQuarter(
    const std::vector<IterationResult>& its) {
  std::vector<const IterationResult*> quiet;
  for (const auto& it : its) {
    quiet.push_back(&it);
  }
  std::sort(quiet.begin(), quiet.end(),
            [](const auto* a, const auto* b) { return a->wallS < b->wallS; });
  quiet.resize(std::max<std::size_t>(1, (quiet.size() + 3) / 4));
  return quiet;
}

/// Every simulation's quiet quarter: the fastest quarter (at least one)
/// of its repeats' `field`, one list per simulation of the workload.
/// Picking per simulation rather than per iteration keeps a neighbour's
/// burst inside an otherwise fast iteration out of the result, and gives
/// every simulation the same weight.
std::vector<std::vector<double>> quietPerSim(
    const std::vector<IterationResult>& its, double SimOutcome::*field) {
  std::vector<std::vector<double>> quiet(its.front().sims.size());
  for (std::size_t k = 0; k < quiet.size(); ++k) {
    for (const auto& it : its) {
      quiet[k].push_back(it.sims.at(k).*field);
    }
    std::sort(quiet[k].begin(), quiet[k].end());
    quiet[k].resize(std::max<std::size_t>(1, (quiet[k].size() + 3) / 4));
  }
  return quiet;
}

std::vector<Metric> endToEnd(const Run& run, const IterationResult& first) {
  std::vector<double> wall;
  std::vector<double> rate;
  for (const IterationResult* it : quietQuarter(run.production)) {
    wall.push_back(it->wallS);
    rate.push_back(it->coreCycles / it->wallS / 1e6);
  }
  double setup = 0.0;
  for (const auto& builds : quietPerSim(run.production, &SimOutcome::buildS)) {
    setup += median(builds);
  }
  std::vector<double> sims;
  for (const auto& totals : quietPerSim(run.production, &SimOutcome::totalS)) {
    for (const double s : totals) {
      sims.push_back(s * 1e3);
    }
  }
  const double tailPct =
      tailPercentile(run.workload.tailPercentile, sims.size());
  std::vector<Metric> m = {
      {"wall_s", median(wall), "s"},
      {"setup_s", setup, "s"},
      {"sim_p50_ms", median(sims), "ms"},
      {"sim_tail_ms", percentile(sims, tailPct), "ms"},
      {"sim_core_mcycles_per_s", median(rate), "Mcycles/s"},
      {"peak_rss_mb", peakRssMb(), "MB"},
      {"failed_frac",
       ratio(static_cast<double>(run.failed),
             static_cast<double>(run.attempted), 0.0),
       "fraction", false},
      {"sim_tail_pct", tailPct, "percentile", false},
      {"sim_count", static_cast<double>(sims.size()), "count", false},
  };
  if (run.workload.name == "fig3_sweep") {
    const SimOutcome* colibri = nullptr;
    const SimOutcome* lrsc = nullptr;
    for (const auto& s : first.sims) {
      colibri = s.label == kFig3Colibri1 ? &s : colibri;
      lrsc = s.label == kFig3Lrsc1 ? &s : lrsc;
    }
    if (colibri != nullptr && lrsc != nullptr) {
      m.push_back({"fig3_ratio_err",
                   std::abs(ratio(colibri->opsPerCycle, lrsc->opsPerCycle,
                                  0.0) /
                                6.5 -
                            1.0),
                   "fraction", false});
      m.push_back({"fig3_energy_err",
                   std::abs(ratio(lrsc->energyPerOpPj,
                                  colibri->energyPerOpPj, 0.0) /
                                7.1 -
                            1.0),
                   "fraction", false});
    }
  }
  return m;
}

std::vector<Metric> perLayer(const Run& run) {
  const IterationResult& t0 = run.traced.front();
  const LayerCounts& c = t0.layers;
  double windowOps = 0.0;
  double instructions = 0.0;
  double sleep = 0.0;
  double coreWindow = 0.0;
  double cycles = 0.0;
  for (const auto& s : t0.sims) {
    cycles += static_cast<double>(s.finalCycle);
    windowOps += static_cast<double>(s.windowOps);
    instructions += static_cast<double>(s.counters.instructions);
    sleep += static_cast<double>(s.counters.sleepCycles);
    coreWindow += static_cast<double>(s.counters.windowCycles) *
                  static_cast<double>(s.counters.activeCores);
  }
  const auto events = static_cast<double>(c.events);

  std::vector<double> busy;
  for (const auto& it : run.production) {
    busy.push_back(it.busyS / (it.wallS * it.workers));
  }
  std::vector<double> build;
  std::vector<double> teardown;
  std::vector<double> runS;
  std::vector<double> queue;
  std::vector<double> route;
  std::vector<double> tracedWall;
  std::map<std::string, std::vector<double>> handle;
  for (const auto& it : run.traced) {
    for (const auto& s : it.sims) {
      build.push_back(s.buildS * 1e3);
      teardown.push_back(s.teardownS * 1e3);
    }
    runS.push_back(it.runSelfS);
    queue.push_back(it.queue.nsPerItem());
    route.push_back(it.route.nsPerItem());
    tracedWall.push_back(it.wallS);
    for (const auto& [name, t] : it.handle) {
      handle[name].push_back(t.nsPerItem());
    }
  }
  std::vector<double> untracedWall;
  for (const auto& it : run.baseline.empty() ? run.production : run.baseline) {
    untracedWall.push_back(it.wallS);
  }
  const double runMedian = median(runS);
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  std::vector<Metric> m = {
      {"exp.pool_busy_frac", median(busy), "fraction"},
      {"arch.build_ms", median(build), "ms"},
      {"arch.teardown_ms", median(teardown), "ms"},
      {"workload.run_s", runMedian, "s"},
      {"workload.window_ops", windowOps, "count"},
      {"sim.events", events, "count"},
      {"sim.events_per_op", ratio(events, windowOps, 0.0), "events/op"},
      {"sim.events_per_cycle", ratio(events, cycles, 0.0), "events/cycle"},
      {"sim.ns_per_event", ratio(runMedian * 1e9, events, 0.0), "ns"},
      {"sim.queue_ns_per_event", median(queue), "ns"},
      {"sim.frames", u(c.frames), "count"},
      {"sim.heap_frames", u(c.heapFrames), "count"},
      {"net.msgs_local", u(c.msgsLocal), "count"},
      {"net.msgs_group", u(c.msgsGroup), "count"},
      {"net.msgs_remote", u(c.msgsRemote), "count"},
      {"net.queueing_cycles", u(c.queueingCycles), "cycles"},
      {"net.route_ns", median(route), "ns"},
      {"atomics.bank_requests", u(c.bankRequests), "count"},
      {"atomics.wakeups", u(c.wakeups), "count"},
      {"atomics.sc_success_ratio",
       ratio(u(c.scSuccesses), u(c.scSuccesses + c.scFailures), 1.0),
       "fraction"},
      {"atomics.lr_fail_ratio",
       ratio(u(c.lrFails), u(c.lrGrants + c.lrFails), 0.0), "fraction"},
  };
  for (const auto& name : replayAdapters()) {
    m.push_back({"atomics.handle_ns." + name, median(handle[name]), "ns"});
  }
  const std::vector<Metric> tail = {
      {"core.issued_ops", u(c.issuedOps), "count"},
      {"core.ops_per_issue", ratio(windowOps, instructions, 0.0),
       "ops/issue"},
      {"core.sleep_frac", ratio(sleep, coreWindow, 0.0), "fraction"},
      {"sync.retries", u(c.retries), "count"},
      {"obs.trace_overhead_frac",
       median(tracedWall) / median(untracedWall) - 1.0, "fraction"},
  };
  m.insert(m.end(), tail.begin(), tail.end());
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  if (const std::string problem = buildProblem(); !problem.empty()) {
    std::cerr << "perfbench: refusing to report timings: " << problem
              << "\n";
    return 3;
  }

  Run run;
  try {
    run.workload = makeWorkload(args.workload, args.seed);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  const Workload& w = run.workload;

  SpanLog log;
  try {
    // Warm-up iteration: fills the frame pool and page tables; its
    // results are checked and fix the reference behaviour digest.
    const IterationResult warm = runIteration(w, w.workers, nullptr, args.seed);
    account(run, warm, warm.digest);
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args.seconds));
    do {
      run.production.push_back(
          runIteration(w, w.workers, nullptr, args.seed));
      account(run, run.production.back(), warm.digest);
      if (args.trace == 1) {
        if (w.workers > 1) {
          run.baseline.push_back(runIteration(w, 1, nullptr, args.seed));
          account(run, run.baseline.back(), warm.digest);
        }
        run.traced.push_back(runIteration(w, 1, &log, args.seed));
        account(run, run.traced.back(), warm.digest);
        if (run.traced.back().layerDigest != run.traced.front().layerDigest) {
          run.problems.push_back("exact layer counts differ between runs");
        }
      }
    } while (Clock::now() < deadline);

    std::vector<Metric> metrics = args.trace == 0
                                      ? endToEnd(run, warm)
                                      : perLayer(run);

    char host[256] = {};
    gethostname(host, sizeof host - 1);
    std::ostringstream record;
    record << "{\"workload\":" << quoted(w.name) << ",\"seed\":" << args.seed
           << ",\"seconds\":" << number(args.seconds)
           << ",\"trace\":" << args.trace
           << ",\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE)
           << ",\"compiler\":" << quoted(PERFBENCH_COMPILER)
           << ",\"sanitize\":" << quoted(PERFBENCH_SANITIZE)
           << ",\"nproc\":" << std::thread::hardware_concurrency()
           << ",\"host\":" << quoted(host)
           << ",\"workers\":" << w.workers
           << ",\"simulations_per_iteration\":" << w.specs.size()
           << ",\"iterations\":" << run.production.size()
           << ",\"traced_iterations\":" << run.traced.size()
           << ",\"events_per_iteration\":" << eventsOf(warm)
           << ",\"behaviour_digest\":" << quoted(hex(warm.digest));
    if (!run.traced.empty()) {
      record << ",\"layer_digest\":"
             << quoted(hex(run.traced.front().layerDigest));
    }
    record << ",\"iteration_wall_s\":[";
    for (std::size_t i = 0; i < run.production.size(); ++i) {
      record << (i == 0 ? "" : ",") << number(run.production[i].wallS);
    }
    record << "],\"metrics\":{";
    std::cout << "perfbench " << w.name << " seed=" << args.seed
              << " trace=" << args.trace << " iterations="
              << run.production.size() << "\n";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      std::cout << "  " << m.name << " " << number(m.value) << " " << m.unit
                << "\n";
      record << (i == 0 ? "" : ",") << quoted(m.name) << ":{\"value\":"
             << number(m.value) << ",\"unit\":" << quoted(m.unit) << "}";
    }
    record << "},\"problems\":[";
    for (std::size_t i = 0; i < run.problems.size(); ++i) {
      record << (i == 0 ? "" : ",") << quoted(run.problems[i]);
      std::cerr << "perfbench: " << run.problems[i] << "\n";
    }
    record << "]}";
    std::cout << "PERFBENCH_RECORD " << record.str() << "\n";

    if (args.trace == 1) {
      std::filesystem::create_directories(args.outDir);
      const std::string path = args.outDir + "/spans-" + w.name + "-seed" +
                               std::to_string(args.seed) + ".json";
      std::ofstream os(path);
      log.writeChromeTrace(os);
      if (!os) {
        throw std::runtime_error("cannot write " + path);
      }
      std::cout << "spans: " << path << "\n";
    }

    std::cout << "{\"correct\":" << (run.problems.empty() ? "true" : "false")
              << ",\"attempted\":" << run.attempted
              << ",\"failed\":" << run.failed << ",\"metrics\":{";
    bool firstMetric = true;
    for (const Metric& m : metrics) {
      if (m.gated) {
        std::cout << (firstMetric ? "" : ",") << quoted(m.name)
                  << ":{\"value\":" << number(m.value)
                  << ",\"unit\":" << quoted(m.unit) << "}";
        firstMetric = false;
      }
    }
    std::cout << "}}" << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
