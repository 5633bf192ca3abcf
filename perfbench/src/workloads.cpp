#include "workloads.hpp"

#include <stdexcept>

#include "exp/scenario.hpp"
#include "wgen/presets.hpp"

namespace perfbench {

using namespace colibri;

namespace {

exp::AdapterSpec adapter(const std::string& name) {
  auto a = exp::findAdapter(name);
  if (!a) {
    throw std::invalid_argument("unknown adapter '" + name + "'");
  }
  return *a;
}

wgen::WgenParams preset(const std::string& name) {
  const wgen::Preset* p = wgen::findPreset(name);
  if (p == nullptr) {
    throw std::invalid_argument("unknown wgen preset '" + name + "'");
  }
  wgen::WgenParams params;
  params.kernel = p->spec;
  params.backoff = sync::BackoffPolicy::fixed(128);
  return params;
}

/// The exact point set of bench_fig3_histogram: six curves x bins 1..1024
/// on the 256-core MemPool, window 2000/20000, 128-cycle backoff.
Workload fig3Sweep(std::uint64_t seed) {
  using workloads::HistogramMode;
  struct Curve {
    const char* name;
    arch::SystemConfig cfg;
    HistogramMode mode;
  };
  const Curve curves[] = {
      {"AtomicAdd", exp::configFor(adapter("amo")), HistogramMode::kAmoAdd},
      {"LRSCwait_ideal", exp::configFor(adapter("lrscwait_ideal")),
       HistogramMode::kLrscWait},
      {"LRSCwait_128", exp::configFor(adapter("lrscwait"), 128),
       HistogramMode::kLrscWait},
      {"LRSCwait_1", exp::configFor(adapter("lrscwait"), 1),
       HistogramMode::kLrscWait},
      {"Colibri", exp::configFor(adapter("colibri")),
       HistogramMode::kLrscWait},
      {"LRSC", exp::configFor(adapter("lrsc_single")), HistogramMode::kLrsc},
  };
  Workload w{"fig3_sweep", {}, 2, 90.0};
  for (const auto& c : curves) {
    for (std::uint32_t bins = 1; bins <= 1024; bins *= 2) {
      workloads::HistogramParams p;
      p.bins = bins;
      p.mode = c.mode;
      p.backoff = sync::BackoffPolicy::fixed(128);
      exp::RunSpec spec;
      spec.label = std::string(c.name) + "/" + std::to_string(bins);
      spec.config = c.cfg;
      spec.params = p;
      spec.window = workloads::MeasureWindow{2000, 20000};
      spec.seed = seed;
      w.specs.push_back(std::move(spec));
    }
  }
  return w;
}

/// wgen uniform_fa on Colibri at 1024 cores (16 groups), one simulation
/// per derived seed. Eight short simulations rather than four long ones:
/// the run then has enough simulations in its quiet quarter to report a
/// p75 tail.
Workload uniform1k(std::uint64_t seed) {
  constexpr std::uint32_t kSimulations = 8;
  arch::SystemConfig base = arch::SystemConfig::memPool();
  base.numCores = 1024;
  const arch::SystemConfig cfg = exp::configFor(adapter("colibri"), 8, base);
  Workload w{"uniform_1k", {}, 1, 75.0};
  for (std::uint32_t k = 0; k < kSimulations; ++k) {
    exp::RunSpec spec;
    spec.label = "colibri/uniform_fa/" + std::to_string(k);
    spec.config = cfg;
    spec.params = preset("uniform_fa");
    spec.window = workloads::MeasureWindow{1000, 10000};
    spec.seed = exp::repSeed(seed, k);
    w.specs.push_back(std::move(spec));
  }
  return w;
}

/// Locks, CAS-loop queues and Mwait consumers on the retry-based LR/SC
/// baseline and on Colibri, over a long window.
Workload contendedSync(std::uint64_t seed) {
  Workload w{"contended_sync", {}, 1, 90.0};
  for (const char* name : {"lrsc_single", "colibri"}) {
    const exp::AdapterSpec a = adapter(name);
    const arch::SystemConfig cfg = exp::configFor(a);
    const auto backoff = sync::BackoffPolicy::fixed(128);

    workloads::QueueParams queue;
    queue.variant = exp::queueVariantFor(a);
    queue.backoff = backoff;

    workloads::ProdConsParams prodcons;
    prodcons.useMwait = a.waitCapable;
    prodcons.backoff = backoff;

    const std::pair<const char*, exp::WorkloadParams> kernels[] = {
        {"lock_zipf", preset("lock_zipf")},
        {"msqueue", queue},
        {"prodcons", prodcons},
    };
    for (const auto& [kernel, params] : kernels) {
      exp::RunSpec spec;
      spec.label = std::string(name) + "/" + kernel;
      spec.config = cfg;
      spec.params = params;
      spec.window = workloads::MeasureWindow{2000, 200000};
      spec.seed = seed;
      w.specs.push_back(std::move(spec));
    }
  }
  return w;
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {"fig3_sweep", "uniform_1k",
                                                 "contended_sync"};
  return names;
}

Workload makeWorkload(const std::string& name, std::uint64_t seed) {
  if (name == "fig3_sweep") {
    return fig3Sweep(seed);
  }
  if (name == "uniform_1k") {
    return uniform1k(seed);
  }
  if (name == "contended_sync") {
    return contendedSync(seed);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
