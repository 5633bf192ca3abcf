#include "replay.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <random>
#include <stdexcept>
#include <utility>

#include "arch/network.hpp"
#include "atomics/adapter.hpp"
#include "exp/scenario.hpp"
#include "spans.hpp"

namespace perfbench {

using namespace colibri;
using sim::Addr;
using sim::BankId;
using sim::CoreId;
using sim::Cycle;
using sim::Word;

namespace {

void require(bool ok, const std::string& what) {
  if (!ok) {
    throw std::runtime_error("replay check failed: " + what);
  }
}

// --- Event queue -----------------------------------------------------------

struct QueueReplay {
  QueueReplay(const std::vector<sim::DispatchRecord>& r, std::size_t n)
      : record(r), inflight(n) {}

  sim::Engine engine;
  const std::vector<sim::DispatchRecord>& record;
  std::size_t inflight;
  std::uint64_t fired = 0;

  void fire(std::size_t i) {
    ++fired;
    const std::size_t next = i + inflight;
    if (next < record.size()) {
      engine.scheduleAt(record[next].when, [this, next] { fire(next); });
    }
  }
};

// --- Adapters --------------------------------------------------------------

constexpr std::uint32_t kReplayCores = 256;
constexpr std::uint32_t kReplayWords = 64;
constexpr std::uint32_t kHotWords = 8;

/// Bank storage and counters shared by the two replay contexts.
class ContextBase : public atomics::BankContext {
 public:
  [[nodiscard]] Word read(Addr a) const override { return mem_[a]; }
  void writeRaw(Addr a, Word v) override { mem_[a] = v; }
  [[nodiscard]] Cycle now() const override { return now_; }
  [[nodiscard]] BankId bankId() const override { return 0; }
  [[nodiscard]] std::uint32_t numCores() const override {
    return kReplayCores;
  }
  void setNow(Cycle c) { now_ = c; }

  std::uint64_t responses = 0;
  std::uint64_t successorUpdates = 0;

 private:
  std::vector<Word> mem_ = std::vector<Word>(kReplayWords, 0);
  Cycle now_ = 0;
};

/// Timed replays: count what the adapter sends, nothing else.
class CountingContext final : public ContextBase {
 public:
  void respond(CoreId, const atomics::MemResponse&) override { ++responses; }
  void sendSuccessorUpdate(CoreId, CoreId, Addr, bool) override {
    ++successorUpdates;
  }
};

/// Stream generation: keeps every message for the protocol driver.
class RecordingContext final : public ContextBase {
 public:
  struct Response {
    CoreId core;
    atomics::MemResponse resp;
  };
  struct Update {
    CoreId target;
    CoreId successor;
    bool successorIsMwait;
  };
  void respond(CoreId c, const atomics::MemResponse& r) override {
    ++responses;
    pendingResponses.push_back({c, r});
  }
  void sendSuccessorUpdate(CoreId target, CoreId successor, Addr,
                           bool successorIsMwait) override {
    ++successorUpdates;
    pendingUpdates.push_back({target, successor, successorIsMwait});
  }
  std::vector<Response> pendingResponses;
  std::vector<Update> pendingUpdates;
};

enum class Flavor { kAmo, kLrsc, kWait };

Flavor flavorOf(arch::AdapterKind k) {
  switch (k) {
    case arch::AdapterKind::kAmoOnly:
      return Flavor::kAmo;
    case arch::AdapterKind::kLrscSingle:
    case arch::AdapterKind::kLrscTable:
      return Flavor::kLrsc;
    default:
      return Flavor::kWait;
  }
}

arch::MemRequest request(arch::OpKind kind, Addr a, Word v, CoreId c) {
  arch::MemRequest r;
  r.kind = kind;
  r.addr = a;
  r.value = v;
  r.core = c;
  return r;
}

/// Drives 256 cores through the adapter's native RMW protocol (AMO adds,
/// LR/SC with retry, or LRwait/SCwait with Colibri's Qnode hand-over),
/// with one op in four a plain load. replayAdapter feeds it every
/// response until the stream is long enough, then stops issuing new ops
/// and lets every outstanding protocol finish.
struct ProtocolDriver {
  enum class State { kIdle, kLoad, kAmo, kLr, kSc, kLrWait, kScWait };
  struct CoreState {
    State state = State::kIdle;
    Addr addr = 0;
    CoreId successor = sim::kNoCore;
    bool successorIsMwait = false;
  };

  ProtocolDriver(Flavor f, bool isColibri, std::uint64_t seed)
      : flavor(f), colibri(isColibri), rng(seed) {}

  Flavor flavor;
  bool colibri;
  std::mt19937_64 rng;
  bool issuing = true;
  std::deque<arch::MemRequest> pending;
  std::vector<CoreState> cores = std::vector<CoreState>(kReplayCores);

  void send(arch::OpKind kind, Addr a, Word v, CoreId c, State next) {
    pending.push_back(request(kind, a, v, c));
    cores[c].state = next;
    cores[c].addr = a;
  }

  void startOp(CoreId c) {
    if (!issuing) {
      cores[c].state = State::kIdle;
      return;
    }
    if (rng() % 4 == 0) {
      send(arch::OpKind::kLoad, rng() % kReplayWords, 0, c, State::kLoad);
      return;
    }
    const Addr a = rng() % kHotWords;
    switch (flavor) {
      case Flavor::kAmo:
        send(arch::OpKind::kAmoAdd, a, 1, c, State::kAmo);
        break;
      case Flavor::kLrsc:
        send(arch::OpKind::kLr, a, 0, c, State::kLr);
        break;
      case Flavor::kWait:
        send(arch::OpKind::kLrWait, a, 0, c, State::kLrWait);
        break;
    }
  }

  void onUpdate(const RecordingContext::Update& u) {
    cores[u.target].successor = u.successor;
    cores[u.target].successorIsMwait = u.successorIsMwait;
  }

  void onResponse(CoreId c, const atomics::MemResponse& r) {
    CoreState& s = cores[c];
    switch (s.state) {
      case State::kLoad:
      case State::kAmo:
        startOp(c);
        break;
      case State::kLr:
        send(arch::OpKind::kSc, s.addr, r.value + 1, c, State::kSc);
        break;
      case State::kSc:
        if (!r.ok && issuing) {
          send(arch::OpKind::kLr, s.addr, 0, c, State::kLr);
        } else {
          startOp(c);
        }
        break;
      case State::kLrWait:
        if (!r.ok) {  // reservation queue full: software retries
          if (issuing) {
            send(arch::OpKind::kLrWait, s.addr, 0, c, State::kLrWait);
          } else {
            s.state = State::kIdle;
          }
        } else {
          send(arch::OpKind::kScWait, s.addr, r.value + 1, c,
               State::kScWait);
        }
        break;
      case State::kScWait:
        if (colibri && !r.lastInQueue) {
          // The Qnode hands the queue to its successor. Requests are
          // handled one at a time, so the successor's SuccessorUpdate
          // always arrived before this response.
          require(s.successor != sim::kNoCore, "SCwait without successor");
          arch::MemRequest wake =
              request(arch::OpKind::kWakeUp, s.addr, s.successor, c);
          wake.successorIsMwait = s.successorIsMwait;
          pending.push_back(wake);
          s.successor = sim::kNoCore;
        }
        startOp(c);
        break;
      case State::kIdle:
        require(false, "response to an idle core");
    }
  }
};

}  // namespace

ReplayTiming replayQueue(const std::vector<sim::DispatchRecord>& record,
                         std::size_t inflight) {
  require(inflight > 0, "queue replay needs events in flight");
  QueueReplay q(record, inflight);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < std::min(inflight, record.size()); ++i) {
    q.engine.scheduleAt(record[i].when, [&q, i] { q.fire(i); });
  }
  q.engine.run();
  const auto t1 = Clock::now();
  require(q.fired == record.size(), "queue replay lost events");
  require(record.empty() || q.engine.now() == record.back().when,
          "queue replay ended at the wrong cycle");
  return {secondsBetween(t0, t1), record.size()};
}

ReplayTiming replayRoute(const arch::SystemConfig& cfg,
                         std::uint64_t messages,
                         const std::array<std::uint64_t, 3>& mix,
                         sim::Cycle cycles, std::uint64_t seed) {
  struct Msg {
    CoreId core;
    BankId bank;
    sim::Cycle at;
  };
  const std::uint64_t weight = mix[0] + mix[1] + mix[2];
  require(weight > 0 && messages > 0, "route replay needs messages");
  const arch::Topology topo(cfg);
  const std::uint32_t tpg = cfg.tilesPerGroup;
  std::mt19937_64 rng(seed);
  std::vector<Msg> stream;
  stream.reserve(messages);
  std::array<std::uint64_t, 3> expected{};
  for (std::uint64_t i = 0; i < messages; ++i) {
    const std::uint64_t pick = rng() % weight;
    const std::size_t cls = pick < mix[0] ? 0 : pick < mix[0] + mix[1] ? 1 : 2;
    const CoreId c = static_cast<CoreId>(rng() % cfg.numCores);
    const std::uint32_t tile = topo.tileOfCore(c);
    const std::uint32_t group = topo.groupOfTile(tile);
    std::uint32_t bankTile = tile;
    if (cls == 1) {
      require(tpg > 1, "same-group traffic needs two tiles per group");
      std::uint32_t other = static_cast<std::uint32_t>(rng() % (tpg - 1));
      other += other >= tile % tpg ? 1 : 0;
      bankTile = group * tpg + other;
    } else if (cls == 2) {
      const std::uint32_t groups = cfg.numGroups();
      require(groups > 1, "remote traffic needs two groups");
      std::uint32_t g = static_cast<std::uint32_t>(rng() % (groups - 1));
      g += g >= group ? 1 : 0;
      bankTile = g * tpg + static_cast<std::uint32_t>(rng() % tpg);
    }
    const BankId b = bankTile * cfg.banksPerTile +
                     static_cast<BankId>(rng() % cfg.banksPerTile);
    require(static_cast<std::size_t>(topo.coreToBank(c, b)) == cls,
            "route stream class");
    ++expected[cls];
    stream.push_back({c, b, static_cast<sim::Cycle>(i * cycles / messages)});
  }

  sim::Engine engine;
  arch::Network net(engine, cfg);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Msg& m = stream[i];
    if ((i & 1) != 0) {
      (void)net.routeResponse(m.bank, m.core, m.at);
    } else {
      (void)net.routeRequest(m.core, m.bank, m.at);
    }
  }
  const auto t1 = Clock::now();
  require(net.stats().messagesByDistance == expected,
          "network counted a different distance mix");
  return {secondsBetween(t0, t1), messages};
}

const std::vector<std::string>& replayAdapters() {
  static const std::vector<std::string> names = {
      "amo", "lrsc_single", "lrsc_table", "lrscwait", "colibri"};
  return names;
}

ReplayTiming replayAdapter(const std::string& name, std::uint64_t requests,
                           std::uint64_t seed, int passes) {
  const auto spec = exp::findAdapter(name);
  require(spec.has_value(), "unknown adapter " + name);
  const arch::SystemConfig cfg = exp::configFor(*spec);

  // Generate a protocol-complete request stream.
  RecordingContext rec;
  std::vector<arch::MemRequest> stream;
  {
    auto adapter = atomics::makeAdapter(cfg, rec);
    ProtocolDriver d(flavorOf(cfg.adapter),
                     cfg.adapter == arch::AdapterKind::kColibri, seed);
    for (CoreId c = 0; c < kReplayCores; ++c) {
      d.startOp(c);
    }
    while (!d.pending.empty()) {
      const arch::MemRequest req = d.pending.front();
      d.pending.pop_front();
      rec.setNow(stream.size());
      stream.push_back(req);
      adapter->handle(req);
      d.issuing = stream.size() < requests;
      for (const auto& u : std::exchange(rec.pendingUpdates, {})) {
        d.onUpdate(u);
      }
      for (const auto& r : std::exchange(rec.pendingResponses, {})) {
        d.onResponse(r.core, r.resp);
      }
    }
    for (const auto& s : d.cores) {
      require(s.state == ProtocolDriver::State::kIdle &&
                  s.successor == sim::kNoCore,
              name + " stream left a protocol open");
    }
  }

  // Timed passes: the same stream into a fresh adapter each time.
  std::vector<double> seconds;
  for (int p = 0; p < passes; ++p) {
    CountingContext ctx;
    auto adapter = atomics::makeAdapter(cfg, ctx);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < stream.size(); ++i) {
      ctx.setNow(i);
      adapter->handle(stream[i]);
    }
    const auto t1 = Clock::now();
    require(ctx.responses == rec.responses &&
                ctx.successorUpdates == rec.successorUpdates,
            name + " replay diverged from its recorded stream");
    seconds.push_back(secondsBetween(t0, t1));
  }
  std::sort(seconds.begin(), seconds.end());
  return {seconds[seconds.size() / 2], stream.size()};
}

}  // namespace perfbench
