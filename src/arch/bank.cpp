#include "arch/bank.hpp"

#include <utility>

#include "fault/fault.hpp"
#include "obs/hooks.hpp"
#include "sim/check.hpp"
#include "sim/event.hpp"

namespace colibri::arch {

Bank::Bank(sim::Engine& engine, Network& net, CoreSink& sink,
           const AddressMap& map, Word* spm, const SystemConfig& cfg,
           BankId id)
    : engine_(engine),
      net_(net),
      sink_(sink),
      map_(map),
      spm_(spm),
      numCores_(cfg.numCores),
      id_(id),
      port_(cfg.bankPortsPerCycle),
      adapter_(atomics::makeAdapter(cfg, *this)) {}

Addr Bank::checked(Addr a) const {
  COLIBRI_CHECK_MSG(map_.bankOf(a) == id_,
                    "address " << a << " does not map to bank " << id_);
  COLIBRI_CHECK_MSG(a < map_.numWords(),
                    "address " << a << " is outside the " << map_.numWords()
                               << "-word SPM");
  return a;
}

void Bank::receive(const MemRequest& req) {
  const sim::Cycle at = engine_.now();
  if (shadow_ != nullptr) {
    // Inside a worker window: log this acquire so the barrier merge can
    // replay the port's grant sequence when it resolves deferred sends
    // that interleave with it. The first uncommitted acquire snapshots the
    // live pre-acquire state as the replay starting point.
    if (auto* log = sim::ParallelDispatch::currentPortLog()) {
      if (shadow_->pending++ == 0) {
        shadow_->cursor = port_.cursor();
        shadow_->used = port_.slotUsed();
      }
      log->push_back({id_, at});
    }
  }
  const sim::Cycle grant = port_.acquire(at);
  sim::Cycle serveAt = grant;
  if (fault_ != nullptr) {
    // Transient service stall: extra cycles between the port grant and the
    // adapter. The port itself is untouched (its grant sequence — and the
    // parallel engine's shadow replay of it — stays exactly as without
    // faults); the clamp keeps service in order, so a stalled request
    // delays everything granted behind it, like a refresh-busy bank.
    serveAt += fault_->stall(id_, req.core, grant);
    if (serveAt < lastServe_) {
      serveAt = lastServe_;
    }
    lastServe_ = serveAt;
  }
  if (hooks_ != nullptr && hooks_->tracer != nullptr &&
      expectsResponse(req.kind)) {
    hooks_->tracer->onBankArrive(req.core, id_, at, serveAt);
  }
  auto serve = [this, req] {
    ++stats_.requests;
    adapter_->handle(req);
  };
  static_assert(sim::InlineEvent::fitsInline<decltype(serve)>,
                "bank service closure must fit the inline event buffer");
  engine_.scheduleAt(serveAt, std::move(serve));
}

sim::Cycle Bank::backlogAt(sim::Cycle at) const {
  // All acquires on this port come from the bank's own shard, in order, so
  // inside a window the live state is already sequential. A merge-time
  // probe (outside any window, with uncommitted acquires pending) must use
  // the shadow instead: it holds the state as of the committed prefix.
  const bool useShadow = shadow_ != nullptr && shadow_->pending > 0 &&
                         !sim::ParallelDispatch::inWindowContext();
  const sim::Cycle free =
      useShadow ? sim::ThroughputResource::peekFrom(
                      shadow_->cursor, shadow_->used, port_.slotsPerCycle(), at)
                : port_.peek(at);
  return free - at;
}

Word Bank::read(Addr a) const { return spm_[checked(a)]; }

void Bank::writeRaw(Addr a, Word v) { spm_[checked(a)] = v; }

void Bank::respond(CoreId c, const MemResponse& r) {
  // Responses ride dedicated return paths (no shared stages), so the
  // arrival cycle is fully determined at send time; the sink routes the
  // event to the core's execution domain.
  const sim::Cycle arriveAt = net_.routeResponse(id_, c, engine_.now());
  if (hooks_ != nullptr && hooks_->tracer != nullptr) {
    hooks_->tracer->onRespond(c, engine_.now());
  }
  auto arrive = [this, c, r] { sink_.deliverResponse(c, r); };
  static_assert(sim::InlineEvent::fitsInline<decltype(arrive)>,
                "response closure must fit the inline event buffer");
  sink_.scheduleAtCore(c, arriveAt, std::move(arrive));
}

void Bank::sendSuccessorUpdate(CoreId target, CoreId successor, Addr a,
                               bool successorIsMwait) {
  const sim::Cycle arriveAt = net_.routeResponse(id_, target, engine_.now());
  auto arrive = [this, target, successor, a, successorIsMwait] {
    sink_.deliverSuccessorUpdate(target, successor, a, successorIsMwait);
  };
  static_assert(sim::InlineEvent::fitsInline<decltype(arrive)>,
                "successor-update closure must fit the inline event buffer");
  sink_.scheduleAtCore(target, arriveAt, std::move(arrive));
}

void Bank::resetStats() {
  stats_.reset();
  port_.resetStats();
  adapter_->mutableStats().reset();
}

}  // namespace colibri::arch
