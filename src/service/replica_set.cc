#include "service/replica_set.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <iterator>
#include <thread>
#include <utility>

#include "common/failpoint.h"

namespace ppgnn {
namespace {

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

std::chrono::steady_clock::duration FromSeconds(double s) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(s));
}

}  // namespace

struct ReplicaSet::LegResult {
  int replica = -1;
  bool answered = false;
  /// The failure may clear on a resend to the same replica.
  bool transient = false;
  std::vector<uint8_t> frame;  ///< the answer frame when answered
  ErrorMessage error;          ///< set when !answered
};

struct ReplicaSet::InFlightCall {
  std::mutex mu;
  std::condition_variable cv;
  // ppgnn: guarded_by(results, mu)
  std::vector<LegResult> results;
};

ReplicaSet::ReplicaSet(int shard_index, std::vector<Poi> slice,
                       ReplicaSetConfig config)
    : shard_index_(shard_index),
      config_(std::move(config)),
      counters_(static_cast<size_t>(std::max(config_.replicas, 1))),
      // ppgnn-lint: allow(guarded-by): constructor has exclusive access
      rng_(config_.link_policy.seed + static_cast<uint64_t>(shard_index)) {
  const int replicas = std::max(config_.replicas, 1);
  health_ = std::make_unique<HealthMonitor>(replicas, config_.health);
  failpoints_.reserve(static_cast<size_t>(replicas));
  dbs_.reserve(static_cast<size_t>(replicas));
  services_.reserve(static_cast<size_t>(replicas));
  links_.reserve(static_cast<size_t>(replicas));
  for (int r = 0; r < replicas; ++r) {
    failpoints_.push_back("shard.replica." + std::to_string(shard_index_) +
                          "." + std::to_string(r));
    if (config_.link_factory) {
      // Remote mode: the replica lives behind a caller-built link (a
      // TcpLink dialing its TcpShardServer). Down-edges from the link's
      // own exchanges demote the replica in the health monitor even when
      // no Call() is in flight — a severed socket is a health signal.
      remote_links_.push_back(config_.link_factory(shard_index_, r));
      remote_links_.back()->SetConnectivityObserver([this, r](bool up) {
        if (!up) health_->ReportFailure(r);
      });
      links_.push_back(remote_links_.back().get());
      continue;
    }
    // Each replica owns a full copy of the slice: replicas share no
    // state, so one replica's failure mode cannot leak into another.
    dbs_.push_back(std::make_unique<LspDatabase>(slice));
    services_.push_back(
        std::make_unique<LspService>(*dbs_.back(), config_.service));
    links_.push_back(services_.back().get());
  }
}

ReplicaSet::~ReplicaSet() { Shutdown(); }

void ReplicaSet::Shutdown() {
  // Stopping a service drains its queue and joins its workers, so every
  // leg callback it owes has run; Close() joins a remote link's workers
  // for the same reason. After this no callback or connectivity observer
  // can touch health_ or the counters. Both are idempotent.
  for (auto& service : services_) service->Shutdown();
  for (auto& link : remote_links_) link->Close();
}

void ReplicaSet::SubmitLeg(const std::shared_ptr<InFlightCall>& call,
                           int replica, ServiceRequest request) {
  const Clock::time_point submitted = Clock::now();
  // Submit may run the callback inline (a rejected leg), so no lock of
  // ours is held here; a rejection still arrives as the callback's error
  // frame, so the bool is redundant.
  (void)links_[static_cast<size_t>(replica)]->Submit(
      std::move(request),
      [this, call, replica, submitted](std::vector<uint8_t> frame) {
        LegResult result = FinishLeg(replica, submitted, std::move(frame));
        {
          std::lock_guard<std::mutex> lock(call->mu);
          call->results.push_back(std::move(result));
        }
        call->cv.notify_all();
      });
}

ReplicaSet::LegResult ReplicaSet::FinishLeg(int replica,
                                            Clock::time_point submitted,
                                            std::vector<uint8_t> frame) {
  LegResult result;
  result.replica = replica;
  // The per-replica failpoint models this one replica being dead or
  // slow. A delay sleeps here, on the link's thread, so slowness flows
  // into the health EWMA and the hedge without blocking the caller.
  const Status injected =
      FailpointCheck(failpoints_[static_cast<size_t>(replica)].c_str());
  if (!injected.ok()) {
    result.error.code = WireErrorFromStatus(injected);
    result.error.detail = injected.ToString();
  } else {
    Result<ResponseFrame> decoded = ResponseFrame::Decode(frame);
    if (!decoded.ok()) {
      // Transport garbage (e.g. an injected corrupt frame): unusable,
      // but a resend can succeed.
      result.error.code = WireError::kInternal;
      result.error.detail = "replica set: reply corrupted";
      result.transient = true;
    } else if (decoded.value().is_error) {
      result.error = std::move(decoded.value().error);
    } else {
      result.answered = true;
      result.frame = std::move(frame);
    }
  }
  const double latency = Seconds(Clock::now() - submitted);
  if (result.answered) {
    leg_latency_.Record(latency);
    health_->ReportSuccess(replica, latency);
    return result;
  }
  result.transient =
      result.transient || ResilientClient::IsRetryable(result.error.code);
  counters_[static_cast<size_t>(replica)].leg_failures.fetch_add(
      1, std::memory_order_relaxed);
  // kMalformed is a verdict on *our* query, identical on every replica —
  // not a health signal.
  if (result.error.code != WireError::kMalformed) {
    health_->ReportFailure(replica);
  }
  return result;
}

double ReplicaSet::HedgeDelaySeconds() const {
  const RetryPolicy& policy = config_.link_policy;
  if (policy.hedge_delay_seconds > 0) return policy.hedge_delay_seconds;
  if (leg_latency_.count() >= 8) {
    return std::max(policy.min_hedge_delay_seconds,
                    leg_latency_.Quantile(0.99));
  }
  return policy.fallback_hedge_delay_seconds;
}

double ReplicaSet::BackoffSeconds(int round, uint64_t retry_after_ms) {
  const RetryPolicy& policy = config_.link_policy;
  double base;
  if (policy.honor_retry_after && retry_after_ms > 0) {
    // The server knows its backlog better than our schedule does.
    base = static_cast<double>(retry_after_ms) / 1000.0;
  } else {
    base = std::min(policy.initial_backoff_seconds *
                        std::pow(policy.backoff_multiplier, round - 1),
                    policy.max_backoff_seconds);
  }
  double jitter = 0.0;
  if (policy.jitter_fraction > 0) {
    std::lock_guard<std::mutex> lock(rng_mu_);
    jitter = policy.jitter_fraction * (2.0 * rng_.NextDouble() - 1.0);
  }
  return std::max(base * (1.0 + jitter), 0.0);
}

ReplicaCallOutcome ReplicaSet::Call(const ServiceRequest& request,
                                    double budget_seconds) {
  const RetryPolicy& policy = config_.link_policy;
  const Clock::time_point start = Clock::now();
  double budget = budget_seconds;
  if (policy.total_budget_seconds > 0.0 &&
      (budget <= 0.0 || policy.total_budget_seconds < budget)) {
    budget = policy.total_budget_seconds;
  }
  const Clock::time_point deadline = budget > 0.0
                                         ? start + FromSeconds(budget)
                                         : Clock::time_point::max();

  std::vector<int> order = health_->PreferenceOrder();
  bool probe_carried = false;
  if (order.empty()) {
    // Ladder tier 5: the whole set looks down. If any replica's
    // half-open gate admits, the real query doubles as the probe — the
    // fastest path from "down" back to "serving".
    for (int r = 0; r < replicas(); ++r) {
      if (health_->TryAdmitProbe(r)) {
        counters_[static_cast<size_t>(r)].probes.fetch_add(
            1, std::memory_order_relaxed);
        order.push_back(r);
        probe_carried = true;
        break;
      }
    }
  }

  ReplicaCallOutcome outcome;
  outcome.error.code = WireError::kOverloaded;
  outcome.error.detail = "replica set: no routable replica";
  if (order.empty()) return outcome;

  auto call = std::make_shared<InFlightCall>();
  const int primary = order.front();
  const int max_legs_per_replica = std::max(policy.max_attempts, 1);
  std::vector<int> legs_to(static_cast<size_t>(replicas()), 0);
  // A replica already tried is resent to only if its last failure was
  // transient.
  std::vector<bool> transient(static_cast<size_t>(replicas()), false);
  bool primary_failed = false;
  bool terminal = false;
  uint64_t retry_after_ms = 0;

  const auto launch = [&](int replica, bool hedge) {
    ServiceLink& link = *links_[static_cast<size_t>(replica)];
    if (legs_to[static_cast<size_t>(replica)]++ > 0) link.RecordClientRetry();
    if (hedge) {
      hedges_launched_.fetch_add(1, std::memory_order_relaxed);
      link.RecordClientHedge();
    }
    ServiceRequest leg = request;
    if (deadline != Clock::time_point::max()) {
      leg.deadline_seconds = std::max(Seconds(deadline - Clock::now()), 0.001);
    }
    SubmitLeg(call, replica, std::move(leg));
    outcome.legs++;
  };
  const auto budget_exhausted = [&]() {
    outcome.error = ErrorMessage{};
    outcome.error.code = WireError::kDeadlineExceeded;
    outcome.error.detail = "replica set: budget exhausted";
    return outcome;
  };

  size_t next = 0;  // next replica of `order` this round
  int round = 1;
  launch(order[next++], /*hedge=*/false);
  // Hedge: when the primary is silent past the p99-derived delay, race
  // one identical leg against the next-preferred replica. A probe-
  // carried call never hedges — half-open admits exactly one leg.
  Clock::time_point hedge_at =
      policy.hedge && !probe_carried && next < order.size()
          ? Clock::now() + FromSeconds(HedgeDelaySeconds())
          : Clock::time_point::max();
  size_t consumed = 0;
  std::vector<LegResult> fresh;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(call->mu);
      const auto ready = [&] { return call->results.size() > consumed; };
      const Clock::time_point wake = std::min(hedge_at, deadline);
      if (wake == Clock::time_point::max()) {
        call->cv.wait(lock, ready);
      } else {
        (void)call->cv.wait_until(lock, wake, ready);
      }
      fresh.assign(std::make_move_iterator(call->results.begin() +
                                           static_cast<ptrdiff_t>(consumed)),
                   std::make_move_iterator(call->results.end()));
      consumed = call->results.size();
    }
    // First decisive answer wins; identical slices + a deterministic wire
    // make the winning frame byte-identical no matter which leg it is.
    // Until the primary fails, the only other leg in flight is the hedge.
    for (LegResult& result : fresh) {
      if (result.answered) {
        outcome.answered = true;
        outcome.served_by = result.replica;
        outcome.frame = std::move(result.frame);
        outcome.hedge_won = result.replica != primary && !primary_failed;
        outcome.failed_over = result.replica != primary && primary_failed;
        LegCounters& c = counters_[static_cast<size_t>(result.replica)];
        c.served.fetch_add(1, std::memory_order_relaxed);
        if (outcome.failed_over)
          c.failed_over.fetch_add(1, std::memory_order_relaxed);
        if (outcome.hedge_won)
          c.hedge_won.fetch_add(1, std::memory_order_relaxed);
        return outcome;
      }
      primary_failed = primary_failed || result.replica == primary;
      transient[static_cast<size_t>(result.replica)] = result.transient;
      // Terminal verdicts are identical on every replica: resending a
      // malformed query only repeats the rejection.
      terminal = terminal || result.error.code == WireError::kMalformed;
      if (result.error.code == WireError::kOverloaded &&
          result.error.retry_after_ms > 0) {
        retry_after_ms = result.error.retry_after_ms;
      }
      outcome.error = std::move(result.error);
    }
    const Clock::time_point now = Clock::now();
    if (outcome.legs > static_cast<int>(consumed)) {
      // Legs still in flight: abandon them at the end of the budget
      // (their late callbacks only touch `call`), else hedge when due.
      if (now >= deadline) return budget_exhausted();
      if (now >= hedge_at) {
        hedge_at = Clock::time_point::max();
        launch(order[next++], /*hedge=*/true);
      }
      continue;
    }
    // Every leg so far failed.
    hedge_at = Clock::time_point::max();
    if (terminal) return outcome;
    if (now >= deadline) return budget_exhausted();
    if (next < order.size()) {
      // Ladder tier 3: fail over to the next preferred replica.
      launch(order[next++], /*hedge=*/false);
      continue;
    }
    // Ladder tier 4: another round over the replicas still routable,
    // after a backoff that must end inside the budget.
    std::vector<int> again;
    for (int r : health_->PreferenceOrder()) {
      const size_t i = static_cast<size_t>(r);
      if (legs_to[i] < max_legs_per_replica &&
          (legs_to[i] == 0 || transient[i])) {
        again.push_back(r);
      }
    }
    if (again.empty()) return outcome;
    const double backoff = BackoffSeconds(round++, retry_after_ms);
    retry_after_ms = 0;
    if (deadline != Clock::time_point::max() &&
        Clock::now() + FromSeconds(backoff) >= deadline) {
      return budget_exhausted();
    }
    if (backoff > 0) std::this_thread::sleep_for(FromSeconds(backoff));
    order = std::move(again);
    next = 0;
    launch(order[next++], /*hedge=*/false);
  }
}

void ReplicaSet::ProbeOnce() {
  for (int r = 0; r < replicas(); ++r) {
    const ReplicaHealth state = health_->state(r);
    if (state == ReplicaHealth::kProbing) continue;  // probe in flight
    if (state == ReplicaHealth::kDown && !health_->TryAdmitProbe(r)) {
      continue;  // cooldown still running
    }
    counters_[static_cast<size_t>(r)].probes.fetch_add(
        1, std::memory_order_relaxed);
    const Clock::time_point start = Clock::now();
    Status status = FailpointCheck(failpoints_[static_cast<size_t>(r)].c_str());
    // Remote replicas get a real reachability check: the link reuses a
    // pooled connection or dials. In-process replicas have no transport
    // to probe — the failpoint verdict is the whole check.
    if (status.ok() && !remote_links_.empty()) {
      status = remote_links_[static_cast<size_t>(r)]->Probe(
          config_.probe_timeout_seconds);
    }
    const double latency = Seconds(Clock::now() - start);
    if (status.ok()) {
      health_->ReportSuccess(r, latency);
    } else {
      health_->ReportFailure(r);
    }
  }
}

ReplicaSetStats ReplicaSet::Stats() const {
  ReplicaSetStats stats;
  stats.replicas.resize(counters_.size());
  for (size_t r = 0; r < counters_.size(); ++r) {
    ReplicaSetStats::Replica& out = stats.replicas[r];
    const LegCounters& c = counters_[r];
    out.health = health_->state(static_cast<int>(r));
    out.served = c.served.load(std::memory_order_relaxed);
    out.failed_over = c.failed_over.load(std::memory_order_relaxed);
    out.hedge_won = c.hedge_won.load(std::memory_order_relaxed);
    out.leg_failures = c.leg_failures.load(std::memory_order_relaxed);
    out.probes = c.probes.load(std::memory_order_relaxed);
    out.transitions = health_->transitions(static_cast<int>(r));
    out.ewma_latency_seconds =
        health_->ewma_latency_seconds(static_cast<int>(r));
  }
  stats.hedges_launched = hedges_launched_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace ppgnn
