// ReplicaSet: R interchangeable replicas of one POI slice behind one
// resilience ladder — one shard of the replicated cluster.
//
// In-process, each replica is its own LspService over its own
// LspDatabase copy of the slice; in remote mode it sits behind a
// factory-built ServiceLink (a TcpLink dialing a TcpShardServer). Either
// way the set reaches a replica only through ServiceLink::Submit: every
// query leg is one Submit with one completion callback, so a call starts
// no threads, and failover, hedging and health work the same in-process
// and over TCP. Because the slice data is identical and the shard wire
// is deterministic, every replica computes the same ShardAnswer bytes
// for the same query; Call() may therefore fail over, hedge or retry
// freely without changing a single answer bit.
//
// This is the only ladder a shard leg climbs. Call() reads the cluster's
// RetryPolicy (`link_policy`) and walks:
//   1. the health monitor's preference order picks the primary (lowest
//      routable replica index — stable under flapping, see health.h);
//   2. a hedge leg to the next-preferred replica launches if the
//      primary is silent past a p99-derived delay; the first decisive
//      answer wins, and the loser's late callback lands harmlessly in
//      the call's shared state;
//   3. a failed leg (any error but kMalformed) fails over to the next
//      preferred replica;
//   4. once every preferred replica has failed, further rounds run
//      after a jittered backoff (or the server's retry_after hint) over
//      the replicas that are still routable; a replica already tried is
//      tried again only after a transient failure
//      (ResilientClient::IsRetryable, or an undecodable reply), and at
//      most `max_attempts` legs go to one replica per call;
//   5. when *no* replica is routable, one half-open probe may carry the
//      real query (a down set's fastest path back to serving);
//   6. only when all of that fails, or the budget ends, does the caller
//      see an unanswered outcome — the coordinator's degraded merge, the
//      ladder's last tier.
//
// The `shard.replica.<shard>.<replica>` failpoint is evaluated in each
// leg's completion path, on the link's own thread (a replica worker
// in-process, the TcpLink worker remotely): an injected delay holds the
// reply back without blocking the caller, so the hedge still fires; an
// injected error replaces the reply. ProbeOnce checks it synchronously.
// Leg outcomes feed the health state machine.

#ifndef PPGNN_SERVICE_REPLICA_SET_H_
#define PPGNN_SERVICE_REPLICA_SET_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.h"
#include "net/latency.h"
#include "service/health.h"
#include "service/lsp_service.h"
#include "service/resilient_client.h"

namespace ppgnn {

struct ReplicaSetConfig {
  /// Independent replicas of the slice (>= 1).
  int replicas = 1;
  /// Per-replica LspService config (plaintext shard kGNN — keep modest).
  ServiceConfig service;
  /// The ladder's policy: hedge and hedge delays for the cross-replica
  /// hedge, max_attempts as the bound on legs per replica per call, and
  /// the budget, backoff, jitter, retry_after and seed fields for the
  /// rounds after every preferred replica failed. The seed is perturbed
  /// per shard. The breaker and tag_idempotency fields are read only by
  /// ResilientClient.
  RetryPolicy link_policy;
  HealthConfig health;
  /// Remote mode: when set, the factory builds the ServiceLink for
  /// (shard, replica) — e.g. a TcpLink dialing a TcpShardServer — and
  /// the set builds *no* local databases or services; `service` is
  /// ignored. The ladder is otherwise identical, and the link's
  /// connectivity observer feeds down-edges into the health monitor so
  /// a severed socket demotes the replica even between queries.
  std::function<std::unique_ptr<ServiceLink>(int shard, int replica)>
      link_factory;
  /// ProbeOnce dial budget per remote replica (remote mode only).
  double probe_timeout_seconds = 0.25;
};

/// What one replicated call did, for the coordinator's ladder counters.
struct ReplicaCallOutcome {
  bool answered = false;
  std::vector<uint8_t> frame;  ///< winning ResponseFrame bytes
  ErrorMessage error;          ///< set when !answered
  int served_by = -1;          ///< replica index that produced `frame`
  bool failed_over = false;    ///< a non-primary leg answered after failures
  bool hedge_won = false;      ///< the hedge leg's answer was used
  int legs = 0;                ///< query legs launched, of every kind
};

/// Per-replica ladder counters, snapshotted into ServiceStats.
struct ReplicaSetStats {
  struct Replica {
    ReplicaHealth health = ReplicaHealth::kHealthy;
    uint64_t served = 0;        ///< legs whose answer won a call
    uint64_t failed_over = 0;   ///< wins that were failover legs
    uint64_t hedge_won = 0;     ///< wins that were hedge legs
    uint64_t leg_failures = 0;  ///< legs that ended unanswered
    uint64_t probes = 0;        ///< health probes run against this replica
    uint64_t transitions = 0;   ///< health-state transitions
    double ewma_latency_seconds = 0.0;
  };
  std::vector<Replica> replicas;
  uint64_t hedges_launched = 0;
};

class ReplicaSet {
 public:
  /// Builds R databases/services (or R remote links) over copies of
  /// `slice`.
  ReplicaSet(int shard_index, std::vector<Poi> slice, ReplicaSetConfig config);
  ~ReplicaSet();

  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  /// Runs one shard query to a decisive outcome under the ladder. The
  /// call's budget is the tighter of `budget_seconds` and the policy's
  /// total_budget_seconds (<= 0 means no bound from that side); every
  /// leg carries the remaining budget as its deadline. Thread-safe.
  ReplicaCallOutcome Call(const ServiceRequest& request,
                          double budget_seconds);

  /// One probe pass: healthy/suspect replicas are probed directly; a
  /// down replica is probed only if its half-open gate admits. Called
  /// by the coordinator's background prober and by tests.
  void ProbeOnce();

  ReplicaSetStats Stats() const;
  HealthMonitor& health() { return *health_; }
  int replicas() const { return static_cast<int>(links_.size()); }
  /// True when the set reaches its replicas over caller-built links
  /// (link_factory) instead of in-process services.
  bool remote() const { return !remote_links_.empty(); }
  /// In-process mode only — remote replicas live behind their links.
  LspService& replica_service(int replica) {
    return *services_[static_cast<size_t>(replica)];
  }

  /// Stops the replica services (draining in-flight legs, whose
  /// callbacks therefore finish first) and closes remote links (joining
  /// their workers). Idempotent.
  void Shutdown();

 private:
  using Clock = std::chrono::steady_clock;

  // ppgnn: stat_counter(served, failed_over, hedge_won, leg_failures)
  // ppgnn: stat_counter(probes, hedges_launched_)
  struct LegCounters {
    std::atomic<uint64_t> served{0};
    std::atomic<uint64_t> failed_over{0};
    std::atomic<uint64_t> hedge_won{0};
    std::atomic<uint64_t> leg_failures{0};
    std::atomic<uint64_t> probes{0};
  };

  /// One finished leg, as its completion callback classified it.
  struct LegResult;
  /// The replies of one Call(), shared with its legs' callbacks.
  struct InFlightCall;

  /// Submits one leg; its callback appends the classified result to
  /// `call` (which outlives Call() for as long as a loser is in flight).
  void SubmitLeg(const std::shared_ptr<InFlightCall>& call, int replica,
                 ServiceRequest request);
  /// Runs on the link's thread: failpoint, frame classification, health
  /// report and counters for one leg.
  LegResult FinishLeg(int replica, Clock::time_point submitted,
                      std::vector<uint8_t> frame);
  double HedgeDelaySeconds() const;
  /// Jittered pause before retry round `round + 1`: the server's
  /// retry_after hint when honored and present, else capped exponential.
  double BackoffSeconds(int round, uint64_t retry_after_ms);

  const int shard_index_;
  const ReplicaSetConfig config_;
  std::vector<std::string> failpoints_;  ///< shard.replica.<s>.<r>
  std::vector<std::unique_ptr<LspDatabase>> dbs_;
  std::vector<std::unique_ptr<LspService>> services_;
  /// Remote mode: the factory-built links. Closed in Shutdown *before*
  /// health_ could die under an observer or a leg callback.
  std::vector<std::unique_ptr<ServiceLink>> remote_links_;
  /// Each replica's link: its LspService in-process, its remote link
  /// otherwise.
  std::vector<ServiceLink*> links_;
  std::unique_ptr<HealthMonitor> health_;
  std::vector<LegCounters> counters_;
  std::atomic<uint64_t> hedges_launched_{0};
  LatencyHistogram leg_latency_;

  std::mutex rng_mu_;
  // ppgnn: guarded_by(rng_, rng_mu_)
  Rng rng_;  ///< backoff jitter between retry rounds
};

}  // namespace ppgnn

#endif  // PPGNN_SERVICE_REPLICA_SET_H_
