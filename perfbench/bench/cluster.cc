#include "cluster.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/candidate.h"
#include "core/wire.h"
#include "gate.h"
#include "net/cost.h"
#include "net/transport/fleet.h"
#include "service/shard_coordinator.h"
#include "service/workload.h"
#include "spatial/dataset.h"

namespace perfbench {

using namespace ppgnn;

namespace {

using Clock = std::chrono::steady_clock;

// The cluster shape and traffic contract of both cluster workloads.
constexpr int kShards = 4;
constexpr int kReplicas = 2;
constexpr int kFrontWorkers = 4;
constexpr int kShardWorkers = 4;
constexpr size_t kQueueCapacity = 64;
/// Wire deadline stamped into every query (no idempotency keys).
constexpr uint64_t kDeadlineMs = 500;
/// A ladder rung is sustained when p99 stays within this limit with no
/// refusals, no errors and no growing backlog.
constexpr double kP99LimitMs = 20.0;

/// Times every request through a fleet link, Submit to callback, and
/// otherwise forwards to it unchanged.
class TimingLink : public ServiceLink {
 public:
  TimingLink(std::unique_ptr<ServiceLink> inner, LatencyHistogram* legs)
      : inner_(std::move(inner)), legs_(legs) {}

  bool Submit(ServiceRequest request, Callback done) override {
    const Clock::time_point start = Clock::now();
    return inner_->Submit(
        std::move(request),
        [legs = legs_, start, done = std::move(done)](std::vector<uint8_t> b) {
          legs->Record(
              std::chrono::duration<double>(Clock::now() - start).count());
          done(std::move(b));
        });
  }
  void RecordClientRetry() override { inner_->RecordClientRetry(); }
  void RecordClientHedge() override { inner_->RecordClientHedge(); }
  void SetConnectivityObserver(std::function<void(bool)> observer) override {
    inner_->SetConnectivityObserver(std::move(observer));
  }
  Status Probe(double timeout_seconds) override {
    return inner_->Probe(timeout_seconds);
  }
  void Close() override { inner_->Close(); }

  const TcpLink* tcp() const { return dynamic_cast<const TcpLink*>(inner_.get()); }

 private:
  std::unique_ptr<ServiceLink> inner_;
  LatencyHistogram* legs_;
};

/// One started cluster: the sharded service and, in TCP mode, the
/// loopback fleet it dials. With `timed_links`, every fleet link is
/// wrapped in a TimingLink.
class Cluster {
 public:
  Cluster(const ClusterConfig& config, const std::vector<Poi>& pois,
          uint64_t seed, bool timed_links) {
    ShardClusterConfig cc;
    cc.shards = kShards;
    cc.replicas = kReplicas;
    cc.front.workers = kFrontWorkers;
    cc.front.queue_capacity = kQueueCapacity;
    cc.front.sanitize = config.params.sanitize;
    cc.shard.workers = kShardWorkers;
    cc.link_policy.seed = seed ^ 0x5a4dULL;
    cc.background_prober = true;
    if (config.tcp) {
      LoopbackFleetConfig fc;
      fc.shards = kShards;
      fc.replicas = kReplicas;
      fc.shard_service.workers = kShardWorkers;
      fleet_ = std::make_unique<LoopbackShardFleet>(pois, fc);
      Status started = fleet_->Start();
      if (!started.ok()) {
        std::fprintf(stderr, "perfbench: fleet start: %s\n",
                     started.ToString().c_str());
        std::exit(1);
      }
      auto factory = fleet_->LinkFactory();
      if (timed_links) {
        cc.link_factory = [this, factory](int shard, int replica) {
          auto link = std::make_unique<TimingLink>(factory(shard, replica),
                                                   &legs_);
          std::lock_guard<std::mutex> lock(links_mu_);
          links_.push_back(link.get());
          return std::unique_ptr<ServiceLink>(std::move(link));
        };
      } else {
        cc.link_factory = factory;
      }
    }
    service_ = std::make_unique<ShardedLspService>(pois, std::move(cc));
  }

  ~Cluster() { Shutdown(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  ShardedLspService& service() { return *service_; }

  /// The LspService behind replica r of shard s, local or fleet-side.
  LspService& replica_service(int s, int r) {
    return fleet_ != nullptr ? fleet_->service(s, r)
                             : service_->replica_set(s).replica_service(r);
  }

  LatencySummary legs() const { return legs_.Summarize(); }
  TcpLinkStats link_totals() {
    TcpLinkStats total;
    std::lock_guard<std::mutex> lock(links_mu_);
    for (const TimingLink* link : links_) {
      if (link->tcp() == nullptr) continue;
      const TcpLinkStats s = link->tcp()->Stats();
      total.dials += s.dials;
      total.io_errors += s.io_errors;
    }
    return total;
  }

  void Shutdown() {
    if (service_ != nullptr) service_->Shutdown();
    if (fleet_ != nullptr) fleet_->Shutdown(5.0);
  }

 private:
  std::unique_ptr<LoopbackShardFleet> fleet_;
  LatencyHistogram legs_;
  std::mutex links_mu_;
  std::vector<const TimingLink*> links_;  // guarded by links_mu_
  /// Declared last: shut down and destroyed first, while the fleet and
  /// the leg histogram its links report to are still alive.
  std::unique_ptr<ShardedLspService> service_;
};

struct ClusterSetup {
  std::vector<Poi> pois;
  std::unique_ptr<LspDatabase> db;
  KeyPair keys;
  std::vector<ServiceRequest> pool;
  std::vector<std::vector<uint8_t>> references;
  std::vector<size_t> request_bytes;
  std::vector<size_t> answer_pois;
  std::vector<double> build_cpu_ms;
  std::vector<double> parse_cpu_ms;
};

/// Dataset, single-node database, session key, request pool, reference
/// frames from a single-node LspService, decrypted reference answers,
/// then a cluster start with a closed-loop warm-up that must match the
/// references. `repeat` only perturbs the key seed.
ClusterSetup BuildSetup(const ClusterConfig& config, uint64_t seed,
                        int repeat) {
  ClusterSetup setup;
  setup.pois = GenerateSequoiaLike(config.db_size, seed);
  setup.db = std::make_unique<LspDatabase>(setup.pois);
  Rng key_rng(seed * 0x9e3779b97f4a7c15ULL + 0x6b657973ULL +
              static_cast<uint64_t>(repeat));
  setup.keys = ValueOrDie(GenerateKeyPair(config.params.key_bits, key_rng));

  Rng rng(seed ^ 0x706f6f6cULL);
  RequestWireOptions wire;
  wire.deadline_ms = kDeadlineMs;
  // The user-side CPU loops take turns over the CPUs; the rotation ends
  // before any service starts its threads.
  std::optional<CpuRotation> rotation(std::in_place);
  for (size_t i = 0; i < config.pool_size; ++i) {
    std::vector<Point> group = RandomGroup(config.params.n, rng);
    rotation->Pin(i);
    const double t0 = ThreadCpuSeconds();
    setup.pool.push_back(ValueOrDie(BuildServiceRequest(
        Variant::kPpgnn, config.params, group, setup.keys, rng, wire)));
    setup.build_cpu_ms.push_back((ThreadCpuSeconds() - t0) * 1e3);
    size_t bytes = setup.pool.back().query.size();
    for (const auto& upload : setup.pool.back().uploads) bytes += upload.size();
    setup.request_bytes.push_back(bytes);
  }
  rotation.reset();

  {
    ServiceConfig single;
    single.workers = kFrontWorkers;
    single.queue_capacity = config.pool_size;
    single.sanitize = config.params.sanitize;
    LspService reference(*setup.db, single);
    for (const ServiceRequest& request : setup.pool) {
      setup.references.push_back(reference.Call(request));
    }
    reference.Shutdown();
  }
  Decryptor dec(setup.keys.pub, setup.keys.sec);
  rotation.emplace();
  for (const auto& frame : setup.references) {
    rotation->Pin(setup.parse_cpu_ms.size());
    const double t0 = ThreadCpuSeconds();
    ServedReply reply =
        ValueOrDie(ParseServedReply(frame, setup.keys, dec, false));
    setup.parse_cpu_ms.push_back((ThreadCpuSeconds() - t0) * 1e3);
    if (!reply.ok) {
      std::fprintf(stderr, "perfbench: single-node reference refused: %s\n",
                   reply.error.detail.c_str());
      std::exit(1);
    }
    setup.answer_pois.push_back(reply.pois.size());
  }
  rotation.reset();

  // A stalled host may shed a warm-up request past its wire deadline;
  // anything else that is not the single-node frame stops the run.
  Cluster cluster(config, setup.pois, seed, false);
  for (size_t i = 0; i < config.warmup_requests; ++i) {
    const size_t slot = i % setup.pool.size();
    const FrameVerdict verdict = JudgeFrame(
        cluster.service().Call(setup.pool[slot]), setup.references[slot]);
    if (verdict != FrameVerdict::kCorrect && verdict != FrameVerdict::kRefused) {
      std::fprintf(stderr, "perfbench: warm-up reply %zu is not the "
                           "single-node frame\n", i);
      std::exit(1);
    }
  }
  return setup;
}

struct PhaseOutcome {
  PhaseSpec spec;
  double seconds = 0.0;  ///< first due time to last reply
  uint64_t sent = 0, correct = 0, wrong = 0, refused = 0, errors = 0,
           undecodable = 0, lost = 0;
  /// Reply latencies (from the due time) in consecutive windows of send
  /// order, and the process CPU per request in each window (load
  /// generator excluded).
  std::vector<std::vector<double>> window_latency_ms;
  std::vector<double> window_cpu_ms;
  double max_late_ms = 0.0, late_frac = 0.0;
  uint64_t outstanding_at_end = 0;
  /// Correct answers per second of sending, per window.
  std::vector<double> window_goodput;
  ProcessSample peak;
  double comm_kb = 0.0, pois = 0.0;
  ServiceStats front;
  std::vector<ServiceStats> replicas;
  std::vector<ReplicaSetStats> sets;
  LatencySummary legs;
  TcpLinkStats links;

  uint64_t failures() const { return wrong + refused + errors + undecodable + lost; }
  /// Replies that fail the run: anything but a correct answer or a
  /// refusal. A refusal is the cluster shedding load it cannot carry at
  /// that moment, which a stretch of hypervisor steal can cause at any
  /// rate; answered_frac and failed_frac count it.
  uint64_t run_failures() const { return wrong + errors + undecodable + lost; }
  double throughput() const {
    return seconds > 0 ? static_cast<double>(correct) / seconds : 0.0;
  }
  /// Median over windows of the correct answers per second.
  double goodput() const { return Median(window_goodput); }
};

/// Replies of one phase, filled in by service callbacks.
struct PhaseState {
  explicit PhaseState(size_t n) : done_s(n, 0.0), verdict(n), replied(n, 0) {}
  std::mutex mu;
  std::condition_variable cv;
  // All guarded by mu.
  std::vector<double> done_s;  ///< reply time minus due time
  std::vector<FrameVerdict> verdict;
  std::vector<uint8_t> replied;
  size_t completed = 0;
  double last_reply = 0.0;
};

/// Samples /proc/self/status every few milliseconds until stopped.
class ResourceSampler {
 public:
  ResourceSampler() : thread_([this] { Loop(); }) {}
  ~ResourceSampler() { Stop(); }
  ResourceSampler(const ResourceSampler&) = delete;
  ResourceSampler& operator=(const ResourceSampler&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  ProcessSample peak() const { return peak_; }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      const ProcessSample s = SampleProcess();
      peak_.threads = std::max(peak_.threads, s.threads);
      peak_.rss_mb = std::max(peak_.rss_mb, s.rss_mb);
      cv_.wait_for(lock, std::chrono::milliseconds(5), [this] { return stop_; });
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  ProcessSample peak_;
  std::thread thread_;
};

/// A phase's latency quantiles, CPU cost and goodput are taken per window
/// of consecutive requests and reported as the median over windows, so
/// one transient stall of the host moves one window, not the result.
/// Windows hold at least kRequestsPerWindow requests, and a phase has at
/// most kMaxWindows of them: at --seconds 40, the reference phase of an
/// untraced run has 16 windows of 500 requests.
constexpr size_t kRequestsPerWindow = 250;
constexpr size_t kMaxWindows = 16;

/// Runs one phase on a freshly started cluster. With `trace`, the fleet
/// links are timed and a ResourceSampler watches the process; an
/// untraced phase runs neither, so its CPU cost is the cluster's alone.
PhaseOutcome RunPhase(const ClusterConfig& config, const ClusterSetup& setup,
                      const PhaseSpec& spec, double seconds, uint64_t seed,
                      bool trace) {
  PhaseOutcome out;
  out.spec = spec;
  Cluster cluster(config, setup.pois, seed, trace);
  const size_t n = std::max<size_t>(1, static_cast<size_t>(spec.rate * seconds));
  auto state = std::make_shared<PhaseState>(n);
  const size_t pool = setup.pool.size();

  const size_t windows =
      std::clamp<size_t>(n / kRequestsPerWindow, 1, kMaxWindows);
  auto window_of = [&](size_t i) { return i * windows / n; };
  // CPU of the process and of this (dispatcher) thread at each window
  // boundary, plus one after the drain; wall time at each window boundary,
  // plus one when sending ended.
  std::vector<double> process_cpu, dispatcher_cpu, window_start;
  auto sample_cpu = [&] {
    process_cpu.push_back(ProcessCpuSeconds());
    dispatcher_cpu.push_back(ThreadCpuSeconds());
  };

  std::optional<ResourceSampler> sampler;
  if (trace) sampler.emplace();
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  const auto interval = std::chrono::duration<double>(1.0 / spec.rate);
  uint64_t late = 0;
  for (size_t i = 0; i < n; ++i) {
    if (process_cpu.size() <= window_of(i)) {
      sample_cpu();
      window_start.push_back(NowSeconds());
    }
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(interval * i);
    std::this_thread::sleep_until(due);
    const double late_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - due).count();
    out.max_late_ms = std::max(out.max_late_ms, late_ms);
    if (late_ms > 1.0) late++;
    const std::vector<uint8_t>* reference = &setup.references[i % pool];
    (void)cluster.service().Submit(
        setup.pool[i % pool],
        [state, i, due, start, reference](std::vector<uint8_t> frame) {
          const Clock::time_point now = Clock::now();
          const FrameVerdict verdict = JudgeFrame(frame, *reference);
          std::lock_guard<std::mutex> lock(state->mu);
          state->done_s[i] = std::chrono::duration<double>(now - due).count();
          state->verdict[i] = verdict;
          state->replied[i] = 1;
          state->last_reply = std::max(
              state->last_reply,
              std::chrono::duration<double>(now - start).count());
          if (++state->completed == state->done_s.size()) state->cv.notify_all();
        });
  }
  window_start.push_back(NowSeconds());
  out.sent = n;
  out.late_frac = static_cast<double>(late) / static_cast<double>(n);
  {
    std::unique_lock<std::mutex> lock(state->mu);
    out.outstanding_at_end = n - state->completed;
    state->cv.wait_for(
        lock,
        std::chrono::milliseconds(static_cast<int64_t>(kDeadlineMs) +
                                  5000),
        [&] { return state->completed == n; });
    out.seconds = std::max(state->last_reply, seconds);
  }
  sample_cpu();
  if (sampler) {
    sampler->Stop();
    out.peak = sampler->peak();
  }

  out.front = cluster.service().Stats();
  for (int s = 0; s < kShards; ++s) {
    out.sets.push_back(cluster.service().replica_set(s).Stats());
    for (int r = 0; r < kReplicas; ++r) {
      out.replicas.push_back(cluster.replica_service(s, r).Stats());
    }
  }
  out.legs = cluster.legs();
  out.links = cluster.link_totals();
  cluster.Shutdown();

  // Shutdown answered whatever was still in flight, so only replies the
  // cluster never delivered at all count as lost.
  std::lock_guard<std::mutex> lock(state->mu);
  out.lost = n - state->completed;
  double comm_bytes = 0.0, pois = 0.0;
  out.window_latency_ms.resize(windows);
  std::vector<size_t> window_sent(windows, 0), window_correct(windows, 0);
  for (size_t i = 0; i < n; ++i) {
    window_sent[window_of(i)]++;
    comm_bytes += static_cast<double>(setup.request_bytes[i % pool] +
                                      setup.references[i % pool].size());
    pois += static_cast<double>(setup.answer_pois[i % pool]);
    if (!state->replied[i]) continue;
    switch (state->verdict[i]) {
      case FrameVerdict::kCorrect:
        // Only correct answers are timed: a fast refusal must not lower
        // the latency figures.
        out.correct++;
        window_correct[window_of(i)]++;
        out.window_latency_ms[window_of(i)].push_back(state->done_s[i] * 1e3);
        break;
      case FrameVerdict::kWrongAnswer: out.wrong++; break;
      case FrameVerdict::kRefused: out.refused++; break;
      case FrameVerdict::kErrorFrame: out.errors++; break;
      case FrameVerdict::kUndecodable: out.undecodable++; break;
    }
  }
  out.comm_kb = comm_bytes / 1024.0 / static_cast<double>(n);
  out.pois = pois / static_cast<double>(n);
  for (size_t w = 0; w < windows; ++w) {
    const double cpu = (process_cpu[w + 1] - process_cpu[w]) -
                       (dispatcher_cpu[w + 1] - dispatcher_cpu[w]);
    out.window_cpu_ms.push_back(cpu * 1e3 /
                                static_cast<double>(window_sent[w]));
    const double sending = window_start[w + 1] - window_start[w];
    if (sending > 0) {
      out.window_goodput.push_back(static_cast<double>(window_correct[w]) /
                                   sending);
    }
  }
  return out;
}

void PrintPhase(const std::string& name, const PhaseOutcome& o) {
  std::fprintf(stderr,
               "perfbench: %-14s sent %6llu correct %6llu refused %5llu "
               "errors %4llu p50 %7.2f p99 %8.2f ms  late %.3f  threads %d\n",
               name.c_str(), static_cast<unsigned long long>(o.sent),
               static_cast<unsigned long long>(o.correct),
               static_cast<unsigned long long>(o.refused),
               static_cast<unsigned long long>(o.errors),
               WindowedQuantile(o.window_latency_ms, 0.5),
               WindowedQuantile(o.window_latency_ms, 0.99), o.late_frac,
               o.peak.threads);
}

/// A rung is sustained when its p99 meets the limit, every reply is a
/// correct answer, and the backlog did not grow while sending.
bool Sustained(const PhaseOutcome& phase) {
  const double backlog_limit =
      std::max(8.0, phase.spec.rate * kP99LimitMs / 1e3);
  return phase.failures() == 0 &&
         WindowedQuantile(phase.window_latency_ms, 0.99) <= kP99LimitMs &&
         static_cast<double>(phase.outstanding_at_end) <= backlog_limit;
}

/// Median wall time of the single-node LspHandleQuery on the pool, and of
/// LspHandleShardQuery on shard 0's slice (one leg's floor).
struct SingleNodeFloor {
  double handle_query_ms = 0.0;
  double shard_query_us = 0.0;
};

SingleNodeFloor MeasureFloor(const ClusterConfig& config,
                             const ClusterSetup& setup) {
  SingleNodeFloor floor;
  LspDatabase slice(PartitionPoisForShards(setup.pois, kShards)[0]);
  std::vector<double> full_ms, shard_us;
  for (const ServiceRequest& request : setup.pool) {
    double t0 = NowSeconds();
    (void)ValueOrDie(LspHandleQuery(*setup.db, request.query,
                                    request.uploads, config.params.test,
                                    config.params.sanitize, 1));
    full_ms.push_back((NowSeconds() - t0) * 1e3);

    QueryMessage query = ValueOrDie(QueryMessage::Decode(request.query));
    std::vector<LocationSet> sets(request.uploads.size());
    for (const auto& bytes : request.uploads) {
      LocationSetMessage msg = ValueOrDie(LocationSetMessage::Decode(bytes));
      sets[msg.user_id] = std::move(msg.locations);
    }
    ShardQueryMessage shard_query;
    shard_query.k = query.k;
    shard_query.aggregate = query.aggregate;
    auto candidates = ValueOrDie(GenerateCandidateQueries(query.plan, sets));
    for (size_t c = 0; c < candidates.size(); ++c) {
      shard_query.candidates.push_back({c, std::move(candidates[c])});
    }
    std::vector<uint8_t> bytes = ValueOrDie(shard_query.Encode());
    t0 = NowSeconds();
    (void)ValueOrDie(LspHandleShardQuery(slice, bytes));
    shard_us.push_back((NowSeconds() - t0) * 1e6);
  }
  floor.handle_query_ms = Median(full_ms);
  floor.shard_query_us = Median(shard_us);
  return floor;
}

double ToMs(double seconds) { return seconds * 1e3; }

/// Count-weighted mean of the replica services' quantiles.
double ReplicaP50Ms(const std::vector<ServiceStats>& replicas,
                    LatencySummary ServiceStats::*field) {
  double weighted = 0.0, count = 0.0;
  for (const ServiceStats& s : replicas) {
    const LatencySummary& summary = s.*field;
    weighted += summary.p50_seconds * static_cast<double>(summary.count);
    count += static_cast<double>(summary.count);
  }
  return count > 0 ? ToMs(weighted / count) : 0.0;
}

}  // namespace

ClusterConfig ClusterInprocConfig() {
  ClusterConfig config;
  config.params.n = 3;
  config.params.d = 4;
  config.params.delta = 8;
  config.params.k = 3;
  config.params.key_bits = 256;
  config.params.sanitize = false;
  return config;
}

ClusterConfig ClusterTcpConfig() {
  ClusterConfig config = ClusterInprocConfig();
  config.tcp = true;
  return config;
}

RunResult RunClusterWorkload(const ClusterConfig& config, uint64_t seed,
                             double seconds, bool trace) {
  RunResult result;
  MetricSet& metrics = result.metrics;

  ClusterSetup setup;
  std::vector<double> setup_s, user_cpu_ms;
  for (int r = 0; r < std::max(config.setup_repeats, 1); ++r) {
    setup = ClusterSetup();
    const double t0 = NowSeconds();
    setup = BuildSetup(config, seed, r);
    setup_s.push_back(NowSeconds() - t0);
    user_cpu_ms.push_back(Median(setup.build_cpu_ms) +
                          Median(setup.parse_cpu_ms));
  }
  if (config.corrupt_reference) setup.references[0].back() ^= 0x01;
  result.attempted = config.warmup_requests;

  // Phase lengths, as shares of the run. The end-to-end metrics come
  // from the reference rung and the over-capacity phase only, so an
  // untraced run spends 80% of the run on the first and 20% on the
  // second. A traced run repeats the reference rung untraced (30%), then
  // runs every phase traced: the reference rung 30%, the probe rungs 28%
  // between them, the over-capacity phase 12%.
  const std::vector<PhaseSpec>& phases = ClusterPhases();
  const double probes = static_cast<double>(phases.size() - 2);
  auto phase_seconds = [&](const PhaseSpec& p) {
    switch (p.kind) {
      case PhaseKind::kOver: return (trace ? 0.12 : 0.20) * seconds;
      case PhaseKind::kProbe: return 0.28 * seconds / probes;
      case PhaseKind::kBelow: break;
    }
    return (trace ? 0.30 : 0.80) * seconds;
  };

  PhaseOutcome untraced_reference;
  if (trace) {
    const PhaseSpec* ref = nullptr;
    for (const PhaseSpec& p : phases) {
      if (p.rate == ReferenceRate()) ref = &p;
    }
    untraced_reference =
        RunPhase(config, setup, *ref, phase_seconds(*ref), seed, false);
    result.attempted += untraced_reference.sent;
    PrintPhase("untraced " + ref->name, untraced_reference);
  }

  std::vector<PhaseOutcome> outcomes;
  for (const PhaseSpec& spec : phases) {
    if (!trace && spec.kind == PhaseKind::kProbe) continue;
    outcomes.push_back(
        RunPhase(config, setup, spec, phase_seconds(spec), seed, trace));
    PrintPhase(spec.name, outcomes.back());
  }

  // Refusals at the reference rate count in answered_frac and
  // failed_frac, those in a probe rung fail that rung's sustained check,
  // and those of the over-capacity phase go to lsp_service.refused_frac.
  uint64_t below_sent = 0, below_failures = 0, behind = 0;
  for (const PhaseOutcome& o : outcomes) {
    result.attempted += o.sent;
    result.failed += o.run_failures();
    if (o.spec.kind == PhaseKind::kBelow) {
      below_sent += o.sent;
      below_failures += o.failures();
    }
    if (o.late_frac > 0.05) {
      behind++;
      std::fprintf(stderr,
                   "perfbench: load generator fell behind in phase %s "
                   "(%.1f%% of sends over 1 ms late); its numbers measure "
                   "the scheduler\n",
                   o.spec.name.c_str(), 100.0 * o.late_frac);
    }
  }
  if (trace) result.failed += untraced_reference.run_failures();
  result.correct = result.failed == 0;

  const PhaseOutcome* ref = nullptr;
  const PhaseOutcome* over = nullptr;
  const PhaseOutcome* sustained = nullptr;
  for (const PhaseOutcome& o : outcomes) {
    if (o.spec.kind == PhaseKind::kOver) {
      over = &o;
    } else {
      if (o.spec.rate == ReferenceRate()) ref = &o;
      if (Sustained(o)) sustained = &o;
    }
  }

  if (!trace) {
    metrics.Set("setup_s", Median(setup_s));
    metrics.Set("latency_p50_ms", WindowedQuantile(ref->window_latency_ms, 0.50));
    metrics.Set("user_cpu_ms", Median(user_cpu_ms));
    metrics.Set("lsp_cpu_ms", Median(ref->window_cpu_ms));
    metrics.Set("comm_kb", ref->comm_kb);
    metrics.Set("pois_returned", ref->pois);
    metrics.Set("goodput_qps", over->goodput());
    metrics.Set("answered_frac", static_cast<double>(ref->correct) /
                                     static_cast<double>(ref->sent));
    return result;
  }

  const SingleNodeFloor floor = MeasureFloor(config, setup);
  const ServiceStats& front = ref->front;
  metrics.Set("lsp_service.queue_wait_p50_ms", ToMs(front.queue_wait.p50_seconds));
  metrics.Set("lsp_service.queue_wait_p99_ms", ToMs(front.queue_wait.p99_seconds));
  metrics.Set("lsp_service.execute_p50_ms", ToMs(front.execute.p50_seconds));
  metrics.Set("lsp_service.execute_p99_ms", ToMs(front.execute.p99_seconds));
  metrics.Set("lsp_service.refused_frac",
              static_cast<double>(over->refused) / static_cast<double>(over->sent));
  metrics.Set("lsp_service.shed", static_cast<double>(over->front.shed));
  metrics.Set("lsp_service.concurrency_limit",
              static_cast<double>(over->front.concurrency_limit));
  uint64_t legs_started = 0, legs_merged = 0;
  for (const ServiceStats& s : ref->replicas) legs_started += s.accepted + s.rejected;
  for (const ReplicaSetStats& set : ref->sets) {
    for (const auto& replica : set.replicas) legs_merged += replica.served;
  }
  metrics.Set("shard_coordinator.legs_per_query",
              front.served > 0 ? static_cast<double>(legs_started) /
                                     static_cast<double>(front.served)
                               : 0.0);
  metrics.Set("shard_coordinator.overhead_ms",
              ToMs(front.execute.p50_seconds) - floor.handle_query_ms);
  metrics.Set("replica_set.execute_p50_ms",
              ReplicaP50Ms(ref->replicas, &ServiceStats::execute));
  metrics.Set("replica_set.queue_wait_p50_ms",
              ReplicaP50Ms(ref->replicas, &ServiceStats::queue_wait));
  metrics.Set("replica_set.useful_leg_frac",
              legs_started > 0 ? static_cast<double>(legs_merged) /
                                     static_cast<double>(legs_started)
                               : 0.0);
  metrics.Set("replica_set.hedge_wins", static_cast<double>(front.replica_hedge_wins));
  metrics.Set("replica_set.failovers", static_cast<double>(front.replica_failovers));
  metrics.Set("replica_set.health_transitions",
              static_cast<double>(front.health_transitions));
  metrics.Set("gnn.shard_query_us", floor.shard_query_us);
  metrics.Set("transport.leg_p50_ms", ToMs(ref->legs.p50_seconds));
  metrics.Set("transport.leg_p99_ms", ToMs(ref->legs.p99_seconds));
  metrics.Set("transport.dials", static_cast<double>(ref->links.dials));
  metrics.Set("transport.io_errors", static_cast<double>(ref->links.io_errors));
  metrics.Set("latency_p90_ms",
              WindowedQuantile(untraced_reference.window_latency_ms, 0.90));
  metrics.Set("latency_p99_ms",
              WindowedQuantile(untraced_reference.window_latency_ms, 0.99));
  metrics.Set("sustained_qps",
              sustained != nullptr ? sustained->throughput() : 0.0);
  metrics.Set("failed_frac", below_sent > 0
                                 ? static_cast<double>(below_failures) /
                                       static_cast<double>(below_sent)
                                 : 0.0);
  metrics.Set("loadgen.behind_phases", static_cast<double>(behind));
  for (const PhaseOutcome& o : outcomes) {
    metrics.Set("loadgen.max_late_ms." + o.spec.name, o.max_late_ms);
    metrics.Set("loadgen.late_frac." + o.spec.name, o.late_frac);
    metrics.Set("process.threads_max." + o.spec.name, o.peak.threads);
    metrics.Set("process.rss_mb." + o.spec.name, o.peak.rss_mb);
  }
  const double ref_p50 = WindowedQuantile(ref->window_latency_ms, 0.5);
  metrics.Set("trace.coverage",
              TraceCoverage({ToMs(front.queue_wait.p50_seconds),
                             ToMs(front.execute.p50_seconds)},
                            ref_p50));
  const double untraced_p50 = WindowedQuantile(untraced_reference.window_latency_ms, 0.5);
  metrics.Set("trace.overhead_frac",
              untraced_p50 > 0 ? ref_p50 / untraced_p50 - 1.0 : 0.0);
  // The paper stages are not exercised by a cluster workload.
  for (const MetricSpec& spec : PerLayerMetrics()) {
    if (!metrics.Has(spec.name)) metrics.Set(spec.name, 0.0);
  }
  return result;
}

}  // namespace perfbench
