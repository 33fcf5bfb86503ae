#include "paper.h"

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bigint/modular.h"
#include "bigint/montgomery.h"
#include "core/candidate.h"
#include "core/dummy.h"
#include "core/indicator.h"
#include "core/partition.h"
#include "core/sanitize.h"
#include "core/selection.h"
#include "core/wire.h"
#include "crypto/poi_codec.h"
#include "gate.h"
#include "service/workload.h"
#include "spatial/dataset.h"

namespace perfbench {

using namespace ppgnn;

namespace {

struct PaperSetup {
  std::unique_ptr<LspDatabase> db;
  KeyPair keys;
  std::vector<std::vector<Point>> groups;
  std::vector<std::vector<RankedPoi>> references;
};

/// Dataset, R-tree, session key, query groups with their reference
/// answers, and one warm-up query (which pays the fixed-base table build
/// for the session key). `repeat` only perturbs the key seed, so every
/// repeat pays the same kinds of work and the last one is the run's. Set-up
/// starts no thread, so the reference answers take turns over the CPUs.
PaperSetup BuildSetup(const PaperConfig& config, uint64_t seed, size_t pool,
                      int repeat, CpuRotation& rotation) {
  PaperSetup setup;
  setup.db = std::make_unique<LspDatabase>(
      GenerateSequoiaLike(config.db_size, seed));
  Rng key_rng(seed * 0x9e3779b97f4a7c15ULL + 0x6b657973ULL +
              static_cast<uint64_t>(repeat));
  setup.keys = ValueOrDie(GenerateKeyPair(config.params.key_bits, key_rng));
  Rng group_rng(seed ^ 0x67726f7570ULL);
  Rng unused(0);
  for (size_t i = 0; i < pool; ++i) {
    rotation.Pin(i);
    setup.groups.push_back(RandomGroup(config.params.n, group_rng));
    setup.references.push_back(ReferenceAnswer(
        config.params, setup.groups.back(), *setup.db, unused));
  }
  Rng warm_rng(seed ^ 0x7761726dULL);
  QueryOutcome warm =
      ValueOrDie(RunQuery(config.variant, config.params, setup.groups[0],
                          *setup.db, warm_rng, &setup.keys));
  if (!SameAnswer(warm.pois, setup.references[0])) {
    std::fprintf(stderr, "perfbench: warm-up answer differs from reference\n");
    std::exit(1);
  }
  return setup;
}

/// One traced query's per-stage wall times (ms) and counts.
struct StageSample {
  double encrypt = 0, encode = 0, decode = 0, candidates = 0, gnn = 0,
         sanitize = 0, codec_encode = 0, codec_decode = 0, select = 0,
         decrypt = 0;
  double wall = 0;
  uint64_t delta_prime = 0, samples = 0, tests = 0, kept = 0;
  bool request_matches = false;
  bool answer_matches = false;
  std::vector<Point> pois;
};

class StageClock {
 public:
  explicit StageClock(double* sink) : sink_(sink), start_(NowSeconds()) {}
  ~StageClock() { *sink_ += (NowSeconds() - start_) * 1e3; }
  StageClock(const StageClock&) = delete;
  StageClock& operator=(const StageClock&) = delete;

 private:
  double* sink_;
  double start_;
};

/// Rebuilds one RunQuery from public calls, timing each stage. Consumes
/// `rng` exactly as RunQuery (and BuildServiceRequest) would.
StageSample TracedQuery(const PaperConfig& config, const PaperSetup& setup,
                        const std::vector<Point>& group, Rng& rng) {
  const ProtocolParams& params = config.params;
  const bool opt = config.variant == Variant::kPpgnnOpt;
  StageSample s;
  Rng request_rng = rng;
  const double start = NowSeconds();

  // ===== User side: plan, query index, indicator, messages =====
  PartitionPlan plan = ValueOrDie(
      SolvePartition(params.n, params.d, params.EffectiveDelta()));
  int seg = 1;
  const int64_t pick = rng.NextInRange(1, params.d);
  int64_t acc = 0;
  for (int i = 1; i <= plan.beta(); ++i) {
    acc += plan.d_bar[i - 1];
    if (pick <= acc) {
      seg = i;
      break;
    }
  }
  std::vector<int> x(plan.alpha), pos(plan.alpha);
  for (int j = 0; j < plan.alpha; ++j) {
    x[j] = static_cast<int>(rng.NextInRange(1, plan.d_bar[seg - 1]));
    pos[j] = plan.SegmentOffset(seg) - 1 + x[j];
  }
  const uint64_t qi = QueryIndex(plan, seg, x);

  QueryMessage query;
  query.k = params.k;
  query.theta0 = params.theta0;
  query.aggregate = params.aggregate;
  query.plan = plan;
  query.pk = setup.keys.pub;
  {
    StageClock clock(&s.encrypt);
    Encryptor enc(setup.keys.pub);
    if (opt) {
      query.is_opt = true;
      PoiCodec codec(params.key_bits);
      const uint64_t omega = ChooseOmega(
          plan.delta_prime, codec.IntsNeeded(static_cast<size_t>(params.k)));
      query.opt_indicator =
          ValueOrDie(EncryptOptIndicator(enc, qi, plan.delta_prime, omega,
                                         rng));
    } else {
      query.indicator =
          ValueOrDie(EncryptIndicator(enc, qi, plan.delta_prime, rng));
    }
  }
  std::vector<uint8_t> query_bytes;
  {
    StageClock clock(&s.encode);
    query_bytes = ValueOrDie(query.Encode());
  }
  std::vector<std::vector<uint8_t>> upload_bytes;
  const std::vector<int> subgroup = SubgroupOfUser(plan);
  for (int u = 0; u < params.n; ++u) {
    LocationSetMessage msg;
    msg.user_id = static_cast<uint32_t>(u);
    msg.locations.resize(static_cast<size_t>(params.d));
    for (Point& p : msg.locations) {
      p = UniformDummies().Generate(group[u], rng);
    }
    msg.locations[pos[subgroup[u]] - 1] = group[u];
    StageClock clock(&s.encode);
    upload_bytes.push_back(msg.Encode());
  }

  // ===== LSP side: decode, candidates, kGNN, sanitation, selection =====
  QueryMessage lsp_query;
  std::vector<LocationSet> sets(upload_bytes.size());
  {
    StageClock clock(&s.decode);
    lsp_query = ValueOrDie(QueryMessage::Decode(query_bytes));
    for (const auto& bytes : upload_bytes) {
      LocationSetMessage msg =
          ValueOrDie(LocationSetMessage::Decode(bytes));
      sets[msg.user_id] = std::move(msg.locations);
    }
  }
  std::vector<std::vector<Point>> candidates;
  {
    StageClock clock(&s.candidates);
    candidates = ValueOrDie(GenerateCandidateQueries(lsp_query.plan, sets));
  }
  s.delta_prime = candidates.size();
  const bool sanitize = params.sanitize && upload_bytes.size() > 1;
  std::unique_ptr<AnswerSanitizer> sanitizer;
  if (sanitize) {
    StageClock clock(&s.sanitize);
    sanitizer = std::make_unique<AnswerSanitizer>(
        ValueOrDie(AnswerSanitizer::Create(lsp_query.theta0, params.test)));
  }
  PoiCodec lsp_codec(lsp_query.pk.key_bits);
  const size_t m = lsp_codec.IntsNeeded(static_cast<size_t>(lsp_query.k));
  AnswerMatrix matrix;
  matrix.columns.resize(candidates.size());
  SanitizeStats stats;
  for (size_t i = 0; i < candidates.size(); ++i) {
    std::vector<RankedPoi> answer;
    {
      StageClock clock(&s.gnn);
      answer = setup.db->solver().Query(candidates[i], lsp_query.k,
                                        lsp_query.aggregate);
    }
    if (sanitizer != nullptr) {
      StageClock clock(&s.sanitize);
      Rng candidate_rng(LspSanitizeSeed(candidates[i], lsp_query.k));
      answer = sanitizer->Sanitize(answer, candidates[i], lsp_query.aggregate,
                                   candidate_rng, &stats,
                                   setup.db->distance_oracle());
    }
    s.kept += answer.size();
    StageClock clock(&s.codec_encode);
    std::vector<Point> points;
    points.reserve(answer.size());
    for (const RankedPoi& rp : answer) points.push_back(rp.poi.location);
    matrix.columns[i] = ValueOrDie(lsp_codec.Encode(points, m));
  }
  s.samples = stats.samples_drawn;
  s.tests = stats.tests_run;
  AnswerMessage answer_msg;
  {
    StageClock clock(&s.select);
    Encryptor enc(lsp_query.pk);
    answer_msg.ciphertexts =
        opt ? ValueOrDie(PrivateSelectTwoPhase(
                  enc, matrix, lsp_query.opt_indicator, params.lsp_threads))
            : ValueOrDie(PrivateSelect(enc, matrix, lsp_query.indicator,
                                       params.lsp_threads));
  }
  std::vector<uint8_t> answer_bytes;
  {
    StageClock clock(&s.encode);
    answer_bytes = ValueOrDie(answer_msg.Encode(lsp_query.pk));
  }

  // ===== Answer path: decode, decrypt, unpack =====
  AnswerMessage received;
  {
    StageClock clock(&s.decode);
    received =
        ValueOrDie(AnswerMessage::Decode(answer_bytes, setup.keys.pub));
  }
  std::vector<BigInt> plain;
  {
    StageClock clock(&s.decrypt);
    Decryptor dec(setup.keys.pub, setup.keys.sec);
    for (const Ciphertext& ct : received.ciphertexts) {
      plain.push_back(opt ? ValueOrDie(dec.DecryptLayered(ct))
                          : ValueOrDie(dec.Decrypt(ct)));
    }
  }
  {
    StageClock clock(&s.codec_decode);
    s.pois = ValueOrDie(PoiCodec(params.key_bits).Decode(plain));
  }
  s.wall = (NowSeconds() - start) * 1e3;

  // ===== Untimed: the rebuild must be the program, not a look-alike =====
  ServiceRequest request =
      ValueOrDie(BuildServiceRequest(config.variant, params, group,
                                     setup.keys, request_rng));
  s.request_matches =
      request.query == query_bytes && request.uploads == upload_bytes &&
      request_rng.NextUint64() == Rng(rng).NextUint64();
  std::vector<uint8_t> served =
      ValueOrDie(LspHandleQuery(*setup.db, query_bytes, upload_bytes,
                                params.test, params.sanitize,
                                params.lsp_threads));
  s.answer_matches = served == answer_bytes;
  return s;
}

/// Median microseconds of ModExp at N^2 with a full-width exponent.
double ModExpMicros(const PublicKey& pk, uint64_t seed) {
  const BigInt modulus = pk.NPow(2);
  MontgomeryContext ctx =
      ValueOrDie(MontgomeryContext::Create(modulus));
  Rng rng(seed ^ 0x6d6f64657870ULL);
  std::vector<double> samples;
  for (int i = 0; i < 32; ++i) {
    const BigInt base = BigInt::RandomBelow(modulus, rng);
    const BigInt exponent = BigInt::Random(modulus.BitLength(), rng);
    const double t0 = NowSeconds();
    (void)ValueOrDie(ModExp(base, exponent, ctx));
    samples.push_back((NowSeconds() - t0) * 1e6);
  }
  return Median(samples);
}

/// Hard stop for the timed loop, whatever min_queries asks.
constexpr double kMaxLoopSeconds = 150.0;

/// Consecutive queries per window of MeanOfWindowMedians: two turns over
/// a 4-vCPU host, and about two seconds of a paper_group run.
constexpr size_t kQueriesPerWindow = 8;

struct TimedLoop {
  std::vector<double> latency_ms, user_ms, lsp_ms, comm_kb, pois;
  uint64_t attempted = 0, failed = 0;
  double elapsed = 0.0;
};

/// The closed loop: one RunQuery at a time, each on the next group of
/// the pool. Stops after `seconds` once `min_queries` ran. `after`, when
/// set, runs after the i-th query on the same CPU, outside its timing.
TimedLoop RunTimedLoop(const PaperConfig& config, const PaperSetup& setup,
                       uint64_t seed, double seconds, size_t min_queries,
                       const std::function<void(size_t i)>& after = {}) {
  TimedLoop loop;
  Rng rng(seed ^ 0x717565727931ULL);
  CpuRotation rotation;
  const double start = NowSeconds();
  for (size_t i = 0;; ++i) {
    const double elapsed = NowSeconds() - start;
    if ((elapsed >= seconds && i >= min_queries) ||
        elapsed >= kMaxLoopSeconds) {
      break;
    }
    const size_t slot = i % setup.groups.size();
    loop.attempted++;
    rotation.Pin(i);
    const double t0 = NowSeconds();
    Result<QueryOutcome> outcome =
        RunQuery(config.variant, config.params, setup.groups[slot], *setup.db,
                 rng, &setup.keys);
    const double wall_ms = (NowSeconds() - t0) * 1e3;
    if (outcome.ok() && SameAnswer(outcome->pois, setup.references[slot])) {
      loop.latency_ms.push_back(wall_ms);
      loop.user_ms.push_back(outcome->costs.user_seconds * 1e3);
      loop.lsp_ms.push_back(outcome->costs.lsp_seconds * 1e3);
      loop.comm_kb.push_back(
          static_cast<double>(outcome->costs.TotalCommBytes()) / 1024.0);
      loop.pois.push_back(static_cast<double>(outcome->info.pois_returned));
    } else {
      loop.failed++;
    }
    if (after) after(i);
  }
  loop.elapsed = NowSeconds() - start;
  return loop;
}

}  // namespace

PaperConfig PaperGroupConfig() {
  PaperConfig config;
  config.variant = Variant::kPpgnn;
  config.params.key_bits = 1024;
  config.params.sanitize = true;
  config.params.lsp_threads = 1;
  return config;
}

PaperConfig OptNasConfig() {
  PaperConfig config = PaperGroupConfig();
  config.variant = Variant::kPpgnnOpt;
  config.params.sanitize = false;
  return config;
}

RunResult RunPaperWorkload(const PaperConfig& config, uint64_t seed,
                           double seconds, bool trace) {
  RunResult result;
  MetricSet& metrics = result.metrics;

  // Enough distinct groups that every query of a run gets a fresh one;
  // a run that outlasts the pool cycles it with fresh dummies and draws.
  const size_t pool = std::max<size_t>(config.min_queries,
                                       static_cast<size_t>(seconds / 0.1));
  PaperSetup setup;
  std::vector<double> setup_s;
  {
    CpuRotation rotation;
    for (int r = 0; r < std::max(config.setup_repeats, 1); ++r) {
      setup = PaperSetup();
      const double t0 = NowSeconds();
      setup = BuildSetup(config, seed, pool, r, rotation);
      setup_s.push_back(NowSeconds() - t0);
    }
  }
  if (config.corrupt_reference && !setup.references[0].empty()) {
    setup.references[0][0].poi.location.x += 0.25;
  }

  if (!trace) {
    TimedLoop loop =
        RunTimedLoop(config, setup, seed, seconds, config.min_queries);
    result.attempted = loop.attempted;
    result.failed = loop.failed;
    const double answered = static_cast<double>(loop.latency_ms.size());
    metrics.Set("setup_s", Median(setup_s));
    metrics.Set("latency_p50_ms",
                MeanOfWindowMedians(loop.latency_ms, kQueriesPerWindow));
    metrics.Set("user_cpu_ms",
                MeanOfWindowMedians(loop.user_ms, kQueriesPerWindow));
    metrics.Set("lsp_cpu_ms",
                MeanOfWindowMedians(loop.lsp_ms, kQueriesPerWindow));
    metrics.Set("comm_kb", Mean(loop.comm_kb));
    metrics.Set("pois_returned", Mean(loop.pois));
    metrics.Set("goodput_qps", answered / loop.elapsed);
    metrics.Set("answered_frac",
                answered / static_cast<double>(loop.attempted));
    std::fprintf(stderr, "perfbench: %zu queries in %.1f s, %llu failed\n",
                 loop.latency_ms.size(), loop.elapsed,
                 static_cast<unsigned long long>(loop.failed));
  } else {
    // Each untraced query, for the median the trace is compared with, is
    // followed by the traced rebuild of the same query (same group, same
    // RNG stream), so both halves see the same host.
    Rng rng(seed ^ 0x717565727931ULL);
    std::vector<StageSample> samples;
    uint64_t traced_failed = 0;
    TimedLoop timed = RunTimedLoop(
        config, setup, seed, seconds / 2.0, 20, [&](size_t i) {
          const size_t slot = i % setup.groups.size();
          StageSample s = TracedQuery(config, setup, setup.groups[slot], rng);
          if (!s.request_matches || !s.answer_matches ||
              !SameAnswer(s.pois, setup.references[slot])) {
            std::fprintf(stderr,
                         "perfbench: traced query %zu: request %s, answer "
                         "%s\n",
                         i, s.request_matches ? "matches" : "DIFFERS",
                         s.answer_matches ? "matches" : "DIFFERS");
            traced_failed++;
          }
          samples.push_back(std::move(s));
        });
    result.attempted = timed.attempted + samples.size();
    result.failed = timed.failed + traced_failed;

    auto median_of = [&](double StageSample::*field) {
      std::vector<double> v;
      for (const StageSample& s : samples) v.push_back(s.*field);
      return MeanOfWindowMedians(v, kQueriesPerWindow);
    };
    const std::vector<double> stage_medians = {
        median_of(&StageSample::encrypt),  median_of(&StageSample::encode),
        median_of(&StageSample::decode),   median_of(&StageSample::candidates),
        median_of(&StageSample::gnn),      median_of(&StageSample::sanitize),
        median_of(&StageSample::codec_encode),
        median_of(&StageSample::codec_decode),
        median_of(&StageSample::select),   median_of(&StageSample::decrypt),
    };
    metrics.Set("indicator.encrypt_ms", stage_medians[0]);
    metrics.Set("wire.encode_ms", stage_medians[1]);
    metrics.Set("wire.decode_ms", stage_medians[2]);
    metrics.Set("candidate.generate_ms", stage_medians[3]);
    metrics.Set("gnn.ms", stage_medians[4]);
    metrics.Set("sanitize.ms", stage_medians[5]);
    metrics.Set("poi_codec.encode_ms", stage_medians[6]);
    metrics.Set("poi_codec.decode_ms", stage_medians[7]);
    metrics.Set("selection.ms", stage_medians[8]);
    metrics.Set("paillier.decrypt_ms", stage_medians[9]);

    double sanitize_ms = 0, samples_total = 0, tests_total = 0, kept = 0,
           candidates = 0;
    std::vector<double> per_candidate_us;
    for (const StageSample& s : samples) {
      sanitize_ms += s.sanitize;
      samples_total += static_cast<double>(s.samples);
      tests_total += static_cast<double>(s.tests);
      kept += static_cast<double>(s.kept);
      candidates += static_cast<double>(s.delta_prime);
      per_candidate_us.push_back(s.gnn * 1e3 /
                                 static_cast<double>(s.delta_prime));
    }
    const double n = static_cast<double>(samples.size());
    metrics.Set("candidate.delta_prime", candidates / n);
    metrics.Set("gnn.per_candidate_us", Median(per_candidate_us));
    metrics.Set("sanitize.samples", samples_total / n);
    metrics.Set("sanitize.tests", tests_total / n);
    metrics.Set("sanitize.ns_per_sample",
                samples_total > 0 ? sanitize_ms * 1e6 / samples_total : 0.0);
    metrics.Set("sanitize.kept_frac",
                config.params.sanitize
                    ? kept / (candidates * config.params.k)
                    : 0.0);
    metrics.Set("bigint.modexp_us", ModExpMicros(setup.keys.pub, seed));

    const double timed_p50 =
        MeanOfWindowMedians(timed.latency_ms, kQueriesPerWindow);
    metrics.Set("trace.coverage", TraceCoverage(stage_medians, timed_p50));
    metrics.Set("trace.overhead_frac",
                timed_p50 > 0 ? median_of(&StageSample::wall) / timed_p50 - 1.0
                              : 0.0);
    metrics.Set("latency_p90_ms", Quantile(timed.latency_ms, 0.90));
    metrics.Set("latency_p99_ms", Quantile(timed.latency_ms, 0.99));
    metrics.Set("sustained_qps",
                static_cast<double>(timed.attempted) / timed.elapsed);
    metrics.Set("failed_frac", static_cast<double>(result.failed) /
                                   static_cast<double>(result.attempted));
    std::fprintf(stderr,
                 "perfbench: traced %zu queries; timed p50 %.2f ms, stage "
                 "sum %.2f ms\n",
                 samples.size(), timed_p50,
                 metrics.Get("trace.coverage") * timed_p50);
    // Cluster layers are not exercised by a paper workload.
    for (const MetricSpec& spec : PerLayerMetrics()) {
      if (!metrics.Has(spec.name)) metrics.Set(spec.name, 0.0);
    }
  }
  result.correct = result.failed == 0;
  return result;
}

}  // namespace perfbench
