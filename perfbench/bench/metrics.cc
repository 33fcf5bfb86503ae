#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

const std::vector<PhaseSpec>& ClusterPhases() {
  // The reference rung stays below capacity even on a host that has lost
  // half of its speed to neighbour load. The probe rungs start where such
  // a host saturates.
  static const std::vector<PhaseSpec> phases = {
      {"r250", 250.0, PhaseKind::kBelow},
      {"r500", 500.0, PhaseKind::kProbe},
      {"r1000", 1000.0, PhaseKind::kProbe},
      {"r1250", 1250.0, PhaseKind::kProbe},
      {"r1900", 1900.0, PhaseKind::kProbe},
      {"r2500", 2500.0, PhaseKind::kProbe},
      {"r3000", 3000.0, PhaseKind::kProbe},
      {"r3500", 3500.0, PhaseKind::kProbe},
      {"over", 8000.0, PhaseKind::kOver},
  };
  return phases;
}

double ReferenceRate() { return 250.0; }

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"latency_p50_ms", "ms"},
      {"user_cpu_ms", "ms"},
      {"lsp_cpu_ms", "ms"},
      {"comm_kb", "KiB"},
      {"pois_returned", "count"},
      {"goodput_qps", "1/s"},
      {"answered_frac", "ratio"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> out = {
        // User and LSP stages of one paper query (traced rebuild).
        {"indicator.encrypt_ms", "ms"},
        {"wire.encode_ms", "ms"},
        {"wire.decode_ms", "ms"},
        {"candidate.generate_ms", "ms"},
        {"candidate.delta_prime", "count"},
        {"gnn.ms", "ms"},
        {"gnn.per_candidate_us", "us"},
        {"sanitize.ms", "ms"},
        {"sanitize.samples", "count"},
        {"sanitize.tests", "count"},
        {"sanitize.ns_per_sample", "ns"},
        {"sanitize.kept_frac", "ratio"},
        {"poi_codec.encode_ms", "ms"},
        {"poi_codec.decode_ms", "ms"},
        {"selection.ms", "ms"},
        {"paillier.decrypt_ms", "ms"},
        {"bigint.modexp_us", "us"},
        {"trace.coverage", "ratio"},
        {"trace.overhead_frac", "ratio"},
        // Cluster layers (Stats() of each phase's cluster).
        {"lsp_service.queue_wait_p50_ms", "ms"},
        {"lsp_service.queue_wait_p99_ms", "ms"},
        {"lsp_service.execute_p50_ms", "ms"},
        {"lsp_service.execute_p99_ms", "ms"},
        {"lsp_service.refused_frac", "ratio"},
        {"lsp_service.shed", "count"},
        {"lsp_service.concurrency_limit", "count"},
        {"shard_coordinator.legs_per_query", "count"},
        {"shard_coordinator.overhead_ms", "ms"},
        {"replica_set.execute_p50_ms", "ms"},
        {"replica_set.queue_wait_p50_ms", "ms"},
        {"replica_set.useful_leg_frac", "ratio"},
        {"replica_set.hedge_wins", "count"},
        {"replica_set.failovers", "count"},
        {"replica_set.health_transitions", "count"},
        {"gnn.shard_query_us", "us"},
        {"transport.leg_p50_ms", "ms"},
        {"transport.leg_p99_ms", "ms"},
        {"transport.dials", "count"},
        {"transport.io_errors", "count"},
        // The tail of the end-to-end latency, from the untraced part of a
        // traced run. On a shared VM it tracks hypervisor steal more than
        // the program, so it holds no bound.
        {"latency_p90_ms", "ms"},
        {"latency_p99_ms", "ms"},
        // The highest ladder rung the cluster sustained. It snaps to a
        // rung, so it moves in steps wider than any bound an end-to-end
        // metric may have.
        {"sustained_qps", "1/s"},
        // Failures and the load generator itself.
        {"failed_frac", "ratio"},
        {"loadgen.behind_phases", "count"},
    };
    for (const PhaseSpec& phase : ClusterPhases()) {
      out.push_back({"loadgen.max_late_ms." + phase.name, "ms"});
      out.push_back({"loadgen.late_frac." + phase.name, "ratio"});
      out.push_back({"process.threads_max." + phase.name, "count"});
      out.push_back({"process.rss_mb." + phase.name, "MiB"});
    }
    return out;
  }();
  return specs;
}

namespace {

bool Known(const std::string& name) {
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& spec : *list) {
      if (spec.name == name) return true;
    }
  }
  return false;
}

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  return buf;
}

}  // namespace

void MetricSet::Set(const std::string& name, double value) {
  if (!Known(name)) {
    std::fprintf(stderr, "perfbench: metric '%s' is not in the catalogue\n",
                 name.c_str());
    std::abort();
  }
  values_[name] = value;
}

bool MetricSet::Has(const std::string& name) const {
  return values_.count(name) != 0;
}

double MetricSet::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

std::vector<std::string> MetricSet::Missing(
    const std::vector<MetricSpec>& specs) const {
  std::vector<std::string> missing;
  for (const MetricSpec& spec : specs) {
    if (!Has(spec.name)) missing.push_back(spec.name);
  }
  return missing;
}

std::string MetricSet::ToJson(const std::vector<MetricSpec>& specs) const {
  std::string out = "{";
  for (size_t i = 0; i < specs.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + specs[i].name + "\": {\"value\": " +
           Number(Get(specs[i].name)) + ", \"unit\": \"" + specs[i].unit +
           "\"}";
  }
  return out + "}";
}

std::string ResultJson(const RunResult& result,
                       const std::vector<MetricSpec>& specs) {
  return std::string("{\"correct\": ") + (result.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(result.attempted) +
         ", \"failed\": " + std::to_string(result.failed) +
         ", \"metrics\": " + result.metrics.ToJson(specs) + "}";
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double WindowedQuantile(const std::vector<std::vector<double>>& windows,
                        double q) {
  std::vector<double> per_window;
  for (const std::vector<double>& window : windows) {
    if (!window.empty()) per_window.push_back(Quantile(window, q));
  }
  return Median(per_window);
}

double MeanOfWindowMedians(const std::vector<double>& samples,
                           size_t window) {
  window = std::max<size_t>(window, 1);
  std::vector<double> medians;
  for (size_t begin = 0; begin < samples.size(); begin += window) {
    const size_t end = std::min(begin + window, samples.size());
    if (2 * (end - begin) < window && !medians.empty()) break;
    medians.push_back(Median(std::vector<double>(samples.begin() + begin,
                                                 samples.begin() + end)));
  }
  return Mean(medians);
}

double TraceCoverage(const std::vector<double>& stage_medians_ms,
                     double latency_p50_ms) {
  if (!(latency_p50_ms > 0.0)) return 0.0;
  double sum = 0.0;
  for (double v : stage_medians_ms) sum += v;
  return sum / latency_p50_ms;
}

}  // namespace perfbench
