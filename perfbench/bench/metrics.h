// Metric catalogue, result container and order statistics for the
// PPGNN benchmark.
//
// Every metric the benchmark can print is declared once here, with its
// unit, in one of two lists: the end-to-end metrics a user of the system
// sees (printed by an untraced run) and the per-layer metrics that
// attribute them (printed by a traced run). BENCHMARK.json at the
// repository root names the same metrics with the same units; the
// benchmark's tests check that the two agree.

#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// End-to-end metrics, printed with --trace 0.
const std::vector<MetricSpec>& EndToEndMetrics();
/// Per-layer metrics, printed with --trace 1.
const std::vector<MetricSpec>& PerLayerMetrics();

/// What a cluster phase's offered rate is meant to be, relative to the
/// cluster's capacity on any host the benchmark runs on.
enum class PhaseKind {
  /// Well below capacity: the reference rung. A refusal here is counted
  /// against answered_frac and failed_frac.
  kBelow,
  /// A ladder rung that probes capacity: refusals are load shedding and
  /// only fail the rung's sustained check.
  kProbe,
  /// Far above capacity: refusals are the design.
  kOver,
};

/// Open-loop phases of the cluster workloads, in run order: the rate
/// ladder (one rung of which is the reference rate) and then the
/// over-capacity phase. Rates are absolute offered loads in requests/s.
struct PhaseSpec {
  std::string name;  ///< metric-name suffix, e.g. "r1000" or "over"
  double rate = 0.0;
  PhaseKind kind = PhaseKind::kBelow;
};
const std::vector<PhaseSpec>& ClusterPhases();
/// The ladder rung whose latencies are the cluster latency metrics.
double ReferenceRate();

/// Named metric values of one run. Units come from the catalogue; a
/// name outside the catalogue is a programming error and aborts.
class MetricSet {
 public:
  void Set(const std::string& name, double value);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;

  /// The catalogue names of `specs` that have no value yet.
  std::vector<std::string> Missing(const std::vector<MetricSpec>& specs) const;

  /// Renders {"name": {"value": v, "unit": u}, ...} over `specs`.
  std::string ToJson(const std::vector<MetricSpec>& specs) const;

 private:
  std::map<std::string, double> values_;
};

/// What one workload run produced.
struct RunResult {
  bool correct = true;     ///< every checked output matched its reference
  uint64_t attempted = 0;  ///< queries or requests sent
  uint64_t failed = 0;     ///< attempted ones that did not produce a correct answer
  MetricSet metrics;
};

/// The final result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(const RunResult& result,
                       const std::vector<MetricSpec>& specs);

/// Linear-interpolated quantile (q in [0, 1]) of the samples; 0 when
/// empty.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

/// The median over the non-empty windows of each window's q-quantile: a
/// transient stall of the host moves one window, not the result.
double WindowedQuantile(const std::vector<std::vector<double>>& windows,
                        double q);

/// The mean over windows of `window` consecutive samples of each window's
/// median. A last, partial window counts when it holds at least half a
/// window; fewer samples than that give their plain median.
///
/// A single-threaded loop on a shared VM sees its CPU flip between a fast
/// and a slow speed every few seconds, as neighbours come and go on the
/// same physical core. A plain median then jumps from one speed to the
/// other as the slow share of a run crosses one half; this estimator moves
/// in proportion to that share, and still ignores a lone outlier.
double MeanOfWindowMedians(const std::vector<double>& samples, size_t window);

/// trace.coverage: the sum of the per-stage medians over the untraced
/// end-to-end median. 0 when the median is not positive.
double TraceCoverage(const std::vector<double>& stage_medians_ms,
                     double latency_p50_ms);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
