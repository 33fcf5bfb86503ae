// Tests of the benchmark itself: the catalogue agrees with
// BENCHMARK.json, every workload prints every metric with its unit, a
// corrupted reference trips the correctness gate, and trace.coverage is
// the sum of stage medians over the untraced median.
//
// The workloads run here at toy sizes (small keys, small datasets,
// sub-second phases) so the suite stays fast; the metric set they print
// is the full one.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "cluster.h"
#include "core/wire.h"
#include "gate.h"
#include "metrics.h"
#include "paper.h"

namespace perfbench {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

PaperConfig ToyPaper(PaperConfig config) {
  config.params.n = 4;
  config.params.d = 5;
  config.params.delta = 10;
  config.params.k = 4;
  config.params.key_bits = 256;
  config.db_size = 3000;
  config.setup_repeats = 1;
  config.min_queries = 4;
  return config;
}

ClusterConfig ToyCluster(ClusterConfig config) {
  config.db_size = 2000;
  config.pool_size = 32;
  config.warmup_requests = 16;
  config.setup_repeats = 1;
  return config;
}

void ExpectEveryMetric(const RunResult& result,
                       const std::vector<MetricSpec>& specs) {
  EXPECT_TRUE(result.metrics.Missing(specs).empty());
  const std::string json = ResultJson(result, specs);
  for (const MetricSpec& spec : specs) {
    const std::string key = "\"" + spec.name + "\": {\"value\": ";
    const size_t at = json.find(key);
    ASSERT_NE(at, std::string::npos) << spec.name;
    const std::string unit = "\"unit\": \"" + spec.unit + "\"}";
    EXPECT_EQ(json.find(unit, at), json.find("\"unit\"", at)) << spec.name;
  }
}

TEST(CatalogueTest, MatchesBenchmarkJson) {
  const std::string json = ReadFile(PERFBENCH_JSON);
  ASSERT_FALSE(json.empty());
  size_t bounded = 0, unbounded = 0;
  for (size_t at = json.find("\"better\""); at != std::string::npos;
       at = json.find("\"better\"", at + 1)) {
    const size_t line_end = json.find('\n', at);
    if (json.substr(at, line_end - at).find("\"bound\"") != std::string::npos) {
      bounded++;
    } else {
      unbounded++;
    }
  }
  EXPECT_EQ(bounded, EndToEndMetrics().size());
  EXPECT_EQ(unbounded, PerLayerMetrics().size());
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& spec : *list) {
      EXPECT_NE(json.find("{\"name\": \"" + spec.name + "\", \"unit\": \"" +
                          spec.unit + "\""),
                std::string::npos)
          << spec.name;
    }
  }
}

TEST(CatalogueTest, ReferenceRateIsALadderRung) {
  int rungs = 0, over = 0;
  for (const PhaseSpec& phase : ClusterPhases()) {
    if (phase.kind == PhaseKind::kOver) over++;
    if (phase.kind != PhaseKind::kOver && phase.rate == ReferenceRate()) {
      rungs++;
      EXPECT_EQ(phase.kind, PhaseKind::kBelow);
    }
  }
  EXPECT_EQ(rungs, 1);
  EXPECT_EQ(over, 1);
  EXPECT_EQ(ClusterPhases().back().kind, PhaseKind::kOver);
}

TEST(OrderStatisticsTest, QuantilesInterpolate) {
  EXPECT_DOUBLE_EQ(Quantile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({4, 1, 3, 2}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile({4, 1, 3, 2}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(OrderStatisticsTest, MeanOfWindowMedians) {
  // Windows {1, 9, 2} and {10, 10, 30}: medians 2 and 10.
  EXPECT_DOUBLE_EQ(MeanOfWindowMedians({1, 9, 2, 10, 10, 30}, 3), 6.0);
  // A trailing window of one sample is under half a window: dropped.
  EXPECT_DOUBLE_EQ(MeanOfWindowMedians({1, 9, 2, 10, 10, 30, 99}, 3), 6.0);
  // Two of three samples make a window.
  EXPECT_DOUBLE_EQ(MeanOfWindowMedians({1, 9, 2, 4, 6}, 3), 3.5);
  EXPECT_DOUBLE_EQ(MeanOfWindowMedians({7}, 8), 7.0);
  EXPECT_DOUBLE_EQ(MeanOfWindowMedians({}, 8), 0.0);
}

TEST(TraceCoverageTest, SumOfStageMediansOverTimedMedian) {
  EXPECT_DOUBLE_EQ(TraceCoverage({1.0, 2.0, 3.0}, 12.0), 0.5);
  EXPECT_DOUBLE_EQ(TraceCoverage({5.0, 5.0}, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(TraceCoverage({1.0}, 0.0), 0.0);
}

TEST(GateTest, CorruptedFrameIsNotCorrect) {
  std::vector<uint8_t> answer = ppgnn::ResponseFrame::WrapAnswer({1, 2, 3, 4});
  EXPECT_EQ(JudgeFrame(answer, answer), FrameVerdict::kCorrect);
  std::vector<uint8_t> corrupted = answer;
  corrupted.back() ^= 0x01;
  EXPECT_NE(JudgeFrame(answer, corrupted), FrameVerdict::kCorrect);
  EXPECT_EQ(JudgeFrame(corrupted, answer), FrameVerdict::kUndecodable);
  ppgnn::ErrorMessage refused;
  refused.code = ppgnn::WireError::kOverloaded;
  EXPECT_EQ(JudgeFrame(ppgnn::ResponseFrame::WrapError(refused), answer),
            FrameVerdict::kRefused);
  ppgnn::ErrorMessage expired;
  expired.code = ppgnn::WireError::kDeadlineExceeded;
  EXPECT_EQ(JudgeFrame(ppgnn::ResponseFrame::WrapError(expired), answer),
            FrameVerdict::kRefused);
  ppgnn::ErrorMessage internal;
  internal.code = ppgnn::WireError::kInternal;
  EXPECT_EQ(JudgeFrame(ppgnn::ResponseFrame::WrapError(internal), answer),
            FrameVerdict::kErrorFrame);
}

TEST(GateTest, CorruptedAnswerIsNotSame) {
  ppgnn::RankedPoi poi;
  poi.poi.location = {0.25, 0.75};
  std::vector<ppgnn::RankedPoi> reference = {poi};
  EXPECT_TRUE(SameAnswer({{0.25, 0.75}}, reference));
  EXPECT_FALSE(SameAnswer({{0.25, 0.7501}}, reference));
  EXPECT_FALSE(SameAnswer({}, reference));
}

TEST(PaperWorkloadTest, PrintsEveryMetricAndChecksAnswers) {
  for (const PaperConfig& base : {PaperGroupConfig(), OptNasConfig()}) {
    const PaperConfig config = ToyPaper(base);
    RunResult timed = RunPaperWorkload(config, 7, 0.2, false);
    EXPECT_TRUE(timed.correct);
    EXPECT_EQ(timed.failed, 0u);
    EXPECT_GE(timed.attempted, config.min_queries);
    ExpectEveryMetric(timed, EndToEndMetrics());
    EXPECT_GT(timed.metrics.Get("latency_p50_ms"), 0.0);
    EXPECT_DOUBLE_EQ(timed.metrics.Get("answered_frac"), 1.0);

    RunResult traced = RunPaperWorkload(config, 7, 0.3, true);
    EXPECT_TRUE(traced.correct) << "rebuilt bytes differ from the program's";
    ExpectEveryMetric(traced, PerLayerMetrics());
    EXPECT_GT(traced.metrics.Get("indicator.encrypt_ms"), 0.0);
    EXPECT_GT(traced.metrics.Get("selection.ms"), 0.0);
    EXPECT_GT(traced.metrics.Get("trace.coverage"), 0.5);
    EXPECT_LT(traced.metrics.Get("trace.coverage"), 1.5);
    if (config.params.sanitize) {
      EXPECT_GT(traced.metrics.Get("sanitize.samples"), 0.0);
    } else {
      EXPECT_EQ(traced.metrics.Get("sanitize.samples"), 0.0);
    }
  }
}

TEST(PaperWorkloadTest, CorruptedReferenceTripsGate) {
  PaperConfig config = ToyPaper(PaperGroupConfig());
  config.corrupt_reference = true;
  RunResult result = RunPaperWorkload(config, 7, 0.1, false);
  EXPECT_FALSE(result.correct);
  EXPECT_GE(result.failed, 1u);
  EXPECT_LT(result.metrics.Get("answered_frac"), 1.0);
}

TEST(ClusterWorkloadTest, PrintsEveryMetricAndChecksFrames) {
  for (const ClusterConfig& base : {ClusterInprocConfig(), ClusterTcpConfig()}) {
    const ClusterConfig config = ToyCluster(base);
    RunResult timed = RunClusterWorkload(config, 7, 1.0, false);
    EXPECT_TRUE(timed.correct);
    EXPECT_EQ(timed.failed, 0u);
    ExpectEveryMetric(timed, EndToEndMetrics());
    EXPECT_GT(timed.metrics.Get("goodput_qps"), 0.0);
    EXPECT_DOUBLE_EQ(timed.metrics.Get("pois_returned"), 3.0);

    RunResult traced = RunClusterWorkload(config, 7, 1.0, true);
    EXPECT_TRUE(traced.correct);
    ExpectEveryMetric(traced, PerLayerMetrics());
    EXPECT_GT(traced.metrics.Get("shard_coordinator.legs_per_query"), 0.0);
    EXPECT_GT(traced.metrics.Get("process.threads_max.r500"), 1.0);
    EXPECT_EQ(traced.metrics.Get("transport.leg_p50_ms") > 0.0, config.tcp);
  }
}

TEST(ClusterWorkloadTest, CorruptedReferenceFrameTripsGate) {
  ClusterConfig config = ToyCluster(ClusterInprocConfig());
  config.corrupt_reference = true;
  RunResult result = RunClusterWorkload(config, 7, 1.0, false);
  EXPECT_FALSE(result.correct);
  EXPECT_GE(result.failed, 1u);
}

}  // namespace
}  // namespace perfbench
