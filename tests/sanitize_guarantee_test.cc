// Empirical guarantees of answer sanitation's shared-stream walk.
//
// AnswerSanitizer runs all targets of one prefix on one stream of sample
// points (see core/sanitize.h). These tests check what that schedule must
// keep from the paper's one-test-at-a-time procedure:
//   * its integer verdict counts decide exactly like the sequential Z-test;
//   * every test's Type I error stays <= gamma (Eqn 16/17);
//   * the kept answer length matches the one-test-at-a-time procedure's,
//     which lives below as the reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "core/attack.h"
#include "core/sanitize.h"
#include "geo/aggregate.h"
#include "spatial/dataset.h"
#include "spatial/gnn.h"
#include "spatial/rtree.h"
#include "stats/hypothesis.h"

namespace ppgnn {
namespace {

using Verdict = SequentialProportionTest::Verdict;

// The sanitation procedure of Section 5.2 as the paper states it: every
// (prefix, target) test builds its own attack and draws its own samples,
// targets one after another, stopping at the first unsafe prefix.
size_t ReferenceSafeLength(const std::vector<RankedPoi>& answer,
                           const std::vector<Point>& locations,
                           AggregateKind kind, double theta0, Rng& rng,
                           const DistanceOracle* oracle = nullptr) {
  const TestConfig config;
  const uint64_t n_h = RequiredSampleSize(theta0, config).value();
  std::vector<Point> prefix = {answer[0].poi.location};
  for (size_t t = 2; t <= answer.size(); ++t) {
    prefix.push_back(answer[t - 1].poi.location);
    for (size_t target = 0; target < locations.size(); ++target) {
      std::vector<Point> colluders;
      for (size_t u = 0; u < locations.size(); ++u) {
        if (u != target) colluders.push_back(locations[u]);
      }
      InequalityAttack attack(colluders, prefix, kind, {0.0, 0.0, 1.0, 1.0},
                              oracle);
      SequentialProportionTest test(n_h, theta0, config.gamma);
      while (test.CurrentVerdict() == Verdict::kUndecided) {
        test.AddSample(attack.Satisfies(attack.SamplePoint(rng)));
      }
      if (test.CurrentVerdict() != Verdict::kReject) return t - 1;
    }
  }
  return answer.size();
}

std::vector<Point> RandomGroup(size_t n, Rng& rng) {
  std::vector<Point> group(n);
  for (Point& p : group) p = {rng.NextDouble(), rng.NextDouble()};
  return group;
}

Verdict CountsVerdict(SequentialVerdictCounts counts, uint64_t hits,
                      uint64_t misses) {
  if (hits >= counts.reject_hits) return Verdict::kReject;
  if (misses >= counts.accept_misses) return Verdict::kNotReject;
  return Verdict::kUndecided;
}

TEST(SanitizeGuaranteeTest, VerdictCountsMatchSequentialTestEverywhere) {
  // A SequentialProportionTest ignores samples once decided, so its state
  // (hits, misses) never leaves the rectangle hits <= reject_hits,
  // misses <= accept_misses: those are all the states with used <= N_H it
  // can be in. Walk every one of them and compare verdicts.
  const TestConfig config;
  for (double theta0 : {0.01, 0.05, 0.1}) {
    SCOPED_TRACE(theta0);
    const uint64_t n_h = RequiredSampleSize(theta0, config).value();
    const SequentialVerdictCounts counts =
        SequentialVerdictThresholds(n_h, theta0, config.gamma);
    ASSERT_GE(counts.reject_hits, 1u);
    ASSERT_EQ(counts.reject_hits + counts.accept_misses, n_h + 1);
    SequentialProportionTest row(n_h, theta0, config.gamma);  // (hits, 0)
    uint64_t mismatches = 0;
    for (uint64_t hits = 0; hits <= counts.reject_hits; ++hits) {
      SequentialProportionTest state = row;
      for (uint64_t misses = 0;; ++misses) {
        ASSERT_EQ(state.successes(), hits);
        ASSERT_EQ(state.samples_used(), hits + misses);
        const Verdict verdict = state.CurrentVerdict();
        mismatches += verdict != CountsVerdict(counts, hits, misses);
        if (verdict != Verdict::kUndecided) break;
        state.AddSample(false);
      }
      if (row.CurrentVerdict() != Verdict::kUndecided) break;
      row.AddSample(true);
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(row.successes(), counts.reject_hits);
  }
}

TEST(SanitizeGuaranteeTest, VerdictCountsHandleUnreachableThresholds) {
  // Extreme gamma moves Eqn 16's threshold below 0 or above N_H.
  EXPECT_EQ(SequentialVerdictThresholds(100, 0.05, 0.999999).reject_hits, 0u);
  SequentialVerdictCounts never = SequentialVerdictThresholds(4, 0.9, 1e-9);
  EXPECT_EQ(never.reject_hits, 5u);
  EXPECT_EQ(never.accept_misses, 0u);
}

TEST(SanitizeGuaranteeTest, TypeOneErrorAtMostGamma) {
  // Two users. For target 1 (colluder at user 0, on the bisector of p_2 and
  // p_3) the length-3 prefix leaves a strip just under theta0 of the space,
  // so H0 holds and keeping the prefix is a Type I error. Target 0's
  // regions are large, and target 1's length-2 region (~0.82) makes the
  // length-3 tests start at a random point of the stream.
  const double theta0 = 0.05;
  const double b = 0.105;
  const std::vector<Point> group = {{0.1, b}, {0.1, 0.0}};
  const std::vector<RankedPoi> answer = {{{0, {0.1, 0.0}}, 0.0},
                                         {{1, {0.5, 0.0}}, 0.0},
                                         {{2, {0.5, 2 * b}}, 0.0}};
  InequalityAttack target1({group[0]},
                           {answer[0].poi.location, answer[1].poi.location,
                            answer[2].poi.location},
                           AggregateKind::kSum);
  Rng calibration(20260101);
  const double region = target1.EstimateRegionFraction(calibration, 10000000);
  ASSERT_LE(region, theta0);
  ASSERT_GE(region, theta0 - 0.002) << "too far below theta0 to be sharp";

  const TestConfig config;
  auto sanitizer = AnswerSanitizer::Create(theta0, config).value();
  const int seeds = 2000;
  int kept = 0;
  for (int seed = 0; seed < seeds; ++seed) {
    Rng rng(1000003ULL * static_cast<uint64_t>(seed) + 17);
    kept += sanitizer.Sanitize(answer, group, AggregateKind::kSum, rng)
                .size() == answer.size();
  }
  const double sigma = std::sqrt(config.gamma * (1 - config.gamma) / seeds);
  std::printf("kept %d of %d (bound %.4f)\n", kept, seeds,
              config.gamma + 3 * sigma);
  EXPECT_LE(static_cast<double>(kept) / seeds, config.gamma + 3 * sigma);
  EXPECT_GT(kept, 0) << "a test this close to theta0 must sometimes reject";
}

TEST(SanitizeGuaranteeTest, KeptLengthMatchesPerTestReference) {
  // n = 8, k = 8 kGNN answers over the Sequoia-like POI set.
  const RTree tree = RTree::Build(GenerateSequoiaLike(kSequoiaSize, 9));
  MbmGnnSolver solver(&tree);
  for (double theta0 : {0.01, 0.05}) {
    SCOPED_TRACE(theta0);
    auto sanitizer = AnswerSanitizer::Create(theta0, TestConfig{}).value();
    Rng groups(31);
    const int count = 200;
    double walk = 0, reference = 0;
    for (int g = 0; g < count; ++g) {
      const std::vector<Point> group = RandomGroup(8, groups);
      const auto answer = solver.Query(group, 8, AggregateKind::kSum);
      Rng walk_rng(5000 + g), reference_rng(9000 + g);
      walk += sanitizer.Sanitize(answer, group, AggregateKind::kSum, walk_rng)
                  .size();
      reference += ReferenceSafeLength(answer, group, AggregateKind::kSum,
                                       theta0, reference_rng);
    }
    std::printf("theta0=%.2f mean kept: walk %.3f, reference %.3f\n", theta0,
                walk / count, reference / count);
    EXPECT_NEAR(walk / count, reference / count, 0.1);
  }
}

// A non-Euclidean metric: the L1 (Manhattan) distance.
class ManhattanOracle : public DistanceOracle {
 public:
  double Distance(const Point& a, const Point& b) const override {
    return std::abs(a.x - b.x) + std::abs(a.y - b.y);
  }
  const char* name() const override { return "manhattan"; }
};

double OracleAggregate(AggregateKind kind, const DistanceOracle& oracle,
                       const Point& poi, const std::vector<Point>& group) {
  double cost = kind == AggregateKind::kMin
                    ? std::numeric_limits<double>::infinity()
                    : 0.0;
  for (const Point& l : group) {
    const double d = oracle.Distance(poi, l);
    cost = kind == AggregateKind::kSum   ? cost + d
           : kind == AggregateKind::kMax ? std::max(cost, d)
                                         : std::min(cost, d);
  }
  return cost;
}

TEST(SanitizeGuaranteeTest, LargeGroupAndAnswerUnderAnyMetric) {
  // n = 40 users and k = 64 POIs, beyond any fixed-size scratch, under
  // every aggregate and an oracle metric.
  const ManhattanOracle oracle;
  const std::vector<Poi> pois = GenerateUniform(64, 77);
  auto sanitizer = AnswerSanitizer::Create(0.05, TestConfig{}).value();
  for (AggregateKind kind :
       {AggregateKind::kSum, AggregateKind::kMax, AggregateKind::kMin}) {
    SCOPED_TRACE(AggregateKindToString(kind));
    Rng groups(41);
    const int count = 6;
    double walk = 0, reference = 0;
    for (int g = 0; g < count; ++g) {
      const std::vector<Point> group = RandomGroup(40, groups);
      std::vector<RankedPoi> answer;
      for (const Poi& poi : pois) answer.push_back({poi, 0.0});
      // Rank by the oracle's aggregate, as the road-network solver would.
      for (RankedPoi& rp : answer) {
        rp.cost = OracleAggregate(kind, oracle, rp.poi.location, group);
      }
      std::sort(answer.begin(), answer.end(),
                [](const RankedPoi& a, const RankedPoi& b) {
                  return a.cost < b.cost;
                });
      Rng walk_rng(700 + g), reference_rng(800 + g);
      SanitizeStats stats;
      const size_t kept =
          sanitizer.Sanitize(answer, group, kind, walk_rng, &stats, &oracle)
              .size();
      ASSERT_GE(kept, 1u);
      ASSERT_LE(kept, answer.size());
      EXPECT_EQ(stats.tests_run, (kept == answer.size() ? kept - 1 : kept) *
                                     group.size());
      walk += kept;
      reference += ReferenceSafeLength(answer, group, kind, 0.05,
                                       reference_rng, &oracle);
    }
    std::printf("%s: mean kept walk %.2f, reference %.2f\n",
                AggregateKindToString(kind), walk / count, reference / count);
    EXPECT_NEAR(walk / count, reference / count, 0.5);
  }
}

}  // namespace
}  // namespace ppgnn
