#include "core/sanitize.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/attack.h"
#include "geo/aggregate.h"

namespace ppgnn {
namespace {

std::vector<RankedPoi> MakeRankedAnswer(const std::vector<Point>& group,
                                        std::vector<Point> pois,
                                        AggregateKind kind) {
  std::sort(pois.begin(), pois.end(), [&](const Point& a, const Point& b) {
    return AggregateCost(kind, a, group) < AggregateCost(kind, b, group);
  });
  std::vector<RankedPoi> out;
  for (size_t i = 0; i < pois.size(); ++i) {
    out.push_back(
        {{static_cast<uint32_t>(i), pois[i]}, AggregateCost(kind, pois[i], group)});
  }
  return out;
}

std::vector<Point> RandomPoints(int count, Rng& rng) {
  std::vector<Point> out(count);
  for (Point& p : out) p = {rng.NextDouble(), rng.NextDouble()};
  return out;
}

TEST(SanitizerTest, CreateComputesSampleSize) {
  TestConfig config;
  auto sanitizer = AnswerSanitizer::Create(0.05, config).value();
  EXPECT_EQ(sanitizer.sample_size(),
            RequiredSampleSize(0.05, config).value());
  EXPECT_DOUBLE_EQ(sanitizer.theta0(), 0.05);
  EXPECT_FALSE(AnswerSanitizer::Create(0.0, config).ok());
  EXPECT_FALSE(AnswerSanitizer::Create(1.5, config).ok());
}

TEST(SanitizerTest, SingleUserAnswerUntouched) {
  TestConfig config;
  auto sanitizer = AnswerSanitizer::Create(0.05, config).value();
  Rng rng(1);
  std::vector<Point> group = {{0.5, 0.5}};
  auto answer = MakeRankedAnswer(group, RandomPoints(5, rng),
                                 AggregateKind::kSum);
  auto sanitized =
      sanitizer.Sanitize(answer, group, AggregateKind::kSum, rng);
  EXPECT_EQ(sanitized.size(), answer.size());
}

TEST(SanitizerTest, SingletonAnswerAlwaysSafe) {
  TestConfig config;
  auto sanitizer = AnswerSanitizer::Create(0.05, config).value();
  Rng rng(2);
  std::vector<Point> group = RandomPoints(4, rng);
  auto answer =
      MakeRankedAnswer(group, RandomPoints(1, rng), AggregateKind::kSum);
  auto sanitized =
      sanitizer.Sanitize(answer, group, AggregateKind::kSum, rng);
  EXPECT_EQ(sanitized.size(), 1u);
}

TEST(SanitizerTest, OutputIsPrefixOfInput) {
  TestConfig config;
  auto sanitizer = AnswerSanitizer::Create(0.05, config).value();
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Point> group = RandomPoints(6, rng);
    auto answer =
        MakeRankedAnswer(group, RandomPoints(10, rng), AggregateKind::kSum);
    auto sanitized =
        sanitizer.Sanitize(answer, group, AggregateKind::kSum, rng);
    ASSERT_GE(sanitized.size(), 1u);
    ASSERT_LE(sanitized.size(), answer.size());
    for (size_t i = 0; i < sanitized.size(); ++i) {
      EXPECT_EQ(sanitized[i].poi.id, answer[i].poi.id);
    }
  }
}

TEST(SanitizerTest, ReturnedPrefixPassesItsOwnSafetyTest) {
  // The invariant of Section 5.2: the returned prefix is safe for every
  // target user; verify by re-running the attack region estimate.
  TestConfig config;
  double theta0 = 0.05;
  auto sanitizer = AnswerSanitizer::Create(theta0, config).value();
  Rng rng(4);
  std::vector<Point> group = RandomPoints(4, rng);
  auto answer =
      MakeRankedAnswer(group, RandomPoints(8, rng), AggregateKind::kSum);
  auto sanitized =
      sanitizer.Sanitize(answer, group, AggregateKind::kSum, rng);
  std::vector<Point> prefix_points;
  for (const auto& rp : sanitized) prefix_points.push_back(rp.poi.location);
  if (prefix_points.size() >= 2) {
    for (size_t target = 0; target < group.size(); ++target) {
      std::vector<Point> colluders;
      for (size_t u = 0; u < group.size(); ++u) {
        if (u != target) colluders.push_back(group[u]);
      }
      InequalityAttack attack(colluders, prefix_points, AggregateKind::kSum);
      Rng est(99 + target);
      // Region estimate should be comfortably above theta0 (allowing MC
      // noise around the test's threshold).
      EXPECT_GT(attack.EstimateRegionFraction(est, 20000), theta0 * 0.8);
    }
  }
}

TEST(SanitizerTest, StricterTheta0ReturnsFewerPois) {
  TestConfig config;
  Rng seed_rng(5);
  std::vector<Point> group = RandomPoints(8, seed_rng);
  auto answer =
      MakeRankedAnswer(group, RandomPoints(16, seed_rng), AggregateKind::kSum);
  double prev_size = 1e9;
  for (double theta0 : {0.01, 0.05, 0.10}) {
    auto sanitizer = AnswerSanitizer::Create(theta0, config).value();
    // Average over a few runs to damp Monte-Carlo noise.
    double total = 0;
    for (int run = 0; run < 5; ++run) {
      Rng rng(1000 + run);
      total += static_cast<double>(
          sanitizer.Sanitize(answer, group, AggregateKind::kSum, rng).size());
    }
    double avg = total / 5;
    EXPECT_LE(avg, prev_size + 0.75) << "theta0=" << theta0;
    prev_size = avg;
  }
}

TEST(SanitizerTest, StatsAreAccumulated) {
  TestConfig config;
  auto sanitizer = AnswerSanitizer::Create(0.05, config).value();
  Rng rng(6);
  std::vector<Point> group = RandomPoints(4, rng);
  auto answer =
      MakeRankedAnswer(group, RandomPoints(6, rng), AggregateKind::kSum);
  SanitizeStats stats;
  auto sanitized =
      sanitizer.Sanitize(answer, group, AggregateKind::kSum, rng, &stats);
  if (sanitized.size() > 1 || answer.size() > 1) {
    EXPECT_GT(stats.tests_run, 0u);
    EXPECT_GT(stats.samples_drawn, 0u);
    // Every drawn point feeds at least one test, and at most all n.
    EXPECT_GE(stats.test_samples, stats.samples_drawn);
    EXPECT_LE(stats.test_samples, stats.samples_drawn * group.size());
  }
}

TEST(SanitizerTest, HalfPlanePrefixAgreesWithZTest) {
  // Each user is equidistant from the two POIs, so for either target the
  // solution region is the half-plane x <= 0.5 (half the space): judged
  // safe for theta0 = 0.05 and unsafe for theta0 = 0.9.
  TestConfig config;
  std::vector<Point> group = {{0.5, 0.8}, {0.5, 0.2}};
  std::vector<RankedPoi> answer = {{{0, {0.25, 0.5}}, 0.0},
                                   {{1, {0.75, 0.5}}, 0.0}};
  auto loose = AnswerSanitizer::Create(0.05, config).value();
  Rng rng(7);
  EXPECT_EQ(loose.Sanitize(answer, group, AggregateKind::kSum, rng).size(),
            2u);
  auto strict = AnswerSanitizer::Create(0.9, config).value();
  EXPECT_EQ(strict.Sanitize(answer, group, AggregateKind::kSum, rng).size(),
            1u);
}

TEST(SanitizerTest, EarlyExitUsesFarFewerSamplesThanNH) {
  // For a clearly-safe prefix the sequential test should stop early.
  TestConfig config;
  auto sanitizer = AnswerSanitizer::Create(0.05, config).value();
  Rng rng(8);
  std::vector<Point> group = {{0.5, 0.45}, {0.5, 0.55}};
  auto answer = MakeRankedAnswer(group, {{0.5, 0.5}, {0.9, 0.9}},
                                 AggregateKind::kSum);
  SanitizeStats stats;
  sanitizer.Sanitize(answer, group, AggregateKind::kSum, rng, &stats);
  ASSERT_GT(stats.tests_run, 0u);
  EXPECT_LT(stats.test_samples / stats.tests_run,
            sanitizer.sample_size() / 2);
}

TEST(SanitizerTest, WorksForAllAggregates) {
  TestConfig config;
  auto sanitizer = AnswerSanitizer::Create(0.05, config).value();
  Rng rng(9);
  std::vector<Point> group = RandomPoints(4, rng);
  for (AggregateKind kind :
       {AggregateKind::kSum, AggregateKind::kMax, AggregateKind::kMin}) {
    auto answer = MakeRankedAnswer(group, RandomPoints(6, rng), kind);
    auto sanitized = sanitizer.Sanitize(answer, group, kind, rng);
    EXPECT_GE(sanitized.size(), 1u);
    EXPECT_LE(sanitized.size(), answer.size());
  }
}

}  // namespace
}  // namespace ppgnn
