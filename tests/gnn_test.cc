#include "spatial/gnn.h"

#include <gtest/gtest.h>

#include <string>

#include "common/random.h"
#include "spatial/dataset.h"

namespace ppgnn {
namespace {

std::vector<Point> RandomGroup(int n, Rng& rng) {
  std::vector<Point> out(n);
  for (Point& p : out) p = {rng.NextDouble(), rng.NextDouble()};
  return out;
}

// A group on the 1/16 lattice, so its distances to lattice POIs tie often.
std::vector<Point> LatticeGroup(int n, Rng& rng) {
  std::vector<Point> out(n);
  for (Point& p : out) {
    p = {static_cast<double>(rng.NextInRange(0, 16)) / 16,
         static_cast<double>(rng.NextInRange(0, 16)) / 16};
  }
  return out;
}

// Empty when `got` is `want` entry by entry (same POI, bit-identical
// cost); otherwise the first difference.
std::string AnswerDiff(const std::vector<RankedPoi>& got,
                       const std::vector<RankedPoi>& want) {
  if (got.size() != want.size()) {
    return "size " + std::to_string(got.size()) + " vs " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].poi.id != want[i].poi.id || got[i].cost != want[i].cost ||
        !(got[i].poi.location == want[i].poi.location)) {
      return "rank " + std::to_string(i) + ": id " +
             std::to_string(got[i].poi.id) + " vs " +
             std::to_string(want[i].poi.id);
    }
  }
  return "";
}

TEST(GnnTest, EmptyInputs) {
  RTree tree = RTree::Build(GenerateUniform(10, 1));
  MbmGnnSolver solver(&tree);
  EXPECT_TRUE(solver.Query({}, 3, AggregateKind::kSum).empty());
  EXPECT_TRUE(
      solver.Query({{0.5, 0.5}}, 0, AggregateKind::kSum).empty());
  RTree empty = RTree::Build({});
  MbmGnnSolver empty_solver(&empty);
  EXPECT_TRUE(
      empty_solver.Query({{0.5, 0.5}}, 3, AggregateKind::kSum).empty());
}

TEST(GnnTest, SingleUserReducesToKnn) {
  std::vector<Poi> pois = GenerateUniform(1000, 2);
  RTree tree = RTree::Build(pois);
  MbmGnnSolver solver(&tree);
  Point q{0.4, 0.6};
  auto gnn = solver.Query({q}, 10, AggregateKind::kSum);
  auto knn = KnnBruteForce(pois, q, 10);
  ASSERT_EQ(gnn.size(), knn.size());
  for (size_t i = 0; i < gnn.size(); ++i) {
    EXPECT_EQ(gnn[i].poi.id, knn[i].poi.id);
  }
}

TEST(GnnTest, SumMinimizerForTwoUsersLiesBetween) {
  // Place a POI exactly between two users plus decoys far away; the
  // midpoint POI must win under sum.
  std::vector<Poi> pois = {
      {0, {0.5, 0.5}}, {1, {0.05, 0.05}}, {2, {0.95, 0.95}}};
  RTree tree = RTree::Build(pois);
  MbmGnnSolver solver(&tree);
  auto result = solver.Query({{0.3, 0.3}, {0.7, 0.7}}, 1, AggregateKind::kSum);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].poi.id, 0u);
}

TEST(GnnTest, MinAggregatePicksAnyUsersNearest) {
  std::vector<Poi> pois = {{0, {0.0, 0.0}}, {1, {1.0, 1.0}}, {2, {0.5, 0.0}}};
  RTree tree = RTree::Build(pois);
  MbmGnnSolver solver(&tree);
  // User B sits on POI 1; min-aggregate must return it first.
  auto result =
      solver.Query({{0.2, 0.2}, {1.0, 1.0}}, 1, AggregateKind::kMin);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].poi.id, 1u);
}

TEST(GnnTest, ResultsSortedByAggregateCost) {
  RTree tree = RTree::Build(GenerateSequoiaLike(2000, 3));
  MbmGnnSolver solver(&tree);
  Rng rng(4);
  auto queries = RandomGroup(5, rng);
  for (AggregateKind kind :
       {AggregateKind::kSum, AggregateKind::kMax, AggregateKind::kMin}) {
    auto result = solver.Query(queries, 15, kind);
    ASSERT_EQ(result.size(), 15u);
    for (size_t i = 1; i < result.size(); ++i) {
      EXPECT_LE(result[i - 1].cost, result[i].cost);
    }
    for (const RankedPoi& rp : result) {
      EXPECT_DOUBLE_EQ(rp.cost, AggregateCost(kind, rp.poi.location, queries));
    }
  }
}

struct GnnCase {
  int n;
  int k;
  AggregateKind kind;
};

class GnnDifferentialTest : public ::testing::TestWithParam<GnnCase> {};

TEST_P(GnnDifferentialTest, MbmMatchesBruteForce) {
  const GnnCase& c = GetParam();
  std::vector<Poi> pois = GenerateSequoiaLike(2500, 77);
  RTree tree = RTree::Build(pois);
  MbmGnnSolver mbm(&tree);
  BruteForceGnnSolver brute(&pois);
  Rng rng(88 + c.n * 10 + c.k);
  for (int trial = 0; trial < 10; ++trial) {
    auto queries = RandomGroup(c.n, rng);
    // Same POIs in the same (cost, id) order, with bit-identical costs.
    EXPECT_EQ(AnswerDiff(mbm.Query(queries, c.k, c.kind),
                         brute.Query(queries, c.k, c.kind)),
              "")
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GnnDifferentialTest,
    ::testing::Values(GnnCase{1, 5, AggregateKind::kSum},
                      GnnCase{2, 8, AggregateKind::kSum},
                      GnnCase{8, 8, AggregateKind::kSum},
                      GnnCase{32, 4, AggregateKind::kSum},
                      GnnCase{4, 16, AggregateKind::kMax},
                      GnnCase{8, 8, AggregateKind::kMax},
                      GnnCase{4, 16, AggregateKind::kMin},
                      GnnCase{8, 8, AggregateKind::kMin}));

TEST(GnnTest, MbmPrunesAggressively) {
  // Best-first with the aggregate bound should visit far fewer nodes than
  // the whole tree for a small k.
  RTree tree = RTree::Build(GenerateSequoiaLike(20000, 5));
  MbmGnnSolver solver(&tree);
  Rng rng(6);
  // A realistic group: users within walking distance of each other, so
  // the aggregate bound can cut off most of the tree.
  std::vector<Point> queries;
  for (int i = 0; i < 4; ++i) {
    queries.push_back({0.4 + 0.05 * rng.NextDouble(),
                       0.6 + 0.05 * rng.NextDouble()});
  }
  solver.Query(queries, 8, AggregateKind::kSum);
  EXPECT_LT(solver.last_nodes_visited(), tree.nodes().size() / 4);
}

TEST(GnnTest, SpmMatchesBruteForceAllAggregates) {
  std::vector<Poi> pois = GenerateSequoiaLike(2500, 123);
  RTree tree = RTree::Build(pois);
  SpmGnnSolver spm(&tree);
  BruteForceGnnSolver brute(&pois);
  Rng rng(124);
  for (AggregateKind kind :
       {AggregateKind::kSum, AggregateKind::kMax, AggregateKind::kMin}) {
    for (int trial = 0; trial < 10; ++trial) {
      auto queries = RandomGroup(1 + trial % 8, rng);
      EXPECT_EQ(AnswerDiff(spm.Query(queries, 8, kind),
                           brute.Query(queries, 8, kind)),
                "")
          << AggregateKindToString(kind) << " trial " << trial;
    }
  }
}

TEST(GnnTest, SpmAndMbmAgree) {
  RTree tree = RTree::Build(GenerateSequoiaLike(5000, 125));
  SpmGnnSolver spm(&tree);
  MbmGnnSolver mbm(&tree);
  Rng rng(126);
  for (int trial = 0; trial < 15; ++trial) {
    auto queries = RandomGroup(4, rng);
    EXPECT_EQ(AnswerDiff(spm.Query(queries, 10, AggregateKind::kSum),
                         mbm.Query(queries, 10, AggregateKind::kSum)),
              "")
        << "trial " << trial;
  }
}

TEST(GnnTest, SpmHandlesDegenerateInputs) {
  RTree empty = RTree::Build({});
  SpmGnnSolver solver(&empty);
  EXPECT_TRUE(solver.Query({{0.5, 0.5}}, 3, AggregateKind::kSum).empty());
  RTree tree = RTree::Build(GenerateUniform(10, 127));
  SpmGnnSolver spm(&tree);
  EXPECT_TRUE(spm.Query({}, 3, AggregateKind::kSum).empty());
  EXPECT_EQ(spm.Query({{0.5, 0.5}}, 100, AggregateKind::kSum).size(), 10u);
}

TEST(GnnTest, MbmPrunesBetterThanSpmForSpreadGroups) {
  // The reason the paper's LSP uses MBM: its per-node aggregate bound is
  // tighter than SPM's centroid bound when users are far apart.
  RTree tree = RTree::Build(GenerateSequoiaLike(20000, 128));
  MbmGnnSolver mbm(&tree);
  SpmGnnSolver spm(&tree);
  std::vector<Point> spread = {{0.05, 0.05}, {0.95, 0.95}, {0.05, 0.95},
                               {0.95, 0.05}};
  mbm.Query(spread, 8, AggregateKind::kSum);
  spm.Query(spread, 8, AggregateKind::kSum);
  EXPECT_LE(mbm.last_nodes_visited(), spm.last_nodes_visited());
}

// Exact cost ties: 4,000 POIs on the 1/8 lattice (about 50 per vertex)
// and groups on the 1/16 lattice. MBM and SPM must both return exactly
// the first k POIs in (cost, id) order, as brute force does, for every
// aggregate and a random k.
TEST(GnnTieTest, MbmAndSpmMatchBruteForceUnderExactTies) {
  const std::vector<Poi> pois = GenerateGrid(4000, 8, 31);
  RTree tree = RTree::Build(pois);
  MbmGnnSolver mbm(&tree);
  SpmGnnSolver spm(&tree);
  BruteForceGnnSolver brute(&pois);
  Rng rng(32);
  for (AggregateKind kind :
       {AggregateKind::kSum, AggregateKind::kMax, AggregateKind::kMin}) {
    int mbm_wrong = 0, spm_wrong = 0;
    std::string first;
    for (int trial = 0; trial < 300; ++trial) {
      const auto group =
          LatticeGroup(static_cast<int>(rng.NextInRange(1, 8)), rng);
      const int k = static_cast<int>(rng.NextInRange(1, 40));
      const auto want = brute.Query(group, k, kind);
      const std::string mbm_diff = AnswerDiff(mbm.Query(group, k, kind), want);
      const std::string spm_diff = AnswerDiff(spm.Query(group, k, kind), want);
      mbm_wrong += mbm_diff.empty() ? 0 : 1;
      spm_wrong += spm_diff.empty() ? 0 : 1;
      if (first.empty() && !(mbm_diff + spm_diff).empty()) {
        first = "trial " + std::to_string(trial) + " k " + std::to_string(k) +
                ": MBM " + mbm_diff + "; SPM " + spm_diff;
      }
    }
    EXPECT_EQ(mbm_wrong, 0) << AggregateKindToString(kind) << " " << first;
    EXPECT_EQ(spm_wrong, 0) << AggregateKindToString(kind) << " " << first;
  }
}

TEST(GnnTieTest, KBeyondDatabaseReturnsEveryPoiInOrder) {
  const std::vector<Poi> pois = GenerateGrid(300, 4, 33);
  RTree tree = RTree::Build(pois);
  MbmGnnSolver mbm(&tree);
  SpmGnnSolver spm(&tree);
  BruteForceGnnSolver brute(&pois);
  Rng rng(34);
  for (AggregateKind kind :
       {AggregateKind::kSum, AggregateKind::kMax, AggregateKind::kMin}) {
    for (int trial = 0; trial < 10; ++trial) {
      const auto group =
          LatticeGroup(static_cast<int>(rng.NextInRange(1, 8)), rng);
      const int k = static_cast<int>(rng.NextInRange(301, 400));
      const auto want = brute.Query(group, k, kind);
      ASSERT_EQ(want.size(), pois.size());
      EXPECT_EQ(AnswerDiff(mbm.Query(group, k, kind), want), "")
          << AggregateKindToString(kind) << " trial " << trial;
      EXPECT_EQ(AnswerDiff(spm.Query(group, k, kind), want), "")
          << AggregateKindToString(kind) << " trial " << trial;
    }
  }
}

TEST(GnnTest, SolverNames) {
  RTree tree = RTree::Build(GenerateUniform(10, 7));
  std::vector<Poi> pois = tree.pois();
  MbmGnnSolver mbm(&tree);
  BruteForceGnnSolver brute(&pois);
  EXPECT_STREQ(mbm.name(), "MBM");
  EXPECT_STREQ(brute.name(), "BruteForce");
}

}  // namespace
}  // namespace ppgnn
