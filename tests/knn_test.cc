#include "spatial/knn.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "spatial/dataset.h"

namespace ppgnn {
namespace {

TEST(KnnTest, EmptyTreeAndZeroK) {
  RTree empty = RTree::Build({});
  EXPECT_TRUE(KnnQuery(empty, {0.5, 0.5}, 3).empty());
  RTree tree = RTree::Build(GenerateUniform(10, 1));
  EXPECT_TRUE(KnnQuery(tree, {0.5, 0.5}, 0).empty());
  EXPECT_TRUE(KnnQuery(tree, {0.5, 0.5}, -2).empty());
}

TEST(KnnTest, KLargerThanDatabaseReturnsAll) {
  RTree tree = RTree::Build(GenerateUniform(7, 2));
  EXPECT_EQ(KnnQuery(tree, {0.1, 0.1}, 100).size(), 7u);
}

TEST(KnnTest, NearestOfThree) {
  std::vector<Poi> pois = {{0, {0.1, 0.1}}, {1, {0.5, 0.5}}, {2, {0.9, 0.9}}};
  RTree tree = RTree::Build(pois);
  auto result = KnnQuery(tree, {0.52, 0.52}, 1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].poi.id, 1u);
}

TEST(KnnTest, ResultsSortedByDistance) {
  RTree tree = RTree::Build(GenerateUniform(500, 3));
  auto result = KnnQuery(tree, {0.3, 0.7}, 20);
  ASSERT_EQ(result.size(), 20u);
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_LE(result[i - 1].cost, result[i].cost);
  }
}

TEST(KnnTest, ReportedCostIsTrueDistance) {
  RTree tree = RTree::Build(GenerateUniform(200, 4));
  Point q{0.25, 0.75};
  for (const RankedPoi& rp : KnnQuery(tree, q, 10)) {
    EXPECT_DOUBLE_EQ(rp.cost, Distance(q, rp.poi.location));
  }
}

class KnnDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(KnnDifferentialTest, MatchesBruteForce) {
  const int k = GetParam();
  std::vector<Poi> pois = GenerateSequoiaLike(3000, 55);
  RTree tree = RTree::Build(pois);
  Rng rng(66);
  for (int trial = 0; trial < 25; ++trial) {
    Point q{rng.NextDouble(), rng.NextDouble()};
    auto fast = KnnQuery(tree, q, k);
    auto slow = KnnBruteForce(pois, q, k);
    ASSERT_EQ(fast.size(), slow.size());
    for (size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i].poi.id, slow[i].poi.id)
          << "trial " << trial << " rank " << i;
      EXPECT_DOUBLE_EQ(fast[i].cost, slow[i].cost);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, KnnDifferentialTest,
                         ::testing::Values(1, 2, 8, 32, 100));

// Exact distance ties: POIs on the 1/8 lattice, duplicates included, and
// query points on the 1/16 lattice. The answer must be exactly the first
// k in (distance, id) order, with bit-identical distances.
TEST(KnnTest, MatchesBruteForceUnderExactTies) {
  std::vector<Poi> pois = GenerateGrid(4000, 8, 35);
  RTree tree = RTree::Build(pois);
  Rng rng(36);
  int wrong = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const Point q{static_cast<double>(rng.NextInRange(0, 16)) / 16,
                  static_cast<double>(rng.NextInRange(0, 16)) / 16};
    const int k = trial < 10 ? 4001 : static_cast<int>(rng.NextInRange(1, 40));
    auto fast = KnnQuery(tree, q, k);
    auto slow = KnnBruteForce(pois, q, k);
    bool same = fast.size() == slow.size();
    for (size_t i = 0; same && i < fast.size(); ++i) {
      same = fast[i].poi.id == slow[i].poi.id && fast[i].cost == slow[i].cost;
    }
    wrong += same ? 0 : 1;
  }
  EXPECT_EQ(wrong, 0);
}

TEST(KnnTest, QueryOutsideDataSpace) {
  std::vector<Poi> pois = GenerateUniform(100, 7);
  RTree tree = RTree::Build(pois);
  auto fast = KnnQuery(tree, {5.0, 5.0}, 5);
  auto slow = KnnBruteForce(pois, {5.0, 5.0}, 5);
  ASSERT_EQ(fast.size(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(fast[i].poi.id, slow[i].poi.id);
}

}  // namespace
}  // namespace ppgnn
