#include "spatial/rtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/random.h"
#include "spatial/dataset.h"
#include "spatial/gnn.h"
#include "spatial/knn.h"

namespace ppgnn {
namespace {

TEST(RTreeTest, EmptyTree) {
  RTree tree = RTree::Build({});
  EXPECT_TRUE(tree.Empty());
  EXPECT_EQ(tree.Size(), 0u);
  EXPECT_EQ(tree.Height(), 0);
  EXPECT_TRUE(tree.RangeQuery({0, 0, 1, 1}).empty());
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(RTreeTest, SinglePoi) {
  RTree tree = RTree::Build({{7, {0.5, 0.5}}});
  EXPECT_EQ(tree.Size(), 1u);
  EXPECT_EQ(tree.Height(), 1);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  auto hits = tree.RangeQuery({0.4, 0.4, 0.6, 0.6});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 7u);
}

class RTreeSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RTreeSizeTest, InvariantsHoldAtAllSizes) {
  size_t size = GetParam();
  RTree tree = RTree::Build(GenerateUniform(size, size * 31 + 1));
  EXPECT_EQ(tree.Size(), size);
  EXPECT_TRUE(tree.CheckInvariants().ok()) << tree.CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(Sizes, RTreeSizeTest,
                         ::testing::Values<size_t>(1, 2, 15, 16, 17, 255, 256,
                                                   257, 1000, 5000));

TEST(RTreeTest, HeightGrowsLogarithmically) {
  RTree small = RTree::Build(GenerateUniform(16, 1));
  EXPECT_EQ(small.Height(), 1);
  RTree medium = RTree::Build(GenerateUniform(17, 2));
  EXPECT_EQ(medium.Height(), 2);
  RTree large = RTree::Build(GenerateUniform(5000, 3));
  EXPECT_LE(large.Height(), 4);  // 16^3 = 4096 < 5000 <= 16^4
  EXPECT_GE(large.Height(), 3);
}

TEST(RTreeTest, RangeQueryMatchesLinearScan) {
  std::vector<Poi> pois = GenerateUniform(2000, 42);
  RTree tree = RTree::Build(pois);
  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    double x0 = rng.NextDouble() * 0.8;
    double y0 = rng.NextDouble() * 0.8;
    Rect range{x0, y0, x0 + rng.NextDouble() * 0.3,
               y0 + rng.NextDouble() * 0.3};
    auto hits = tree.RangeQuery(range);
    std::vector<uint32_t> got;
    for (const Poi& p : hits) got.push_back(p.id);
    std::vector<uint32_t> want;
    for (const Poi& p : pois) {
      if (range.Contains(p.location)) want.push_back(p.id);
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
  }
}

TEST(RTreeTest, RangeQueryWholeSpaceReturnsEverything) {
  RTree tree = RTree::Build(GenerateUniform(500, 5));
  EXPECT_EQ(tree.RangeQuery({0, 0, 1, 1}).size(), 500u);
}

TEST(RTreeTest, RangeQueryOutsideSpaceReturnsNothing) {
  RTree tree = RTree::Build(GenerateUniform(500, 6));
  EXPECT_TRUE(tree.RangeQuery({2, 2, 3, 3}).empty());
}

TEST(RTreeTest, DuplicateLocationsAllRetained) {
  std::vector<Poi> pois;
  for (uint32_t i = 0; i < 100; ++i) pois.push_back({i, {0.5, 0.5}});
  RTree tree = RTree::Build(pois);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  EXPECT_EQ(tree.RangeQuery({0.5, 0.5, 0.5, 0.5}).size(), 100u);
}

TEST(RTreeTest, ClusteredDataInvariants) {
  RTree tree = RTree::Build(GenerateSequoiaLike(10000, 99));
  EXPECT_TRUE(tree.CheckInvariants().ok()) << tree.CheckInvariants();
}

// ---------- dynamic updates ----------

TEST(RTreeDynamicTest, InsertIntoEmptyTree) {
  RTree tree = RTree::Build({});
  tree.Insert({7, {0.5, 0.5}});
  EXPECT_EQ(tree.Size(), 1u);
  EXPECT_EQ(tree.Height(), 1);
  EXPECT_TRUE(tree.CheckInvariants().ok()) << tree.CheckInvariants();
  auto hits = tree.RangeQuery({0, 0, 1, 1});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 7u);
}

TEST(RTreeDynamicTest, ManyInsertsKeepInvariants) {
  RTree tree = RTree::Build({});
  Rng rng(11);
  for (uint32_t i = 0; i < 2000; ++i) {
    tree.Insert({i, {rng.NextDouble(), rng.NextDouble()}});
    if (i % 257 == 0) {
      ASSERT_TRUE(tree.CheckInvariants().ok())
          << i << ": " << tree.CheckInvariants();
    }
  }
  EXPECT_EQ(tree.Size(), 2000u);
  EXPECT_TRUE(tree.CheckInvariants().ok()) << tree.CheckInvariants();
  EXPECT_GE(tree.Height(), 3);
}

TEST(RTreeDynamicTest, InsertThenRangeQueryMatchesLinearScan) {
  RTree tree = RTree::Build(GenerateUniform(500, 12));
  Rng rng(13);
  std::vector<Poi> extra;
  for (uint32_t i = 0; i < 300; ++i) {
    Poi poi{1000 + i, {rng.NextDouble(), rng.NextDouble()}};
    extra.push_back(poi);
    tree.Insert(poi);
  }
  ASSERT_TRUE(tree.CheckInvariants().ok());
  std::vector<Poi> all = tree.LivePois();
  EXPECT_EQ(all.size(), 800u);
  for (int trial = 0; trial < 10; ++trial) {
    double x0 = rng.NextDouble() * 0.7;
    double y0 = rng.NextDouble() * 0.7;
    Rect range{x0, y0, x0 + 0.3, y0 + 0.3};
    auto got = tree.RangeQuery(range);
    size_t want = 0;
    for (const Poi& p : all) {
      if (range.Contains(p.location)) ++want;
    }
    EXPECT_EQ(got.size(), want);
  }
}

TEST(RTreeDynamicTest, DeleteRemovesAndCondenses) {
  std::vector<Poi> pois = GenerateUniform(400, 14);
  RTree tree = RTree::Build(pois);
  Rng rng(15);
  std::vector<uint32_t> ids;
  for (const Poi& p : pois) ids.push_back(p.id);
  rng.Shuffle(ids);
  for (size_t i = 0; i < 350; ++i) {
    ASSERT_TRUE(tree.Delete(ids[i])) << i;
    if (i % 37 == 0) {
      ASSERT_TRUE(tree.CheckInvariants().ok())
          << i << ": " << tree.CheckInvariants();
    }
  }
  EXPECT_EQ(tree.Size(), 50u);
  EXPECT_TRUE(tree.CheckInvariants().ok()) << tree.CheckInvariants();
  // Deleted POIs are no longer reachable.
  EXPECT_EQ(tree.RangeQuery({0, 0, 1, 1}).size(), 50u);
}

TEST(RTreeDynamicTest, DeleteMissingIdReturnsFalse) {
  RTree tree = RTree::Build(GenerateUniform(10, 16));
  EXPECT_FALSE(tree.Delete(999));
  EXPECT_EQ(tree.Size(), 10u);
}

TEST(RTreeDynamicTest, DeleteToEmptyAndRefill) {
  RTree tree = RTree::Build(GenerateUniform(20, 17));
  for (uint32_t i = 0; i < 20; ++i) EXPECT_TRUE(tree.Delete(i));
  EXPECT_TRUE(tree.Empty());
  EXPECT_EQ(tree.Height(), 0);
  EXPECT_TRUE(tree.CheckInvariants().ok());
  tree.Insert({100, {0.5, 0.5}});
  EXPECT_EQ(tree.Size(), 1u);
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST(RTreeDynamicTest, MixedChurnKeepsKnnExact) {
  // Property test: after interleaved inserts/deletes, kNN over the tree
  // must match brute force over the live POIs.
  RTree tree = RTree::Build(GenerateUniform(300, 18));
  Rng rng(19);
  uint32_t next_id = 1000;
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < 40; ++i) {
      tree.Insert({next_id++, {rng.NextDouble(), rng.NextDouble()}});
    }
    // Delete ~30 random live ids.
    std::vector<Poi> live = tree.LivePois();
    rng.Shuffle(live);
    for (int i = 0; i < 30 && i < static_cast<int>(live.size()); ++i) {
      ASSERT_TRUE(tree.Delete(live[i].id));
    }
    ASSERT_TRUE(tree.CheckInvariants().ok())
        << round << ": " << tree.CheckInvariants();
    std::vector<Poi> now = tree.LivePois();
    Point q{rng.NextDouble(), rng.NextDouble()};
    auto fast = KnnQuery(tree, q, 10);
    auto slow = KnnBruteForce(now, q, 10);
    ASSERT_EQ(fast.size(), slow.size());
    for (size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i].poi.id, slow[i].poi.id) << round << " rank " << i;
    }
  }
}

// Random Insert/Delete interleavings that force splits (the tree grows
// from empty to height >= 3) and condense-tree reinsertion (it is then
// thinned until the root shrinks). After every batch, CheckInvariants
// compares each inline entry copy with its source, and MBM must equal
// brute force over the live POIs, ids and costs exactly. A third of the
// POIs sit on the 1/8 lattice, so exact cost ties are exercised too.
TEST(RTreeDynamicTest, InterleavedUpdatesKeepInlineEntriesExact) {
  RTree tree = RTree::Build({});
  Rng rng(20);
  uint32_t next_id = 0;
  auto random_poi = [&] {
    Point p{rng.NextDouble(), rng.NextDouble()};
    if (rng.NextBelow(3) == 0) {
      p = {static_cast<double>(rng.NextInRange(0, 8)) / 8,
           static_cast<double>(rng.NextInRange(0, 8)) / 8};
    }
    return Poi{next_id++, p};
  };
  auto delete_some = [&](size_t count) {
    std::vector<Poi> live = tree.LivePois();
    rng.Shuffle(live);
    for (size_t i = 0; i < count && i < live.size(); ++i) {
      ASSERT_TRUE(tree.Delete(live[i].id));
    }
  };
  auto check = [&](const std::string& where) {
    ASSERT_TRUE(tree.CheckInvariants().ok())
        << where << ": " << tree.CheckInvariants();
    const std::vector<Poi> live = tree.LivePois();
    ASSERT_EQ(live.size(), tree.Size());
    MbmGnnSolver mbm(&tree);
    BruteForceGnnSolver brute(&live);
    for (AggregateKind kind :
         {AggregateKind::kSum, AggregateKind::kMax, AggregateKind::kMin}) {
      std::vector<Point> group(static_cast<size_t>(rng.NextInRange(1, 6)));
      for (Point& q : group) q = {rng.NextDouble(), rng.NextDouble()};
      const int k = static_cast<int>(rng.NextInRange(1, 20));
      const auto fast = mbm.Query(group, k, kind);
      const auto slow = brute.Query(group, k, kind);
      ASSERT_EQ(fast.size(), slow.size()) << where;
      for (size_t i = 0; i < fast.size(); ++i) {
        EXPECT_EQ(fast[i].poi.id, slow[i].poi.id) << where << " rank " << i;
        EXPECT_EQ(fast[i].cost, slow[i].cost) << where << " rank " << i;
      }
    }
  };

  // Grow: 40 inserts and 13 deletes per batch.
  int max_height = 0;
  for (int batch = 0; batch < 30; ++batch) {
    for (int i = 0; i < 40; ++i) tree.Insert(random_poi());
    delete_some(13);
    max_height = std::max(max_height, tree.Height());
    check("grow " + std::to_string(batch));
  }
  EXPECT_GE(max_height, 3);

  // Thin: 10 inserts and 40 deletes per batch, down to a few POIs.
  bool shrank = false;
  for (int batch = 0; tree.Size() > 30; ++batch) {
    for (int i = 0; i < 10; ++i) tree.Insert(random_poi());
    delete_some(40);
    shrank = shrank || tree.Height() < max_height;
    check("thin " + std::to_string(batch));
  }
  EXPECT_TRUE(shrank);
}

TEST(RTreeDynamicTest, DuplicateIdsDeleteOneAtATime) {
  RTree tree = RTree::Build({});
  tree.Insert({5, {0.1, 0.1}});
  tree.Insert({5, {0.9, 0.9}});
  EXPECT_EQ(tree.Size(), 2u);
  EXPECT_TRUE(tree.Delete(5));
  EXPECT_EQ(tree.Size(), 1u);
  EXPECT_TRUE(tree.Delete(5));
  EXPECT_TRUE(tree.Empty());
  EXPECT_FALSE(tree.Delete(5));
}

TEST(RTreeTest, RootCoversAllPois) {
  std::vector<Poi> pois = GenerateUniform(300, 8);
  RTree tree = RTree::Build(pois);
  const Rect& root_box = tree.nodes()[tree.root()].box;
  for (const Poi& p : pois) EXPECT_TRUE(root_box.Contains(p.location));
}

}  // namespace
}  // namespace ppgnn
