#include "indoor/rtree.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace c2mn {
namespace {

BoundingBox MakeBox(double x0, double y0, double x1, double y1) {
  BoundingBox box;
  box.Extend({x0, y0});
  box.Extend({x1, y1});
  return box;
}

std::vector<RTree::Entry> RandomEntries(int n, Rng* rng) {
  std::vector<RTree::Entry> entries;
  for (int i = 0; i < n; ++i) {
    const double x = rng->Uniform(0, 100), y = rng->Uniform(0, 100);
    const double w = rng->Uniform(0.5, 6), h = rng->Uniform(0.5, 6);
    entries.push_back({MakeBox(x, y, x + w, y + h), i});
  }
  return entries;
}

TEST(RTreeTest, EmptyTree) {
  RTree tree({});
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.Search(MakeBox(0, 0, 100, 100)).empty());
  int visits = 0;
  tree.NearestTraversal(
      {0, 0}, [](int32_t) { return 0.0; },
      [&](int32_t, double) {
        ++visits;
        return true;
      });
  EXPECT_EQ(visits, 0);
}

TEST(RTreeTest, SingleEntry) {
  RTree tree({{MakeBox(1, 1, 2, 2), 42}});
  const auto hits = tree.Search(MakeBox(0, 0, 3, 3));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 42);
  EXPECT_TRUE(tree.Search(MakeBox(5, 5, 6, 6)).empty());
}

/// Search property: matches brute force on random data.
class RTreeSearchProperty : public ::testing::TestWithParam<int> {};

TEST_P(RTreeSearchProperty, MatchesBruteForce) {
  Rng rng(GetParam() * 37 + 11);
  const int n = 5 + static_cast<int>(rng.UniformInt(uint64_t{300}));
  auto entries = RandomEntries(n, &rng);
  RTree tree(entries, 8);
  for (int q = 0; q < 20; ++q) {
    const double x = rng.Uniform(-10, 110), y = rng.Uniform(-10, 110);
    const BoundingBox query =
        MakeBox(x, y, x + rng.Uniform(1, 30), y + rng.Uniform(1, 30));
    std::vector<int32_t> expected;
    for (const auto& e : entries) {
      if (e.box.Intersects(query)) expected.push_back(e.payload);
    }
    std::vector<int32_t> actual = tree.Search(query);
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomData, RTreeSearchProperty,
                         ::testing::Range(0, 15));

/// Nearest-k property: ordered by refined distance, matches brute force.
class RTreeNearestProperty : public ::testing::TestWithParam<int> {};

TEST_P(RTreeNearestProperty, MatchesBruteForce) {
  Rng rng(GetParam() * 53 + 19);
  const int n = 5 + static_cast<int>(rng.UniformInt(uint64_t{200}));
  auto entries = RandomEntries(n, &rng);
  RTree tree(entries, 8);
  for (int q = 0; q < 10; ++q) {
    const Vec2 p{rng.Uniform(-10, 110), rng.Uniform(-10, 110)};
    auto exact = [&](int32_t payload) {
      return entries[payload].box.Distance(p);
    };
    const size_t k = 1 + rng.UniformInt(uint64_t{8});
    const auto result = tree.NearestK(p, k, exact);
    ASSERT_EQ(result.size(), std::min(k, entries.size()));
    // Non-decreasing distances.
    for (size_t i = 1; i < result.size(); ++i) {
      EXPECT_GE(result[i].second, result[i - 1].second - 1e-12);
    }
    // Matches the brute-force k-th distance.
    std::vector<double> all;
    for (const auto& e : entries) all.push_back(e.box.Distance(p));
    std::sort(all.begin(), all.end());
    for (size_t i = 0; i < result.size(); ++i) {
      EXPECT_NEAR(result[i].second, all[i], 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomData, RTreeNearestProperty,
                         ::testing::Range(0, 15));

TEST(RTreeTest, NearestTraversalStopsWhenVisitorReturnsFalse) {
  Rng rng(99);
  auto entries = RandomEntries(100, &rng);
  RTree tree(entries);
  int visits = 0;
  tree.NearestTraversal(
      {50, 50},
      [&](int32_t payload) {
        return entries[payload].box.SquaredDistance({50, 50});
      },
      [&](int32_t, double) { return ++visits < 5; });
  EXPECT_EQ(visits, 5);
}

}  // namespace
}  // namespace c2mn
