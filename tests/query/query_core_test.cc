#include "query/query_core.h"

#include <gtest/gtest.h>

#include <vector>

#include "analytics/analytics_engine.h"
#include "eval/queries.h"

namespace c2mn {
namespace {

MSemantics Stay(RegionId region, double t_start, double t_end) {
  MSemantics ms;
  ms.region = region;
  ms.t_start = t_start;
  ms.t_end = t_end;
  ms.event = MobilityEvent::kStay;
  ms.support = 1;
  return ms;
}

TEST(RankTopKTest, CountDescendingThenKeyAscending) {
  std::vector<std::pair<RegionId, int64_t>> counted = {
      {7, 2}, {1, 5}, {9, 2}, {3, 5}, {2, 2}};
  EXPECT_EQ(query::RankTopK(counted, 10),
            (std::vector<RegionId>{1, 3, 2, 7, 9}));
  EXPECT_EQ(query::RankTopK(counted, 3), (std::vector<RegionId>{1, 3, 2}));
  EXPECT_EQ(query::RankTopK(counted, 0), std::vector<RegionId>{});
  // Input order never matters: the comparator is a strict total order.
  std::reverse(counted.begin(), counted.end());
  EXPECT_EQ(query::RankTopK(counted, 10),
            (std::vector<RegionId>{1, 3, 2, 7, 9}));
}

TEST(RankTopKTest, PairKeysTieBreakLexicographically) {
  using P = RegionPair;
  std::vector<std::pair<P, int64_t>> counted = {
      {{2, 9}, 4}, {{1, 3}, 4}, {{2, 3}, 4}, {{1, 9}, 7}};
  EXPECT_EQ(query::RankTopK(counted, 10),
            (std::vector<P>{{1, 9}, {1, 3}, {2, 3}, {2, 9}}));
}

TEST(CompiledSpecTest, PredicateMatchesBatchDefinition) {
  const query::CompiledSpec spec(
      query::VisitSpec{{1, 2}, false, TimeWindow{10.0, 20.0}, 5.0});
  EXPECT_TRUE(spec.Matches(Stay(1, 12.0, 18.0)));
  EXPECT_TRUE(spec.Matches(Stay(2, 0.0, 10.0)));    // Touches the window edge.
  EXPECT_TRUE(spec.Matches(Stay(1, 20.0, 30.0)));   // Other edge.
  EXPECT_FALSE(spec.Matches(Stay(3, 12.0, 18.0)));  // Region not queried.
  EXPECT_FALSE(spec.Matches(Stay(1, 12.0, 14.0)));  // Too short.
  EXPECT_FALSE(spec.Matches(Stay(1, 21.0, 30.0)));  // Outside the window.
  MSemantics pass = Stay(1, 12.0, 18.0);
  pass.event = MobilityEvent::kPass;
  EXPECT_FALSE(spec.Matches(pass));

  // An empty region list with all_regions unset matches nothing (the
  // batch query over an empty query-region list), while all_regions
  // matches anything.
  const query::CompiledSpec none(
      query::VisitSpec{{}, false, TimeWindow::All(), 0.0});
  EXPECT_FALSE(none.Matches(Stay(1, 0.0, 10.0)));
  const query::CompiledSpec all(
      query::VisitSpec{{}, true, TimeWindow::All(), 0.0});
  EXPECT_TRUE(all.Matches(Stay(1, 0.0, 10.0)));
}

TEST(TopKSketchTest, AddRemoveKeepsCountsExact) {
  const query::CompiledSpec spec(
      query::VisitSpec{{}, true, TimeWindow::All(), 0.0});
  query::TopKSketch sketch(&spec);
  EXPECT_TRUE(sketch.AddVisit(1, 10, 0.0, 5.0));
  EXPECT_TRUE(sketch.AddVisit(1, 10, 6.0, 9.0));   // Second visit, same pair set.
  EXPECT_TRUE(sketch.AddVisit(1, 20, 10.0, 15.0));
  EXPECT_TRUE(sketch.AddVisit(2, 20, 0.0, 5.0));
  EXPECT_EQ(sketch.TopKRegions(10), (std::vector<RegionId>{10, 20}));
  EXPECT_EQ(sketch.TopKPairs(10), (std::vector<RegionPair>{{10, 20}}));

  // Removing one of object 1's two region-10 visits keeps the pair (the
  // other visit still co-locates 10 with 20)...
  EXPECT_TRUE(sketch.RemoveVisit(1, 10, 0.0, 5.0));
  EXPECT_EQ(sketch.TopKRegions(10), (std::vector<RegionId>{20, 10}));
  EXPECT_EQ(sketch.TopKPairs(10), (std::vector<RegionPair>{{10, 20}}));
  // ...and removing the last one drops it.
  EXPECT_TRUE(sketch.RemoveVisit(1, 10, 6.0, 9.0));
  EXPECT_TRUE(sketch.TopKPairs(10).empty());
  EXPECT_EQ(sketch.TopKRegions(10), (std::vector<RegionId>{20}));

  // Non-matching visits touch nothing.
  const query::CompiledSpec narrow(
      query::VisitSpec{{10}, false, TimeWindow::All(), 0.0});
  query::TopKSketch filtered(&narrow);
  EXPECT_FALSE(filtered.AddVisit(1, 99, 0.0, 5.0));
  EXPECT_TRUE(filtered.empty());
}

/// A corpus where every region has exactly the same visit count and
/// every pair the same co-visit count: the ranking is decided purely by
/// the tie-break, which must be identical across batch and streaming
/// paths at any shard count.
class TieBreakDeterminismTest : public ::testing::Test {
 protected:
  TieBreakDeterminismTest() {
    // Nine objects, each staying once at three of regions {0..8}, laid
    // out so all 9 regions get exactly 3 visits and co-visit pairs
    // repeat symmetrically (rows + columns of a 3x3 grid).
    int64_t object = 0;
    for (int row = 0; row < 3; ++row) {
      AddObject(object++, {row * 3 + 0, row * 3 + 1, row * 3 + 2});
    }
    for (int col = 0; col < 3; ++col) {
      AddObject(object++, {col, col + 3, col + 6});
    }
    for (int d = 0; d < 3; ++d) {
      AddObject(object++, {d, (d + 1) % 3 + 3, (d + 2) % 3 + 6});
    }
    for (RegionId r = 0; r < 9; ++r) all_regions_.push_back(r);
  }

  void AddObject(int64_t object, std::vector<int> regions) {
    MSemanticsSequence seq;
    double t = 0.0;
    for (int r : regions) {
      seq.push_back(Stay(static_cast<RegionId>(r), t, t + 60.0));
      t += 100.0;
    }
    corpus_.Add(object, std::move(seq));
  }

  AnnotatedCorpus corpus_;
  std::vector<RegionId> all_regions_;
};

TEST_F(TieBreakDeterminismTest, EqualCountsRankByIdAcrossAllPaths) {
  const TimeWindow window{-1.0, 1e6};
  // Every region has 3 visits: top-4 must be the 4 smallest ids.
  const auto batch = TopKPopularRegions(corpus_, all_regions_, window, 4);
  EXPECT_EQ(batch, (std::vector<RegionId>{0, 1, 2, 3}));
  // Every pair formed by a row/column/diagonal has count 1: the pair
  // ranking is pure lexicographic tie-break.
  const auto batch_pairs =
      TopKFrequentRegionPairs(corpus_, all_regions_, window, 5);
  ASSERT_EQ(batch_pairs.size(), 5u);
  for (size_t i = 1; i < batch_pairs.size(); ++i) {
    EXPECT_LT(batch_pairs[i - 1], batch_pairs[i]) << "pair order not sorted";
  }

  for (int shards : {1, 2, 4}) {
    AnalyticsEngine::Options options;
    options.num_shards = shards;
    AnalyticsEngine engine(options);
    for (size_t i = 0; i < corpus_.size(); ++i) {
      for (const MSemantics& ms : corpus_.semantics[i]) {
        engine.Ingest(corpus_.object_ids[i], ms);
      }
    }
    // Pre-aggregated path (window covers everything, threshold 0 =
    // engine default) and scan path (min_visit 1.0 differs from the
    // engine's maintained threshold, forcing the fallback) must both
    // reproduce the batch answer.
    EXPECT_EQ(engine.TopKPopularRegions(all_regions_, window, 4), batch)
        << shards << " shards (pre-aggregated)";
    EXPECT_EQ(engine.TopKFrequentRegionPairs(all_regions_, window, 5),
              batch_pairs)
        << shards << " shards (pre-aggregated)";
    const auto scan_batch =
        TopKPopularRegions(corpus_, all_regions_, window, 4, 1.0);
    EXPECT_EQ(engine.TopKPopularRegions(all_regions_, window, 4, 1.0),
              scan_batch)
        << shards << " shards (scan)";
    const auto scan_pairs =
        TopKFrequentRegionPairs(corpus_, all_regions_, window, 5, 1.0);
    EXPECT_EQ(engine.TopKFrequentRegionPairs(all_regions_, window, 5, 1.0),
              scan_pairs)
        << shards << " shards (scan)";
    // The paths really were split as intended.
    const AnalyticsSnapshot snap = engine.Snapshot();
    EXPECT_EQ(snap.preagg_region_queries + snap.preagg_pair_queries, 2u)
        << shards << " shards";
    EXPECT_EQ(snap.scan_region_queries + snap.scan_pair_queries, 2u)
        << shards << " shards";
    // ... and the per-kind split attributes one poll to each kind.
    EXPECT_EQ(snap.preagg_region_queries, 1u) << shards << " shards";
    EXPECT_EQ(snap.preagg_pair_queries, 1u) << shards << " shards";
    EXPECT_EQ(snap.scan_region_queries, 1u) << shards << " shards";
    EXPECT_EQ(snap.scan_pair_queries, 1u) << shards << " shards";
  }
}

TEST_F(TieBreakDeterminismTest, StandingQueryAnswerMatchesPollOnTies) {
  for (int shards : {1, 2, 4}) {
    AnalyticsEngine::Options options;
    options.num_shards = shards;
    AnalyticsEngine engine(options);
    StandingQuery standing;
    standing.kind = StandingQuery::Kind::kPopularRegions;
    standing.spec.all_regions = true;
    standing.k = 4;
    std::vector<RegionId> last_pushed;
    const int id = engine.Subscribe(
        standing, [&last_pushed](const StandingQueryDelta& delta) {
          last_pushed = delta.regions;
        });
    for (size_t i = 0; i < corpus_.size(); ++i) {
      for (const MSemantics& ms : corpus_.semantics[i]) {
        engine.Ingest(corpus_.object_ids[i], ms);
      }
    }
    EXPECT_EQ(last_pushed,
              engine.TopKPopularRegions(all_regions_, TimeWindow::All(), 4))
        << shards << " shards";
    EXPECT_EQ(last_pushed, (std::vector<RegionId>{0, 1, 2, 3}))
        << shards << " shards";
    EXPECT_TRUE(engine.Unsubscribe(id));
  }
}

}  // namespace
}  // namespace c2mn
