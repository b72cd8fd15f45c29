#include "analytics/analytics_engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

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

MSemantics Pass(RegionId region, double t_start, double t_end) {
  MSemantics ms = Stay(region, t_start, t_end);
  ms.event = MobilityEvent::kPass;
  return ms;
}

TEST(AnalyticsEngineOptionsTest, ValidatedRepairsBadConfigs) {
  AnalyticsEngine::Options bad;
  bad.num_shards = -3;
  bad.bucket_seconds = 0.0;
  bad.horizon_seconds = -10.0;
  bad.min_visit_seconds = std::nan("");
  bad.dwell_min_seconds = -1.0;
  bad.dwell_max_seconds = 0.5;
  bad.dwell_growth = 0.9;
  const AnalyticsEngine::Options v = bad.Validated();
  EXPECT_GE(v.num_shards, 1);
  EXPECT_GT(v.bucket_seconds, 0.0);
  EXPECT_GE(v.horizon_seconds, v.bucket_seconds);
  EXPECT_GE(v.min_visit_seconds, 0.0);
  EXPECT_GT(v.dwell_min_seconds, 0.0);
  EXPECT_GT(v.dwell_max_seconds, v.dwell_min_seconds);
  EXPECT_GT(v.dwell_growth, 1.0);
  // A sane config passes through untouched.
  AnalyticsEngine::Options good;
  good.num_shards = 4;
  good.bucket_seconds = 30.0;
  good.horizon_seconds = 600.0;
  const AnalyticsEngine::Options gv = good.Validated();
  EXPECT_EQ(gv.num_shards, 4);
  EXPECT_EQ(gv.bucket_seconds, 30.0);
  EXPECT_EQ(gv.horizon_seconds, 600.0);
}

TEST(AnalyticsEngineTest, RegionGaugesAccumulate) {
  AnalyticsEngine::Options options;
  options.min_visit_seconds = 10.0;
  AnalyticsEngine engine(options);
  engine.Ingest(1, Stay(2, 0.0, 60.0));    // Visit (>= 10 s).
  engine.Ingest(1, Pass(3, 60.0, 65.0));
  engine.Ingest(1, Stay(2, 65.0, 70.0));   // Stay but too short for a visit.
  engine.Ingest(2, Stay(2, 0.0, 30.0));    // Visit from another object.

  const AnalyticsSnapshot snap = engine.Snapshot();
  EXPECT_EQ(snap.semantics_ingested, 4u);
  EXPECT_EQ(snap.retained_visits, 3u);  // Stays only.
  EXPECT_EQ(snap.objects_tracked, 2u);
  EXPECT_DOUBLE_EQ(snap.watermark_seconds, 70.0);
  ASSERT_EQ(snap.regions.size(), 2u);

  const RegionAnalytics& r2 = snap.regions[0];
  EXPECT_EQ(r2.region, 2);
  EXPECT_EQ(r2.stays, 3u);
  EXPECT_EQ(r2.passes, 0u);
  EXPECT_EQ(r2.visits, 2u);  // The 5-second stay is not a visit.
  EXPECT_DOUBLE_EQ(r2.total_dwell_seconds, 95.0);
  EXPECT_DOUBLE_EQ(r2.dwell_max_seconds, 60.0);
  EXPECT_GT(r2.dwell_p50_seconds, 0.0);

  const RegionAnalytics& r3 = snap.regions[1];
  EXPECT_EQ(r3.region, 3);
  EXPECT_EQ(r3.stays, 0u);
  EXPECT_EQ(r3.passes, 1u);
}

TEST(AnalyticsEngineTest, OccupancyFollowsLastSemanticsAndSessionClose) {
  AnalyticsEngine engine(AnalyticsEngine::Options{});
  engine.Ingest(1, Stay(5, 0.0, 10.0));
  engine.Ingest(2, Stay(5, 0.0, 12.0));
  auto occupancy_of = [&](RegionId region) -> int64_t {
    for (const RegionAnalytics& r : engine.Snapshot().regions) {
      if (r.region == region) return r.occupancy;
    }
    return 0;
  };
  EXPECT_EQ(occupancy_of(5), 2);

  engine.Ingest(1, Pass(6, 10.0, 11.0));  // Object 1 moved on.
  EXPECT_EQ(occupancy_of(5), 1);
  EXPECT_EQ(occupancy_of(6), 0);  // A pass does not occupy.

  engine.Ingest(1, Stay(6, 11.0, 20.0));
  EXPECT_EQ(occupancy_of(6), 1);

  engine.NoteSessionClosed(2);
  EXPECT_EQ(occupancy_of(5), 0);
  EXPECT_EQ(engine.Snapshot().objects_tracked, 1u);
  // Closing an unknown object is harmless.
  engine.NoteSessionClosed(99);
}

TEST(AnalyticsEngineTest, FlowMatrixCountsRegionChanges) {
  AnalyticsEngine engine(AnalyticsEngine::Options{});
  engine.Ingest(1, Stay(1, 0.0, 10.0));
  engine.Ingest(1, Pass(2, 10.0, 12.0));   // 1 -> 2.
  engine.Ingest(1, Stay(2, 12.0, 30.0));   // Same region: no edge.
  engine.Ingest(1, Stay(1, 30.0, 40.0));   // 2 -> 1.
  engine.Ingest(2, Stay(1, 0.0, 5.0));
  engine.Ingest(2, Stay(2, 5.0, 9.0));     // 1 -> 2 again.

  const AnalyticsSnapshot snap = engine.Snapshot();
  ASSERT_EQ(snap.flows.size(), 2u);
  EXPECT_EQ(snap.flows[0].from, 1);
  EXPECT_EQ(snap.flows[0].to, 2);
  EXPECT_EQ(snap.flows[0].count, 2u);
  EXPECT_EQ(snap.flows[1].from, 2);
  EXPECT_EQ(snap.flows[1].to, 1);
  EXPECT_EQ(snap.flows[1].count, 1u);
}

TEST(AnalyticsEngineTest, NonFiniteSemanticsAreDroppedAndCounted) {
  AnalyticsEngine engine(AnalyticsEngine::Options{});
  engine.Ingest(1, Stay(1, 0.0, std::numeric_limits<double>::quiet_NaN()));
  engine.Ingest(1, Stay(1, std::numeric_limits<double>::infinity(), 10.0));
  // Finite but too extreme to bucket: the int64 cast would be UB.
  engine.Ingest(1, Stay(1, 0.0, 1e30));
  engine.Ingest(1, Stay(1, 0.0, -1e30));
  engine.Ingest(1, Stay(1, 0.0, 10.0));
  const AnalyticsSnapshot snap = engine.Snapshot();
  EXPECT_EQ(snap.semantics_ingested, 5u);
  EXPECT_EQ(snap.invalid_dropped, 4u);
  EXPECT_EQ(snap.retained_visits, 1u);
  ASSERT_EQ(snap.regions.size(), 1u);
  EXPECT_EQ(snap.regions[0].stays, 1u);
}

TEST(AnalyticsEngineTest, RetentionAgesOutOldBuckets) {
  AnalyticsEngine::Options options;
  options.bucket_seconds = 10.0;
  options.horizon_seconds = 30.0;  // 3 buckets + 1 slack.
  AnalyticsEngine engine(options);

  engine.Ingest(1, Stay(1, 0.0, 5.0));
  engine.Ingest(1, Stay(1, 10.0, 15.0));
  EXPECT_EQ(engine.Snapshot().retained_visits, 2u);

  // Jump the watermark far past the horizon: both old buckets recycle.
  engine.Ingest(1, Stay(1, 200.0, 205.0));
  AnalyticsSnapshot snap = engine.Snapshot();
  EXPECT_EQ(snap.retained_visits, 1u);
  EXPECT_EQ(snap.buckets_evicted, 2u);

  // A visit older than the horizon arrives late: dropped, counted.
  engine.Ingest(1, Stay(1, 20.0, 25.0));
  snap = engine.Snapshot();
  EXPECT_EQ(snap.retained_visits, 1u);
  EXPECT_EQ(snap.late_dropped, 1u);

  // A visit slightly behind the watermark but inside the horizon lands.
  engine.Ingest(2, Stay(1, 190.0, 195.0));
  EXPECT_EQ(engine.Snapshot().retained_visits, 2u);

  // Aged-out visits are invisible to the windowed queries; the
  // cumulative gauges still remember every stay.
  const TimeWindow everything{0.0, 1e9};
  const auto popular = engine.TopKPopularRegions({1}, everything, 5);
  ASSERT_EQ(popular.size(), 1u);
  ASSERT_EQ(snap.regions.size(), 1u);
  EXPECT_EQ(engine.Snapshot().regions[0].stays, 5u);
}

TEST(AnalyticsEngineTest, WindowedQueriesFilterLikeBatch) {
  AnalyticsEngine engine(AnalyticsEngine::Options{});
  // Object 1 stays at regions 1, 2 inside [0, 100]; object 2 at 2, 3.
  engine.Ingest(1, Stay(1, 0.0, 40.0));
  engine.Ingest(1, Stay(2, 50.0, 90.0));
  engine.Ingest(2, Stay(2, 10.0, 60.0));
  engine.Ingest(2, Stay(3, 70.0, 75.0));     // Short stay.
  engine.Ingest(2, Stay(4, 300.0, 400.0));   // Outside the window.

  const TimeWindow window{0.0, 100.0};
  const std::vector<RegionId> all = {1, 2, 3, 4};

  // Region 2 has two visits; 1 and 3 one each (tie broken by id).
  EXPECT_EQ(engine.TopKPopularRegions(all, window, 3),
            (std::vector<RegionId>{2, 1, 3}));
  // A 10-second minimum drops region 3's blip.
  EXPECT_EQ(engine.TopKPopularRegions(all, window, 3, 10.0),
            (std::vector<RegionId>{2, 1}));
  // Region filtering works.
  EXPECT_EQ(engine.TopKPopularRegions({2, 3}, window, 3),
            (std::vector<RegionId>{2, 3}));

  // Pairs: object 1 co-visited {1,2}, object 2 co-visited {2,3}.
  const auto pairs = engine.TopKFrequentRegionPairs(all, window, 5);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], (std::pair<RegionId, RegionId>{1, 2}));
  EXPECT_EQ(pairs[1], (std::pair<RegionId, RegionId>{2, 3}));
}

double MetricValue(const AnalyticsEngine& engine, const std::string& name) {
  for (const obs::MetricSnapshot& m : engine.metrics_registry().Snapshot()) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "metric " << name << " not registered";
  return -1.0;
}

TEST(AnalyticsEngineTest, ThresholdMergeOutcomesAreCounted) {
  AnalyticsEngine engine(AnalyticsEngine::Options{});
  // Region 1: ten visits.  Regions 100..299: one visit each, a count
  // distribution flat enough to exhaust a k = 1 merge's budget.
  int64_t object = 0;
  for (int i = 0; i < 10; ++i) engine.Ingest(object++, Stay(1, 0.0, 40.0));
  std::vector<RegionId> flat;
  for (RegionId r = 100; r < 300; ++r) {
    engine.Ingest(object++, Stay(r, 0.0, 40.0));
    flat.push_back(r);
  }
  std::vector<RegionId> all = flat;
  all.push_back(1);
  const TimeWindow everything{-1e6, 1e6};
  const auto early = [&] {
    return MetricValue(engine, "c2mn_analytics_merge_early_exit_total");
  };
  const auto fallback = [&] {
    return MetricValue(engine, "c2mn_analytics_merge_fallback_total");
  };
  EXPECT_EQ(early(), 0.0);
  EXPECT_EQ(fallback(), 0.0);

  // 10 beats every other head: the threshold stop fires.
  EXPECT_EQ(engine.TopKPopularRegions(all, everything, 1),
            (std::vector<RegionId>{1}));
  EXPECT_EQ(early(), 1.0);
  EXPECT_EQ(fallback(), 0.0);

  // 200 tied heads: the sorted-access budget runs out first.
  EXPECT_EQ(engine.TopKPopularRegions(flat, everything, 1),
            (std::vector<RegionId>{100}));
  EXPECT_EQ(early(), 1.0);
  EXPECT_EQ(fallback(), 1.0);

  // Every admissible key resolved (neither outcome), and scan-served
  // polls (a threshold other than the maintained one), leave both
  // counters alone.
  EXPECT_EQ(engine.TopKPopularRegions({100, 101}, everything, 5),
            (std::vector<RegionId>{100, 101}));
  EXPECT_EQ(engine.TopKPopularRegions(all, everything, 1, 10.0),
            (std::vector<RegionId>{1}));
  EXPECT_TRUE(engine.TopKFrequentRegionPairs(all, everything, 1).empty());
  EXPECT_EQ(early(), 1.0);
  EXPECT_EQ(fallback(), 1.0);
}

TEST(AnalyticsEngineTest, ShardCountDoesNotChangeAnswers) {
  // The same per-object streams, sharded three different ways, must
  // produce identical snapshots and query answers.
  auto feed = [](AnalyticsEngine* engine) {
    for (int64_t object = 0; object < 12; ++object) {
      const double base = 17.0 * static_cast<double>(object);
      engine->Ingest(object, Stay(static_cast<RegionId>(object % 3),
                                  base, base + 30.0));
      engine->Ingest(object, Pass(static_cast<RegionId>((object + 1) % 3),
                                  base + 30.0, base + 35.0));
      engine->Ingest(object, Stay(static_cast<RegionId>((object + 2) % 3),
                                  base + 35.0, base + 80.0));
    }
  };
  const TimeWindow window{0.0, 500.0};
  const std::vector<RegionId> regions = {0, 1, 2};

  std::vector<std::vector<RegionId>> popular;
  std::vector<std::vector<std::pair<RegionId, RegionId>>> pairs;
  std::vector<AnalyticsSnapshot> snaps;
  for (int shards : {1, 2, 4}) {
    AnalyticsEngine::Options options;
    options.num_shards = shards;
    AnalyticsEngine engine(options);
    feed(&engine);
    popular.push_back(engine.TopKPopularRegions(regions, window, 3));
    pairs.push_back(engine.TopKFrequentRegionPairs(regions, window, 3));
    snaps.push_back(engine.Snapshot());
  }
  for (size_t i = 1; i < popular.size(); ++i) {
    EXPECT_EQ(popular[i], popular[0]);
    EXPECT_EQ(pairs[i], pairs[0]);
    EXPECT_EQ(snaps[i].semantics_ingested, snaps[0].semantics_ingested);
    EXPECT_EQ(snaps[i].retained_visits, snaps[0].retained_visits);
    EXPECT_EQ(snaps[i].objects_tracked, snaps[0].objects_tracked);
    ASSERT_EQ(snaps[i].regions.size(), snaps[0].regions.size());
    for (size_t r = 0; r < snaps[0].regions.size(); ++r) {
      EXPECT_EQ(snaps[i].regions[r].region, snaps[0].regions[r].region);
      EXPECT_EQ(snaps[i].regions[r].stays, snaps[0].regions[r].stays);
      EXPECT_EQ(snaps[i].regions[r].occupancy, snaps[0].regions[r].occupancy);
      EXPECT_DOUBLE_EQ(snaps[i].regions[r].total_dwell_seconds,
                       snaps[0].regions[r].total_dwell_seconds);
    }
    ASSERT_EQ(snaps[i].flows.size(), snaps[0].flows.size());
    for (size_t f = 0; f < snaps[0].flows.size(); ++f) {
      EXPECT_EQ(snaps[i].flows[f].from, snaps[0].flows[f].from);
      EXPECT_EQ(snaps[i].flows[f].to, snaps[0].flows[f].to);
      EXPECT_EQ(snaps[i].flows[f].count, snaps[0].flows[f].count);
    }
  }
}

}  // namespace
}  // namespace c2mn
