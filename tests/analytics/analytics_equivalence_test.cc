#include <gtest/gtest.h>

#include <mutex>
#include <vector>

#include "analytics/analytics_engine.h"
#include "core/weights_io.h"
#include "eval/queries.h"
#include "service/annotation_service.h"
#include "tests/test_util.h"

namespace c2mn {
namespace {

/// The ISSUE-4 acceptance gate: replay a simulated multi-session stream
/// through the analytics engine (wired into AnnotationService) and
/// assert its top-k answers are bit-identical to the batch eval/queries
/// implementation over the collected corpus — for 1, 2, and 4 shards.
class AnalyticsEquivalenceTest : public ::testing::Test {
 protected:
  AnalyticsEquivalenceTest() : scenario_(testing_util::SmallMallScenario()) {
    // Annotation *quality* is irrelevant here — both sides consume the
    // same m-semantics stream — so fixed weights skip the training cost.
    weights_.assign(static_cast<size_t>(kNumWeights), 0.5);
    for (const LabeledSequence& ls : scenario_.dataset.sequences) {
      std::vector<PositioningRecord> records = ls.sequence.records;
      if (records.size() > 120) records.resize(120);
      sources_.push_back(std::move(records));
    }
  }

  /// Replays every source stream through a service with live analytics,
  /// collecting the sink output into a corpus (one sequence per object,
  /// exactly what the batch queries expect).
  struct Replay {
    AnalyticsSnapshot snapshot;
    AnnotatedCorpus corpus;
    std::vector<RegionId> popular[3];
    std::vector<std::pair<RegionId, RegionId>> pairs[3];
    std::vector<RegionId> batch_popular[3];
    std::vector<std::pair<RegionId, RegionId>> batch_pairs[3];
    /// The last delta pushed by a standing top-k subscribed before any
    /// record was submitted.
    std::vector<RegionId> standing_answer;
  };

  Replay Run(int num_shards) {
    AnnotationService::Options options;
    options.num_shards = num_shards;
    options.annotator.window_records = 24;
    options.annotator.finalize_lag = 6;
    options.annotator.decode_stride = 4;
    options.analytics.enabled = true;
    // A horizon wide enough that nothing ages out during the replay.
    options.analytics.engine.bucket_seconds = 60.0;
    options.analytics.engine.horizon_seconds = 1e9;
    // A standing query riding along with the replay: its final pushed
    // answer must equal the poll (and therefore the batch answer).  Its
    // captured state precedes the service so teardown-time deltas (an
    // early EXPECT failure path) never touch destroyed objects.
    std::mutex standing_mu;
    std::vector<RegionId> standing_answer;

    AnnotationService service(*scenario_.world, FeatureOptions{},
                              C2mnStructure{}, weights_, options);

    StandingQuery standing;
    standing.spec.all_regions = true;
    standing.k = 5;
    EXPECT_TRUE(service
                    .SubscribeAnalytics(
                        standing,
                        [&standing_mu, &standing_answer](
                            const StandingQueryDelta& delta) {
                          std::lock_guard<std::mutex> lock(standing_mu);
                          standing_answer = delta.regions;
                        })
                    .ok());

    const size_t n = sources_.size();
    std::vector<MSemanticsSequence> emitted(n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(service
                      .OpenSession(static_cast<int64_t>(i),
                                   [&emitted](int64_t id,
                                              const MSemantics& ms) {
                                     emitted[static_cast<size_t>(id)]
                                         .push_back(ms);
                                   })
                      .ok());
    }
    for (size_t i = 0; i < n; ++i) {
      for (const PositioningRecord& rec : sources_[i]) {
        EXPECT_TRUE(service.Submit(static_cast<int64_t>(i), rec).ok());
      }
    }
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(service.CloseSession(static_cast<int64_t>(i)).ok());
    }
    service.Drain();

    Replay replay;
    for (size_t i = 0; i < n; ++i) {
      replay.corpus.Add(static_cast<int64_t>(i), emitted[i]);
    }
    replay.snapshot = service.AnalyticsStats();

    // Every region the venue knows about, plus ids nobody visited.
    std::vector<RegionId> query_regions;
    for (const SemanticRegion& region : scenario_.world->plan().regions()) {
      query_regions.push_back(region.id);
    }
    query_regions.push_back(10000);

    const double t0 = replay.corpus.semantics.empty()
                          ? 0.0
                          : replay.corpus.semantics[0][0].t_start;
    const TimeWindow windows[3] = {
        {t0 - 1e6, t0 + 1e6},   // Everything.
        {t0, t0 + 300.0},       // An early slice.
        {t0 + 120.0, t0 + 600.0},  // A middle slice.
    };
    const double min_visit[3] = {0.0, 0.0, 20.0};
    const size_t k[3] = {5, 3, 100};

    const AnalyticsEngine* engine = service.analytics();
    EXPECT_NE(engine, nullptr);
    for (int q = 0; q < 3; ++q) {
      replay.popular[q] = engine->TopKPopularRegions(query_regions, windows[q],
                                                     k[q], min_visit[q]);
      replay.pairs[q] = engine->TopKFrequentRegionPairs(
          query_regions, windows[q], k[q], min_visit[q]);
      replay.batch_popular[q] = TopKPopularRegions(
          replay.corpus, query_regions, windows[q], k[q], min_visit[q]);
      replay.batch_pairs[q] = TopKFrequentRegionPairs(
          replay.corpus, query_regions, windows[q], k[q], min_visit[q]);
    }
    {
      std::lock_guard<std::mutex> lock(standing_mu);
      replay.standing_answer = standing_answer;
    }
    // The refreshed snapshot sees the queries above: query 0 (window
    // covering everything, threshold 0 = the engine's maintained spec)
    // must have been served by the pre-aggregated sketches, the sliced
    // windows by the scan fallback.
    replay.snapshot = service.AnalyticsStats();
    const AnalyticsSnapshot& snap = replay.snapshot;
    EXPECT_GE(snap.preagg_region_queries + snap.preagg_pair_queries, 2u);
    EXPECT_GE(snap.scan_region_queries + snap.scan_pair_queries, 2u);
    return replay;
  }

  const Scenario& scenario_;
  std::vector<double> weights_;
  std::vector<std::vector<PositioningRecord>> sources_;
};

TEST_F(AnalyticsEquivalenceTest, TopKIdenticalToBatchAcrossShardCounts) {
  Replay first = Run(1);
  // The stream actually produced stays to rank, or the test is vacuous.
  ASSERT_GT(first.snapshot.retained_visits, 0u);
  ASSERT_FALSE(first.popular[0].empty());

  for (int q = 0; q < 3; ++q) {
    EXPECT_EQ(first.popular[q], first.batch_popular[q]) << "query " << q;
    EXPECT_EQ(first.pairs[q], first.batch_pairs[q]) << "query " << q;
  }
  // The standing query's final pushed answer is the polled (and batch)
  // top-5 over everything retained.
  EXPECT_EQ(first.standing_answer, first.popular[0]);

  for (int shards : {2, 4}) {
    const Replay replay = Run(shards);
    EXPECT_EQ(replay.standing_answer, replay.popular[0])
        << shards << " shards";
    for (int q = 0; q < 3; ++q) {
      // Engine == its own run's batch answers...
      EXPECT_EQ(replay.popular[q], replay.batch_popular[q])
          << shards << " shards, query " << q;
      EXPECT_EQ(replay.pairs[q], replay.batch_pairs[q])
          << shards << " shards, query " << q;
      // ...and the whole pipeline is shard-count invariant.
      EXPECT_EQ(replay.popular[q], first.popular[q])
          << shards << " shards, query " << q;
      EXPECT_EQ(replay.pairs[q], first.pairs[q])
          << shards << " shards, query " << q;
    }
    EXPECT_EQ(replay.snapshot.semantics_ingested,
              first.snapshot.semantics_ingested);
    EXPECT_EQ(replay.snapshot.retained_visits,
              first.snapshot.retained_visits);
  }
}

TEST_F(AnalyticsEquivalenceTest, ServiceWithoutAnalyticsHasNoEngine) {
  AnnotationService service(*scenario_.world, FeatureOptions{},
                            C2mnStructure{}, weights_);
  EXPECT_EQ(service.analytics(), nullptr);
  const AnalyticsSnapshot snapshot = service.AnalyticsStats();
  EXPECT_EQ(snapshot.semantics_ingested, 0u);
  EXPECT_TRUE(snapshot.regions.empty());
}

TEST_F(AnalyticsEquivalenceTest, SessionCloseClearsOccupancy) {
  AnnotationService::Options options;
  options.num_shards = 2;
  options.annotator.window_records = 24;
  options.annotator.finalize_lag = 6;
  options.annotator.decode_stride = 4;
  options.analytics.enabled = true;
  AnnotationService service(*scenario_.world, FeatureOptions{},
                            C2mnStructure{}, weights_, options);
  for (size_t i = 0; i < sources_.size(); ++i) {
    ASSERT_TRUE(service.OpenSession(static_cast<int64_t>(i), nullptr).ok());
    for (const PositioningRecord& rec : sources_[i]) {
      ASSERT_TRUE(service.Submit(static_cast<int64_t>(i), rec).ok());
    }
    ASSERT_TRUE(service.CloseSession(static_cast<int64_t>(i)).ok());
  }
  service.Drain();
  const AnalyticsSnapshot snapshot = service.AnalyticsStats();
  EXPECT_GT(snapshot.semantics_ingested, 0u);
  // Every session closed: nobody occupies anything, nobody is tracked.
  EXPECT_EQ(snapshot.objects_tracked, 0u);
  for (const RegionAnalytics& region : snapshot.regions) {
    EXPECT_EQ(region.occupancy, 0) << "region " << region.region;
  }
}

}  // namespace
}  // namespace c2mn
