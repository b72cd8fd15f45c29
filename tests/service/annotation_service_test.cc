#include "service/annotation_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "core/trainer.h"
#include "data/dataset.h"
#include "tests/test_util.h"

namespace c2mn {
namespace {

/// The service promises bit-for-bit equivalence with a standalone
/// OnlineAnnotator, so the fixtures here replay simulated streams from
/// several producer threads and compare against single-threaded runs.
class AnnotationServiceTest : public ::testing::Test {
 protected:
  AnnotationServiceTest() : scenario_(testing_util::SmallMallScenario()) {
    Rng rng(7);
    split_ = SplitDataset(scenario_.dataset, 0.7, &rng);
    TrainOptions topts;
    topts.max_iter = 12;
    topts.mcmc_samples = 15;
    AlternateTrainer trainer(*scenario_.world, FeatureOptions{},
                             C2mnStructure{}, topts);
    weights_ = trainer.Train(split_.train).weights;

    // Virtual-object source streams: every dataset sequence, truncated
    // to keep the decode volume testable.
    for (const LabeledSequence& ls : scenario_.dataset.sequences) {
      std::vector<PositioningRecord> records = ls.sequence.records;
      if (records.size() > 150) records.resize(150);
      sources_.push_back(std::move(records));
    }
  }

  /// Small windows keep the per-record decode cost low without changing
  /// what is being tested.
  static OnlineAnnotator::Options FastOptions() {
    OnlineAnnotator::Options options;
    options.window_records = 24;
    options.finalize_lag = 6;
    options.decode_stride = 4;
    return options;
  }

  /// The ground truth: a standalone annotator fed `records` in order.
  MSemanticsSequence Standalone(const std::vector<PositioningRecord>& records) {
    OnlineAnnotator online(*scenario_.world, FeatureOptions{}, C2mnStructure{},
                           weights_, FastOptions());
    MSemanticsSequence all;
    for (const PositioningRecord& rec : records) {
      for (MSemantics& ms : online.Push(rec)) all.push_back(ms);
    }
    for (MSemantics& ms : online.Flush()) all.push_back(ms);
    return all;
  }

  const Scenario& scenario_;
  TrainTestSplit split_;
  std::vector<double> weights_;
  std::vector<std::vector<PositioningRecord>> sources_;
};

bool Identical(const MSemantics& a, const MSemantics& b) {
  return a.region == b.region && a.event == b.event &&
         a.t_start == b.t_start && a.t_end == b.t_end &&
         a.support == b.support;
}

TEST_F(AnnotationServiceTest, DeterministicAcrossProducerInterleavings) {
  constexpr int kObjects = 112;
  constexpr int kProducers = 4;
  ASSERT_FALSE(sources_.empty());

  AnnotationService::Options options;
  options.num_shards = 4;
  options.queue_capacity = 256;
  options.annotator = FastOptions();
  AnnotationService service(*scenario_.world, FeatureOptions{},
                            C2mnStructure{}, weights_, options);

  // One emission buffer per object; each is written by exactly one shard
  // worker, and Drain() orders those writes before our reads.
  std::vector<MSemanticsSequence> emitted(kObjects);
  for (int64_t id = 0; id < kObjects; ++id) {
    ASSERT_TRUE(service
                    .OpenSession(id,
                                 [&emitted](int64_t object_id,
                                            const MSemantics& ms) {
                                   emitted[object_id].push_back(ms);
                                 })
                    .ok());
  }

  // Each producer owns a disjoint set of objects and interleaves its
  // submissions round-robin across them, so shard queues see a heavy
  // cross-session mix while per-session order is preserved.
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([this, p, &service] {
      size_t longest = 0;
      for (const auto& s : sources_) longest = std::max(longest, s.size());
      for (size_t i = 0; i < longest; ++i) {
        for (int64_t id = p; id < kObjects; id += kProducers) {
          const auto& records = sources_[id % sources_.size()];
          if (i < records.size()) {
            ASSERT_TRUE(service.Submit(id, records[i]).ok());
          }
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  for (int64_t id = 0; id < kObjects; ++id) {
    ASSERT_TRUE(service.CloseSession(id).ok());
  }
  service.Drain();

  // Every session must match the standalone annotator bit for bit.
  std::vector<MSemanticsSequence> reference(sources_.size());
  for (size_t s = 0; s < sources_.size(); ++s) {
    reference[s] = Standalone(sources_[s]);
  }
  for (int64_t id = 0; id < kObjects; ++id) {
    const MSemanticsSequence& expected = reference[id % sources_.size()];
    ASSERT_EQ(emitted[id].size(), expected.size()) << "object " << id;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(Identical(emitted[id][i], expected[i]))
          << "object " << id << " m-semantics " << i;
    }
  }

  const ServiceStats stats = service.Stats();
  uint64_t expected_records = 0;
  for (int64_t id = 0; id < kObjects; ++id) {
    expected_records += sources_[id % sources_.size()].size();
  }
  EXPECT_EQ(stats.records_submitted, expected_records);
  EXPECT_EQ(stats.records_processed, expected_records);
  EXPECT_EQ(stats.sessions_opened, static_cast<uint64_t>(kObjects));
  EXPECT_EQ(stats.sessions_closed, static_cast<uint64_t>(kObjects));
  EXPECT_EQ(stats.sessions_open, 0u);
  EXPECT_EQ(stats.timestamp_violations, 0u);
  EXPECT_EQ(stats.latency_samples, expected_records);
  // The heavy cross-session mix must have routed window decodes through
  // the shard decode batches (the bit-for-bit check above proves the
  // batched path changes nothing but the schedule).
  EXPECT_GT(stats.batched_decodes, 0u);
  EXPECT_GT(stats.decode_batches, 0u);
  EXPECT_LE(stats.latency_p50_ms, stats.latency_p99_ms);
  EXPECT_LE(stats.latency_p99_ms, stats.latency_max_ms + 1e-9);
  EXPECT_EQ(stats.queue_depths.size(), 4u);
  for (size_t depth : stats.queue_depths) EXPECT_EQ(depth, 0u);

  // Stats() is a view over the exported registry counters, never a copy
  // that can drift from them.
  const auto exported = [&service](const std::string& name) {
    for (const obs::MetricSnapshot& m :
         service.metrics_registry().Snapshot()) {
      if (m.name == name) return static_cast<uint64_t>(m.value);
    }
    ADD_FAILURE() << name << " is not exported";
    return uint64_t{0};
  };
  EXPECT_EQ(exported("c2mn_service_sessions_opened_total"),
            stats.sessions_opened);
  EXPECT_EQ(exported("c2mn_service_sessions_closed_total"),
            stats.sessions_closed);
  EXPECT_EQ(exported("c2mn_service_records_submitted_total"),
            stats.records_submitted);
  EXPECT_EQ(exported("c2mn_service_records_processed_total"),
            stats.records_processed);
}

TEST_F(AnnotationServiceTest, BackpressureNeverDeadlocks) {
  AnnotationService::Options options;
  options.num_shards = 2;
  options.queue_capacity = 4;  // Tiny: every producer hits backpressure.
  options.annotator = FastOptions();
  AnnotationService service(*scenario_.world, FeatureOptions{},
                            C2mnStructure{}, weights_, options);

  const auto& records = sources_.front();
  std::vector<MSemanticsSequence> emitted(8);
  for (int64_t id = 0; id < 8; ++id) {
    ASSERT_TRUE(service
                    .OpenSession(id,
                                 [&emitted](int64_t object_id,
                                            const MSemantics& ms) {
                                   emitted[object_id].push_back(ms);
                                 })
                    .ok());
  }
  std::vector<std::thread> producers;
  for (int64_t id = 0; id < 8; ++id) {
    producers.emplace_back([&service, &records, id] {
      for (const PositioningRecord& rec : records) {
        ASSERT_TRUE(service.Submit(id, rec).ok());
      }
    });
  }
  for (std::thread& t : producers) t.join();
  for (int64_t id = 0; id < 8; ++id) {
    ASSERT_TRUE(service.CloseSession(id).ok());
  }
  service.Drain();

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.records_processed, 8 * records.size());
  const MSemanticsSequence expected = Standalone(records);
  for (int64_t id = 0; id < 8; ++id) {
    ASSERT_EQ(emitted[id].size(), expected.size());
  }
}

TEST_F(AnnotationServiceTest, SessionLifecycleErrors) {
  AnnotationService::Options options;
  options.num_shards = 1;
  options.annotator = FastOptions();
  AnnotationService service(*scenario_.world, FeatureOptions{},
                            C2mnStructure{}, weights_, options);

  PositioningRecord record;
  EXPECT_EQ(service.Submit(42, record).code(), StatusCode::kNotFound);
  EXPECT_EQ(service.CloseSession(42).code(), StatusCode::kNotFound);

  ASSERT_TRUE(service.OpenSession(42, nullptr).ok());
  EXPECT_EQ(service.OpenSession(42, nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(service.Submit(42, record).ok());
  EXPECT_TRUE(service.CloseSession(42).ok());

  // A closed id can be reopened; queue FIFO keeps the epochs separate.
  EXPECT_TRUE(service.OpenSession(42, nullptr).ok());
  EXPECT_TRUE(service.CloseSession(42).ok());
  service.Drain();

  service.Stop();
  EXPECT_EQ(service.OpenSession(7, nullptr).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Submit(42, record).code(),
            StatusCode::kFailedPrecondition);
  // Rejected calls count nothing: two opens and two closes went through.
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.sessions_opened, 2u);
  EXPECT_EQ(stats.sessions_closed, 2u);
  EXPECT_EQ(stats.sessions_open, 0u);
}

TEST_F(AnnotationServiceTest, StatsStartEmpty) {
  AnnotationService::Options options;
  options.num_shards = 3;
  AnnotationService service(*scenario_.world, FeatureOptions{},
                            C2mnStructure{}, weights_, options);
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.sessions_open, 0u);
  EXPECT_EQ(stats.records_submitted, 0u);
  EXPECT_EQ(stats.records_processed, 0u);
  EXPECT_EQ(stats.latency_samples, 0u);
  EXPECT_EQ(stats.queue_depths.size(), 3u);
}

}  // namespace
}  // namespace c2mn
