#ifndef C2MN_ANALYTICS_ANALYTICS_ENGINE_H_
#define C2MN_ANALYTICS_ANALYTICS_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/streaming_histogram.h"
#include "common/sync.h"
#include "data/msemantics.h"
#include "obs/metrics_registry.h"
#include "query/query_core.h"

namespace c2mn {

/// Cumulative per-region gauges, merged across shards at snapshot time.
struct RegionAnalytics {
  RegionId region = kInvalidId;
  /// Stay m-semantics lasting at least Options::min_visit_seconds.
  uint64_t visits = 0;
  /// All stay / pass m-semantics at the region, regardless of duration.
  uint64_t stays = 0;
  uint64_t passes = 0;
  /// Seconds spent staying at the region, summed over all stays.
  double total_dwell_seconds = 0.0;
  /// Dwell-time distribution over stays (StreamingHistogram quantiles).
  double dwell_p50_seconds = 0.0;
  double dwell_p99_seconds = 0.0;
  double dwell_mean_seconds = 0.0;
  double dwell_max_seconds = 0.0;
  /// Objects whose most recent m-semantics is a stay at this region and
  /// whose stream has not been closed: the live occupancy gauge.
  int64_t occupancy = 0;
};

/// One directed edge of the region->region flow matrix: how many times
/// any object's consecutive m-semantics moved `from` -> `to`.
struct RegionFlow {
  RegionId from = kInvalidId;
  RegionId to = kInvalidId;
  uint64_t count = 0;
};

/// A merge of every shard's accumulators, assembled in deterministic
/// shard order (0, 1, ...).  Each shard's contribution is internally
/// consistent, but under live ingestion the shards are read at slightly
/// different instants — quiesce the stream (AnnotationService::Drain)
/// first for an exact global view.
struct AnalyticsSnapshot {
  uint64_t semantics_ingested = 0;
  /// Stay visits currently retained in the time-bucket ring (the data
  /// windowed queries can still see).
  uint64_t retained_visits = 0;
  /// Stay visits whose bucket had already aged out when they arrived.
  uint64_t late_dropped = 0;
  /// M-semantics dropped because their time period was non-finite or
  /// too extreme to bucket.
  uint64_t invalid_dropped = 0;
  /// Ring buckets recycled so far (each eviction forgets its visits).
  uint64_t buckets_evicted = 0;
  /// Objects with live per-object state (stream seen, not yet closed).
  size_t objects_tracked = 0;
  /// Largest finite stay end-timestamp ingested so far (the retention
  /// watermark); 0 before any stay arrives.
  double watermark_seconds = 0.0;
  /// Top-k polls answered from the pre-aggregated sketches vs. by
  /// scanning retained visits (a query falls back to the scan when its
  /// window or threshold does not match the maintained spec), split by
  /// query kind (region vs pair polls), so the pair fast path is
  /// assertable on its own — the bench guard needs to know the *pair*
  /// poll took the merge path, not just that some poll did.
  uint64_t preagg_region_queries = 0;
  uint64_t preagg_pair_queries = 0;
  uint64_t scan_region_queries = 0;
  uint64_t scan_pair_queries = 0;
  /// Sliding-window standing queries (StandingQuery::trailing_seconds >
  /// 0) currently subscribed, the watermark bucket rotations their
  /// windows have absorbed, and the visits retracted because a window
  /// slid past them.
  size_t sliding_queries = 0;
  uint64_t window_rotations = 0;
  uint64_t window_expired_visits = 0;
  /// Standing continuous queries currently subscribed, and the total
  /// deltas pushed to their callbacks so far.
  size_t standing_queries = 0;
  uint64_t deltas_pushed = 0;
  /// Submit-to-delta push latency over ingests that fired at least one
  /// standing-query delta.  Filled by AnnotationService::AnalyticsStats()
  /// (the engine alone has no submit timestamps); zero when standalone.
  uint64_t push_samples = 0;
  double push_p50_ms = 0.0;
  double push_p99_ms = 0.0;
  double push_max_ms = 0.0;
  /// Per-region gauges, sorted by region id.
  std::vector<RegionAnalytics> regions;
  /// Flow matrix edges, sorted by count desc, then (from, to) asc.
  std::vector<RegionFlow> flows;
};

/// \brief The complete durable state of one analytics shard, in canonical
/// (sorted) order so two equivalent shards always serialize identically.
/// Produced by AnalyticsEngine::SaveState and consumed by RestoreState;
/// src/storage/ encodes it into the versioned snapshot file.
struct AnalyticsShardState {
  struct Region {
    RegionId region = kInvalidId;
    uint64_t visits = 0;
    uint64_t stays = 0;
    uint64_t passes = 0;
    double total_dwell_seconds = 0.0;
    int64_t occupancy = 0;
    StreamingHistogram::State dwell;
  };
  struct Flow {
    RegionId from = kInvalidId;
    RegionId to = kInvalidId;
    uint64_t count = 0;
  };
  struct Object {
    int64_t object_id = 0;
    RegionId last_region = kInvalidId;
    bool occupying = false;
    RegionId occupied_region = kInvalidId;
  };
  struct Visit {
    int64_t object_id = 0;
    RegionId region = kInvalidId;
    double t_start = 0.0;
    double t_end = 0.0;
  };

  /// The shard's mutation sequence at save time.  Write-ahead-log records
  /// carry the sequence their mutation was assigned, so replay skips
  /// records with seq <= this value: they are already inside the snapshot.
  uint64_t mutation_seq = 0;
  double watermark_seconds = 0.0;
  /// Highest retention-bucket index written; INT64_MIN before any stay.
  int64_t max_bucket = 0;
  /// Sorted by region id.
  std::vector<Region> regions;
  /// Sorted by (from, to).
  std::vector<Flow> flows;
  /// Sorted by object id.
  std::vector<Object> objects;
  /// Retained stay visits in bucket order, insertion order within a
  /// bucket — exactly the order a replay of the surviving stream would
  /// recreate them in.
  std::vector<Visit> visits;
  /// The pre-aggregation sketch's counters, kept alongside the visits
  /// they were derived from so restore can cross-check the rebuild.
  query::TopKSketch::State preagg;
};

/// Everything AnalyticsEngine needs to rebuild itself bit-identically:
/// the config the accumulators were built under (restore refuses a
/// mismatch rather than reinterpreting foreign state), the cumulative
/// counters, and every shard's state.
struct AnalyticsEngineState {
  int num_shards = 0;
  double bucket_seconds = 0.0;
  double horizon_seconds = 0.0;
  double min_visit_seconds = 0.0;
  double dwell_min_seconds = 0.0;
  double dwell_max_seconds = 0.0;
  double dwell_growth = 0.0;
  uint64_t semantics_ingested = 0;
  uint64_t late_dropped = 0;
  uint64_t invalid_dropped = 0;
  uint64_t buckets_evicted = 0;
  std::vector<AnalyticsShardState> shards;
};

/// \brief An incremental analytics engine over streaming m-semantics: the
/// read-side companion of AnnotationService.
///
/// The batch queries in eval/queries need a fully materialized
/// AnnotatedCorpus; this engine answers the same top-k questions while
/// the stream is still running.  Each shard owns thread-local
/// accumulators (visit counts, dwell histograms, a region->region flow
/// matrix, occupancy gauges), a coarse time-bucketed ring of stay
/// visits, and a query::TopKSketch pre-aggregating the engine's default
/// query spec (all regions, unbounded window, Options::min_visit_seconds)
/// so matching top-k polls fold sorted counters instead of scanning
/// every retained visit.  Queries lock and fold the shards in
/// deterministic shard order, so the answer never depends on thread
/// scheduling.
///
/// Determinism / equivalence guarantee: TopKPopularRegions and
/// TopKFrequentRegionPairs return exactly what the batch implementation
/// returns on an AnnotatedCorpus holding the same m-semantics (one corpus
/// sequence per object id), for any shard count and regardless of which
/// path (pre-aggregated or scan) serves the query, as long as no queried
/// visit has aged out of the retention horizon.  Both paths share the
/// predicate and ranking in query/query_core.h with the batch
/// implementation, so they cannot drift apart.
///
/// Thread model: Ingest / NoteSessionClosed for one shard must not race
/// themselves (AnnotationService guarantees this by construction — one
/// worker per shard); queries, snapshots, and Subscribe / Unsubscribe are
/// safe from any thread at any time.
class AnalyticsEngine {
 public:
  struct Options {
    /// Number of independent accumulator shards.  When the engine is
    /// wired into an AnnotationService this is overridden with the
    /// service's shard count.
    int num_shards = 1;
    /// Width of one retention ring bucket, in seconds.
    double bucket_seconds = 60.0;
    /// Stay visits whose end time falls more than this far behind the
    /// shard's watermark age out (bounded memory).  Rounded up to a
    /// whole number of buckets.
    double horizon_seconds = 86400.0;
    /// Minimum stay duration for the cumulative `visits` gauge and the
    /// pre-aggregated top-k sketches.  The windowed queries take their
    /// own threshold parameter, mirroring the batch API; a poll whose
    /// threshold equals this value (and whose window covers everything
    /// retained) is served from the sketches.
    double min_visit_seconds = 0.0;
    /// Dwell-time histogram bucketization (seconds).
    double dwell_min_seconds = 1.0;
    double dwell_max_seconds = 1e5;
    double dwell_growth = 1.3;

    /// Registry for the engine's counters and query-timing histograms.
    /// nullptr (the default) gives the engine a private registry; an
    /// embedding AnnotationService passes its own so one export covers
    /// the whole pipeline.  Not owned; must outlive the engine.
    obs::MetricsRegistry* metrics_registry = nullptr;

    /// Repairs inconsistent settings (shards >= 1, positive bucket
    /// width, horizon >= one bucket, sane histogram bounds) so a service
    /// embedding the engine never crashes on a bad config.
    Options Validated() const;
  };

  explicit AnalyticsEngine(Options options);
  ~AnalyticsEngine();

  AnalyticsEngine(const AnalyticsEngine&) = delete;
  AnalyticsEngine& operator=(const AnalyticsEngine&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const Options& options() const { return options_; }

  /// The registry holding the engine's metrics (the injected one, or
  /// the private per-instance default).
  obs::MetricsRegistry& metrics_registry() const { return *registry_; }

  /// Folds one completed m-semantics of `object_id` into shard `shard`.
  /// All m-semantics of one object must go to the same shard, in stream
  /// order (AnnotationService's object->shard mapping satisfies both).
  /// Returns the number of standing-query deltas this ingest pushed
  /// (counting aging-driven evictions it triggered).  When `applied_seq`
  /// is non-null it receives the shard mutation sequence this ingest was
  /// assigned — the write-ahead log records it so replay after a restore
  /// can skip mutations the snapshot already contains.
  int Ingest(int shard, int64_t object_id, const MSemantics& ms,
             uint64_t* applied_seq = nullptr);

  /// Single-shard-keyed convenience: shards by object id the same way
  /// AnnotationService does, for standalone use against OnlineAnnotator.
  int Ingest(int64_t object_id, const MSemantics& ms);

  /// Drops `object_id`'s per-object state (occupancy gauge, flow
  /// predecessor).  Retained visits — and therefore the pre-aggregated
  /// sketches and standing-query answers — are unaffected: a departed
  /// visitor still counts toward what was popular, exactly as in the
  /// batch corpus.  Counts as a shard mutation (reported through
  /// `applied_seq` like Ingest) so closes are replayable from the log.
  void NoteSessionClosed(int shard, int64_t object_id,
                         uint64_t* applied_seq = nullptr);
  void NoteSessionClosed(int64_t object_id);

  /// \brief The k regions from `query_regions` with the most stay visits
  /// intersecting `window` — result-identical to the batch
  /// c2mn::TopKPopularRegions on the same stream.  Served from the
  /// per-shard pre-aggregated sketches (O(distinct regions), independent
  /// of retained-visit count) when `min_visit_seconds` equals
  /// Options::min_visit_seconds and `window` covers every retained
  /// visit; otherwise falls back to a window-pruned scan.
  std::vector<RegionId> TopKPopularRegions(
      const std::vector<RegionId>& query_regions, const TimeWindow& window,
      size_t k, double min_visit_seconds = 0.0) const;

  /// \brief The k unordered region pairs most frequently co-visited by
  /// the same object within `window` — result-identical to the batch
  /// c2mn::TopKFrequentRegionPairs on the same stream.  Same
  /// pre-aggregated fast path as TopKPopularRegions.
  std::vector<std::pair<RegionId, RegionId>> TopKFrequentRegionPairs(
      const std::vector<RegionId>& query_regions, const TimeWindow& window,
      size_t k, double min_visit_seconds = 0.0) const;

  /// \brief Registers a standing continuous query.  The subscription is
  /// seeded from the currently retained visits and `callback` is invoked
  /// immediately (on this thread) with the initial answer as delta
  /// sequence 1; afterwards deltas fire on the worker whose ingest (or
  /// retention-aging) changed the answer set.  A query with
  /// trailing_seconds > 0 ranks only the trailing window behind the
  /// watermark (see StandingQuery), re-evaluated on every watermark
  /// advance; its window width is clamped to the retention ring.
  /// Returns the subscription id.
  int Subscribe(StandingQuery query, StandingQueryCallback callback);

  /// Removes a subscription; no callbacks fire after this returns.
  /// Returns false if the id is unknown (or already unsubscribed).
  bool Unsubscribe(int subscription_id);

  /// Merged view of every accumulator, deterministic for a quiesced
  /// stream regardless of shard count.
  AnalyticsSnapshot Snapshot() const;

  /// \brief The engine's complete durable state, in canonical order:
  /// calling this twice on a quiesced engine yields equal states, and
  /// RestoreState on a fresh engine with the same Options reproduces
  /// every poll and snapshot bit-identically.  Locks one shard at a
  /// time; quiesce the stream first for a consistent cross-shard cut
  /// (the storage checkpoint relies on the log for anything in flight).
  AnalyticsEngineState SaveState() const;

  /// \brief Rebuilds the engine from `state`.  The engine must be fresh
  /// and quiesced: nothing ingested yet and no standing queries
  /// subscribed (kFailedPrecondition otherwise).  Refuses state saved
  /// under a different config — shard count or any accumulator-shaping
  /// option (kInvalidArgument): reinterpreting state bucketed under
  /// other parameters would silently corrupt the analytics.  The
  /// pre-aggregation sketches are rebuilt by refolding the restored
  /// visits and cross-checked against the saved sketch state; a
  /// mismatch (corrupt or internally inconsistent snapshot) fails with
  /// kInternal and leaves the engine unusable for restore retries on
  /// different state (restart with a fresh engine instead).
  Status RestoreState(const AnalyticsEngineState& state);

 private:
  struct Shard;
  struct Subscription;

  /// One retained stay: enough to re-evaluate the batch visit predicate.
  struct StayVisit {
    int64_t object_id = 0;
    RegionId region = kInvalidId;
    double t_start = 0.0;
    double t_end = 0.0;
  };

  int ShardOf(int64_t object_id) const;
  /// Walks every retained visit (of every shard, in shard order) whose
  /// bucket can intersect `window` — buckets are keyed by visit end
  /// time, so buckets entirely before the window's start are skipped.
  template <typename Fn>
  void ForEachRetainedVisit(const TimeWindow& window, Fn&& fn) const;
  /// Folds one threshold merge's outcome into the merge counters.
  void CountMerge(const query::MergeStats& merge) const;
  /// Collects each shard's count-descending counter snapshot (region or
  /// pair, by Key) for the bounded threshold merge, validating window
  /// coverage from the retained-visit time bounds in the same per-shard
  /// lock acquisition — a race with ingest can only route the query to
  /// the scan fallback, never slip an out-of-window visit into an
  /// accepted merge.  Returns true when `window` covers every retained
  /// visit (the merged counters answer the query exactly).
  template <typename Key>
  bool CollectPreAggSorted(
      const TimeWindow& window,
      std::vector<std::shared_ptr<const query::SortedCounts<Key>>>* views)
      const;
  /// Applies one ingest's visit delta (an added visit and/or evicted
  /// visits) to every subscription; returns the number of deltas pushed.
  int NotifySubscriptions(int shard_index, uint64_t mutation_seq,
                          const StayVisit* added,
                          const std::vector<StayVisit>& evicted);

  Options options_;
  int64_t ring_buckets_ = 1;

  /// Private registry when none was injected; registry_ points at it or
  /// at the injected one.  Counter/histogram handles are cached here so
  /// snapshots and delta callbacks never take the registry mutex.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_ = nullptr;
  obs::Counter* semantics_ingested_total_ = nullptr;
  obs::Counter* late_dropped_total_ = nullptr;
  obs::Counter* invalid_dropped_total_ = nullptr;
  obs::Counter* buckets_evicted_total_ = nullptr;
  obs::Counter* deltas_pushed_total_ = nullptr;
  /// Top-k poll counters split by serving path *and* query kind, so
  /// dashboards (and the bench fast-path guard) can watch the pair
  /// merge path specifically.
  obs::Counter* preagg_region_queries_total_ = nullptr;
  obs::Counter* preagg_pair_queries_total_ = nullptr;
  obs::Counter* scan_region_queries_total_ = nullptr;
  obs::Counter* scan_pair_queries_total_ = nullptr;
  /// How the pre-aggregated polls' threshold merges ended: early exit
  /// (the cheap case) or budget fallback (a flattening count
  /// distribution; visible here before poll latency moves).
  obs::Counter* merge_early_exit_total_ = nullptr;
  obs::Counter* merge_fallback_total_ = nullptr;
  /// Sliding-window standing queries: bucket rotations absorbed and
  /// visits expired out of trailing windows, across all subscriptions.
  obs::Counter* window_rotations_total_ = nullptr;
  obs::Counter* window_expired_total_ = nullptr;
  obs::Gauge* standing_queries_gauge_ = nullptr;
  obs::Gauge* sliding_queries_gauge_ = nullptr;
  /// Fold time of one top-k poll, labeled by the path that served it.
  obs::Histogram* preagg_fold_seconds_ = nullptr;
  obs::Histogram* scan_fold_seconds_ = nullptr;
  /// Ingest-side time spent applying visit deltas to standing queries
  /// (the NotifySubscriptions walk), over ingests that had deltas.
  obs::Histogram* standing_push_seconds_ = nullptr;
  /// The spec the per-shard sketches maintain: every region, unbounded
  /// window, Options::min_visit_seconds.
  std::unique_ptr<query::CompiledSpec> preagg_spec_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Subscriptions: the list is guarded by subs_mu_ (shared for the
  /// ingest-side notify walk, exclusive for Subscribe / Unsubscribe);
  /// each subscription's counters live behind its own mutex.  One lock
  /// order everywhere: subs_mu_ -> subscription mutex -> shard mutex —
  /// now spelled out by the declared ranks (kAnalyticsSubscribers <
  /// kAnalyticsSubscription < kAnalyticsShard) and enforced by the
  /// runtime checker.  Ingest never violates it because it collects its
  /// visit deltas under the shard lock, releases it, and only then
  /// acquires subs_mu_ and the per-subscription mutexes.
  mutable SharedMutex subs_mu_{LockRank::kAnalyticsSubscribers,
                               "AnalyticsEngine::subs_mu_"};
  std::vector<std::shared_ptr<Subscription>> subs_ C2MN_GUARDED_BY(subs_mu_);
  int next_subscription_id_ C2MN_GUARDED_BY(subs_mu_) = 1;
  /// Mirrors subs_.size() / total deltas so Snapshot() (and therefore a
  /// delta callback calling it) never touches subs_mu_.  standing_count_
  /// also lets Ingest skip delta collection entirely when nobody is
  /// subscribed: it is incremented before a new subscription seeds from
  /// the shards, so any mutation a seed misses sees a non-zero count
  /// (the shard mutex orders the two).
  std::atomic<size_t> standing_count_{0};
  /// Subset of standing_count_ with a trailing window, mirrored for the
  /// same Snapshot()-without-subs_mu_ reason.
  std::atomic<size_t> sliding_count_{0};
};

}  // namespace c2mn

#endif  // C2MN_ANALYTICS_ANALYTICS_ENGINE_H_
