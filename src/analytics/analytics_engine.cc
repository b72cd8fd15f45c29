#include "analytics/analytics_engine.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "common/stopwatch.h"
#include "common/streaming_histogram.h"
#include "common/sync.h"
#include "query/sliding_window.h"

namespace c2mn {

namespace {

/// Packs a directed region edge into one map key.
uint64_t FlowKey(RegionId from, RegionId to) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(from)) << 32) |
         static_cast<uint32_t>(to);
}

/// The elements of `current` not in `previous` (answer order preserved).
template <typename Key>
std::vector<Key> SetDifference(const std::vector<Key>& current,
                               const std::vector<Key>& previous) {
  std::vector<Key> out;
  for (const Key& key : current) {
    if (std::find(previous.begin(), previous.end(), key) == previous.end()) {
      out.push_back(key);
    }
  }
  return out;
}

}  // namespace

/// All per-shard state.  The worker feeding the shard and any thread
/// querying it synchronize on `mu`; there is no cross-shard locking, so
/// ingest on different shards never contends.
struct AnalyticsEngine::Shard {
  /// Cumulative gauges for one region.
  struct RegionAccum {
    RegionAccum(double dwell_min, double dwell_max, double growth)
        : dwell(dwell_min, dwell_max, growth) {}
    uint64_t visits = 0;
    uint64_t stays = 0;
    uint64_t passes = 0;
    double total_dwell_seconds = 0.0;
    StreamingHistogram dwell;
    int64_t occupancy = 0;
  };

  /// Where one object's stream currently stands.
  struct ObjectState {
    RegionId last_region = kInvalidId;
    bool occupying = false;
    RegionId occupied_region = kInvalidId;
  };

  /// One live retention bucket, with the bounds the pre-aggregation
  /// coverage check needs (a query window covers every visit here iff it
  /// reaches max_t_start on the right and min_t_end on the left).
  struct Bucket {
    std::vector<StayVisit> visits;
    double max_t_start = -std::numeric_limits<double>::infinity();
    double min_t_end = std::numeric_limits<double>::infinity();
  };

  explicit Shard(const query::CompiledSpec* preagg_spec)
      : preagg(preagg_spec) {}

  mutable Mutex mu{LockRank::kAnalyticsShard, "AnalyticsEngine::Shard::mu"};
  std::unordered_map<RegionId, RegionAccum> regions C2MN_GUARDED_BY(mu);
  std::unordered_map<uint64_t, uint64_t> flows C2MN_GUARDED_BY(mu);
  std::unordered_map<int64_t, ObjectState> objects C2MN_GUARDED_BY(mu);
  /// The coarse time-bucketed retention window: live buckets keyed by
  /// bucket index, ascending.  Only occupied buckets exist, so memory
  /// and query cost track the retained data, not the horizon width; at
  /// most ring_buckets_ buckets are ever live at once.
  std::map<int64_t, Bucket> buckets C2MN_GUARDED_BY(mu);
  /// Incrementally maintained counters over the retained visits for the
  /// engine's default query spec; updated on ingest and aging, folded
  /// across shards (in shard order) to answer matching polls without a
  /// scan.
  query::TopKSketch preagg C2MN_GUARDED_BY(mu);
  /// Highest bucket index written so far; INT64_MIN before any stay.
  int64_t max_bucket C2MN_GUARDED_BY(mu) = INT64_MIN;
  double watermark_seconds C2MN_GUARDED_BY(mu) = 0.0;
  /// Bumped on every Ingest; subscriptions seeded at sequence S ignore
  /// visit deltas tagged <= S (they already saw that state).
  uint64_t mutation_seq C2MN_GUARDED_BY(mu) = 0;
};

/// One standing continuous query: a global (cross-shard) sketch plus the
/// last pushed answer, all behind `mu` so deltas carry consistent
/// sequence numbers no matter which worker fires them.
struct AnalyticsEngine::Subscription {
  /// `window_options` non-null makes this a sliding-window subscription
  /// (the caller has already derived window_buckets from
  /// trailing_seconds and clamped it to the retention ring).
  Subscription(StandingQuery q, StandingQueryCallback cb,
               const query::SlidingWindowSketch::Options* window_options)
      : query(std::move(q)),
        spec(query.spec),
        sketch(&spec),
        callback(std::move(cb)) {
    if (window_options != nullptr) {
      window = std::make_unique<query::SlidingWindowSketch>(&spec,
                                                            *window_options);
    }
  }

  /// Written once (under subs_mu_ + mu) before the subscription is
  /// published; immutable afterwards, so readers need no lock.
  int id = -1;
  const StandingQuery query;
  const query::CompiledSpec spec;

  Mutex mu{LockRank::kAnalyticsSubscription,
           "AnalyticsEngine::Subscription::mu"};
  query::TopKSketch sketch C2MN_GUARDED_BY(mu);
  /// Non-null iff query.trailing_seconds > 0: the trailing-window
  /// counters the answer ranks over instead of `sketch` (which stays
  /// unused for sliding subscriptions).
  std::unique_ptr<query::SlidingWindowSketch> window C2MN_GUARDED_BY(mu);
  StandingQueryCallback callback C2MN_GUARDED_BY(mu);
  std::vector<RegionId> last_regions C2MN_GUARDED_BY(mu);
  std::vector<RegionPair> last_pairs C2MN_GUARDED_BY(mu);
  uint64_t sequence C2MN_GUARDED_BY(mu) = 0;
  /// Per shard: the mutation sequence the sketch was seeded through.
  std::vector<uint64_t> seeded_seq C2MN_GUARDED_BY(mu);

  /// Recomputes the answer; if it differs from the last pushed one,
  /// emits the delta.  Caller holds `mu`.
  bool EmitIfChanged() C2MN_REQUIRES(mu) {
    StandingQueryDelta delta;
    delta.subscription_id = id;
    if (query.kind == StandingQuery::Kind::kPopularRegions) {
      std::vector<RegionId> answer = window != nullptr
                                         ? window->TopKRegions(query.k)
                                         : sketch.TopKRegions(query.k);
      if (answer == last_regions && sequence > 0) return false;
      delta.regions_entered = SetDifference(answer, last_regions);
      delta.regions_exited = SetDifference(last_regions, answer);
      delta.regions = answer;
      last_regions = std::move(answer);
    } else {
      std::vector<RegionPair> answer = window != nullptr
                                           ? window->TopKPairs(query.k)
                                           : sketch.TopKPairs(query.k);
      if (answer == last_pairs && sequence > 0) return false;
      delta.pairs_entered = SetDifference(answer, last_pairs);
      delta.pairs_exited = SetDifference(last_pairs, answer);
      delta.pairs = answer;
      last_pairs = std::move(answer);
    }
    delta.sequence = ++sequence;
    if (callback) callback(delta);
    return true;
  }
};

AnalyticsEngine::Options AnalyticsEngine::Options::Validated() const {
  Options v = *this;
  v.num_shards = std::max(v.num_shards, 1);
  if (!(v.bucket_seconds > 0.0) || !std::isfinite(v.bucket_seconds)) {
    v.bucket_seconds = 60.0;
  }
  if (!std::isfinite(v.horizon_seconds)) v.horizon_seconds = 86400.0;
  v.horizon_seconds = std::max(v.horizon_seconds, v.bucket_seconds);
  if (!(v.min_visit_seconds >= 0.0)) v.min_visit_seconds = 0.0;
  if (!(v.dwell_min_seconds > 0.0)) v.dwell_min_seconds = 1.0;
  if (!(v.dwell_max_seconds > v.dwell_min_seconds)) {
    v.dwell_max_seconds = v.dwell_min_seconds * 1e5;
  }
  if (!(v.dwell_growth > 1.0)) v.dwell_growth = 1.3;
  return v;
}

AnalyticsEngine::AnalyticsEngine(Options options)
    : options_(options.Validated()) {
  ring_buckets_ = static_cast<int64_t>(
                      std::ceil(options_.horizon_seconds /
                                options_.bucket_seconds)) +
                  1;
  if (options_.metrics_registry != nullptr) {
    registry_ = options_.metrics_registry;
  } else {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry_ = owned_registry_.get();
  }
  semantics_ingested_total_ = registry_->GetCounter(
      "c2mn_analytics_semantics_ingested_total",
      "M-semantics folded into the analytics accumulators");
  late_dropped_total_ = registry_->GetCounter(
      "c2mn_analytics_late_dropped_total",
      "Stay visits dropped because their bucket had already aged out");
  invalid_dropped_total_ = registry_->GetCounter(
      "c2mn_analytics_invalid_dropped_total",
      "M-semantics dropped for non-finite or unbucketable time periods");
  buckets_evicted_total_ = registry_->GetCounter(
      "c2mn_analytics_buckets_evicted_total",
      "Retention ring buckets recycled (each forgets its visits)");
  deltas_pushed_total_ = registry_->GetCounter(
      "c2mn_analytics_deltas_pushed_total",
      "Standing-query deltas delivered to subscriber callbacks");
  preagg_region_queries_total_ = registry_->GetCounter(
      "c2mn_query_topk_total",
      "Top-k polls by serving path and query kind",
      {{"kind", "regions"}, {"path", "preagg"}});
  preagg_pair_queries_total_ = registry_->GetCounter(
      "c2mn_query_topk_total",
      "Top-k polls by serving path and query kind",
      {{"kind", "pairs"}, {"path", "preagg"}});
  scan_region_queries_total_ = registry_->GetCounter(
      "c2mn_query_topk_total",
      "Top-k polls by serving path and query kind",
      {{"kind", "regions"}, {"path", "scan"}});
  scan_pair_queries_total_ = registry_->GetCounter(
      "c2mn_query_topk_total",
      "Top-k polls by serving path and query kind",
      {{"kind", "pairs"}, {"path", "scan"}});
  window_rotations_total_ = registry_->GetCounter(
      "c2mn_analytics_window_rotations_total",
      "Watermark bucket rotations absorbed by sliding standing queries");
  window_expired_total_ = registry_->GetCounter(
      "c2mn_analytics_window_expired_total",
      "Visits retracted because a trailing window slid past them");
  standing_queries_gauge_ = registry_->GetGauge(
      "c2mn_analytics_standing_queries",
      "Standing continuous queries currently subscribed");
  sliding_queries_gauge_ = registry_->GetGauge(
      "c2mn_analytics_sliding_queries",
      "Standing queries with a trailing window currently subscribed");
  const obs::Histogram::Config fold_cfg{1e-8, 1e2, 2.0};
  preagg_fold_seconds_ = registry_->GetHistogram(
      "c2mn_query_fold_seconds", "Time to answer one top-k poll, by path",
      fold_cfg, {{"path", "preagg"}});
  scan_fold_seconds_ = registry_->GetHistogram(
      "c2mn_query_fold_seconds", "Time to answer one top-k poll, by path",
      fold_cfg, {{"path", "scan"}});
  standing_push_seconds_ = registry_->GetHistogram(
      "c2mn_analytics_standing_push_seconds",
      "Ingest-side time applying visit deltas to standing queries",
      obs::Histogram::Config{1e-8, 1e2, 2.0});
  query::VisitSpec preagg_spec;
  preagg_spec.all_regions = true;
  preagg_spec.window = TimeWindow::All();
  preagg_spec.min_visit_seconds = options_.min_visit_seconds;
  preagg_spec_ = std::make_unique<query::CompiledSpec>(std::move(preagg_spec));
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(preagg_spec_.get()));
  }
}

AnalyticsEngine::~AnalyticsEngine() = default;

int AnalyticsEngine::ShardOf(int64_t object_id) const {
  // Matches AnnotationService::ShardOf so a session and its analytics
  // always live on the same shard.
  const size_t h = std::hash<int64_t>{}(object_id);
  return static_cast<int>(h % shards_.size());
}

int AnalyticsEngine::Ingest(int64_t object_id, const MSemantics& ms) {
  return Ingest(ShardOf(object_id), object_id, ms);
}

void AnalyticsEngine::NoteSessionClosed(int64_t object_id) {
  NoteSessionClosed(ShardOf(object_id), object_id);
}

int AnalyticsEngine::Ingest(int shard, int64_t object_id,
                            const MSemantics& ms, uint64_t* applied_seq) {
  const int shard_index = static_cast<int>(
      static_cast<size_t>(shard) % shards_.size());
  Shard& s = *shards_[static_cast<size_t>(shard_index)];
  // Visit deltas collected under the shard lock, then forwarded to the
  // standing queries after it drops (never hold a shard mutex while
  // acquiring subs_mu_ — see the lock-order comment in the header).
  StayVisit added{};
  bool has_added = false;
  std::vector<StayVisit> evicted;
  uint64_t mutation_seq = 0;
  bool notify = false;
  {
    MutexLock lock(&s.mu);
    // Read under the shard lock: a Subscribe bumps the count before
    // seeding from this shard (under this same mutex), so any mutation
    // its seed missed sees a non-zero count here.  Zero means the
    // delta bookkeeping below is dead weight — skip it.
    notify = standing_count_.load(std::memory_order_relaxed) > 0;
    mutation_seq = ++s.mutation_seq;
    // Report the sequence before any early return below: dropped or
    // non-retained m-semantics still consumed a sequence number, and the
    // write-ahead log must record it for replay to line up.
    if (applied_seq != nullptr) *applied_seq = mutation_seq;
    semantics_ingested_total_->Increment();
    // Reject time periods that are non-finite or too extreme to bucket:
    // casting an out-of-range double to int64_t below would be undefined
    // behavior (the StreamingHistogram NaN-cast class of bug).
    const double bucket_d = std::floor(ms.t_end / options_.bucket_seconds);
    if (!std::isfinite(ms.t_start) || !std::isfinite(ms.t_end) ||
        !(bucket_d >= -9.0e18 && bucket_d <= 9.0e18)) {
      invalid_dropped_total_->Increment();
      return 0;
    }
    const int64_t bucket = static_cast<int64_t>(bucket_d);

    // --- cumulative region gauges -----------------------------------
    auto region_it = s.regions.find(ms.region);
    if (region_it == s.regions.end()) {
      region_it = s.regions
                      .emplace(ms.region,
                               Shard::RegionAccum(options_.dwell_min_seconds,
                                                  options_.dwell_max_seconds,
                                                  options_.dwell_growth))
                      .first;
    }
    Shard::RegionAccum& acc = region_it->second;
    const double duration = ms.DurationSeconds();
    if (ms.event == MobilityEvent::kStay) {
      ++acc.stays;
      acc.total_dwell_seconds += duration;
      acc.dwell.Add(duration);
      if (duration >= options_.min_visit_seconds) ++acc.visits;
    } else {
      ++acc.passes;
    }

    // --- flow matrix + occupancy gauge ------------------------------
    Shard::ObjectState& obj = s.objects[object_id];
    if (obj.last_region != kInvalidId && obj.last_region != ms.region) {
      ++s.flows[FlowKey(obj.last_region, ms.region)];
    }
    obj.last_region = ms.region;
    if (obj.occupying) {
      --s.regions.at(obj.occupied_region).occupancy;
      obj.occupying = false;
    }
    if (ms.event == MobilityEvent::kStay) {
      ++acc.occupancy;
      obj.occupying = true;
      obj.occupied_region = ms.region;
    }

    // --- retention window (stay visits only: the windowed queries
    // never look at passes) -------------------------------------------
    if (ms.event != MobilityEvent::kStay) return 0;
    if (s.max_bucket != INT64_MIN && bucket <= s.max_bucket - ring_buckets_) {
      late_dropped_total_->Increment();  // Already aged out of the horizon.
      return 0;
    }
    if (bucket > s.max_bucket) {
      // Advance the watermark, evicting every bucket the horizon left
      // behind.  Evicted visits leave the pre-aggregation sketch too —
      // a stale counter here would make the sketch-served answers drift
      // from what a scan of the retained visits returns.
      s.max_bucket = bucket;
      const int64_t min_keep = bucket - ring_buckets_ + 1;
      while (!s.buckets.empty() && s.buckets.begin()->first < min_keep) {
        buckets_evicted_total_->Increment();
        for (const StayVisit& visit : s.buckets.begin()->second.visits) {
          s.preagg.RemoveVisit(visit.object_id, visit.region, visit.t_start,
                               visit.t_end);
          if (notify) evicted.push_back(visit);
        }
        s.buckets.erase(s.buckets.begin());
      }
    }
    s.watermark_seconds = std::max(s.watermark_seconds, ms.t_end);
    Shard::Bucket& slot = s.buckets[bucket];
    slot.visits.push_back(
        StayVisit{object_id, ms.region, ms.t_start, ms.t_end});
    slot.max_t_start = std::max(slot.max_t_start, ms.t_start);
    slot.min_t_end = std::min(slot.min_t_end, ms.t_end);
    s.preagg.AddVisit(object_id, ms.region, ms.t_start, ms.t_end);
    if (notify) {
      added = StayVisit{object_id, ms.region, ms.t_start, ms.t_end};
      has_added = true;
    }
  }
  if (!has_added && evicted.empty()) return 0;
  const Stopwatch push_watch;
  const int fired = NotifySubscriptions(shard_index, mutation_seq,
                                        has_added ? &added : nullptr, evicted);
  standing_push_seconds_->Observe(push_watch.ElapsedSeconds());
  return fired;
}

void AnalyticsEngine::NoteSessionClosed(int shard, int64_t object_id,
                                        uint64_t* applied_seq) {
  Shard& s = *shards_[static_cast<size_t>(shard) % shards_.size()];
  MutexLock lock(&s.mu);
  // A close mutates shard state (occupancy, the object table), so it
  // takes a sequence number like any ingest: the write-ahead log can
  // then replay closes in exactly their original position.
  const uint64_t seq = ++s.mutation_seq;
  if (applied_seq != nullptr) *applied_seq = seq;
  const auto it = s.objects.find(object_id);
  if (it == s.objects.end()) return;
  if (it->second.occupying) {
    --s.regions.at(it->second.occupied_region).occupancy;
  }
  // Retained visits (and so the sketches and standing answers) survive
  // the close on purpose: a departed visitor still counts toward what
  // was popular, exactly like the batch corpus.  Only the live
  // per-object state goes.
  s.objects.erase(it);
}

int AnalyticsEngine::NotifySubscriptions(int shard_index,
                                         uint64_t mutation_seq,
                                         const StayVisit* added,
                                         const std::vector<StayVisit>& evicted) {
  int fired = 0;
  uint64_t rotations = 0;
  uint64_t expired = 0;
  ReaderMutexLock lock(&subs_mu_);
  for (const auto& sub : subs_) {
    MutexLock sub_lock(&sub->mu);
    // Seeded at or past this mutation: the seed already saw its effect.
    if (mutation_seq <= sub->seeded_seq[static_cast<size_t>(shard_index)]) {
      continue;
    }
    bool changed = false;
    if (sub->window != nullptr) {
      // Every retained stay rotates the window (watermark advance can
      // change the answer even when the visit itself matches nothing);
      // retention evictions are retracted no-op-safely — with the
      // window clamped to the retention ring they have already expired
      // out of it.
      const uint64_t rotations_before = sub->window->rotations();
      const uint64_t expired_before = sub->window->expired_visits();
      if (added != nullptr) {
        changed |= sub->window->AddVisit(added->object_id, added->region,
                                         added->t_start, added->t_end);
      }
      for (const StayVisit& visit : evicted) {
        changed |= sub->window->RemoveVisit(visit.object_id, visit.region,
                                            visit.t_start, visit.t_end);
      }
      rotations += sub->window->rotations() - rotations_before;
      expired += sub->window->expired_visits() - expired_before;
    } else {
      if (added != nullptr) {
        changed |= sub->sketch.AddVisit(added->object_id, added->region,
                                        added->t_start, added->t_end);
      }
      for (const StayVisit& visit : evicted) {
        changed |= sub->sketch.RemoveVisit(visit.object_id, visit.region,
                                           visit.t_start, visit.t_end);
      }
    }
    if (changed && sub->EmitIfChanged()) ++fired;
  }
  if (rotations > 0) window_rotations_total_->Increment(rotations);
  if (expired > 0) window_expired_total_->Increment(expired);
  if (fired > 0) {
    deltas_pushed_total_->Increment(static_cast<uint64_t>(fired));
  }
  return fired;
}

int AnalyticsEngine::Subscribe(StandingQuery query,
                               StandingQueryCallback callback) {
  // A usable trailing window is finite and positive; anything else
  // (including the default 0) means the legacy whole-horizon behavior.
  // The width is quantized to retention buckets and clamped to the
  // ring: a window wider than retention cannot see more than retention
  // holds anyway.
  query::SlidingWindowSketch::Options window_options;
  bool sliding = false;
  if (std::isfinite(query.trailing_seconds) && query.trailing_seconds > 0.0) {
    sliding = true;
    window_options.bucket_seconds = options_.bucket_seconds;
    const double buckets_d =
        std::ceil(query.trailing_seconds / options_.bucket_seconds);
    window_options.window_buckets =
        buckets_d >= static_cast<double>(ring_buckets_)
            ? ring_buckets_
            : std::max<int64_t>(static_cast<int64_t>(buckets_d), 1);
  }
  auto sub = std::make_shared<Subscription>(
      std::move(query), std::move(callback),
      sliding ? &window_options : nullptr);
  // Lock order everywhere: subs_mu_ -> sub->mu -> a shard mutex.  The
  // subscription's own mutex stays held across seeding + publication +
  // the initial emit, so any worker that sees the subscription right
  // after publication waits for sequence 1 to go out first; subs_mu_ is
  // dropped before the initial emit so the callback may hit any engine
  // API except Subscribe / Unsubscribe.
  {
    WriterMutexLock lock(&subs_mu_);
    sub->mu.Lock();
    // Raise the count before seeding: an ingest the seed misses is
    // ordered after the seed by the shard mutex, so it observes a
    // non-zero count and collects its delta for us.
    standing_count_.fetch_add(1, std::memory_order_relaxed);
    standing_queries_gauge_->Set(
        static_cast<double>(standing_count_.load(std::memory_order_relaxed)));
    if (sliding) {
      sliding_count_.fetch_add(1, std::memory_order_relaxed);
      sliding_queries_gauge_->Set(
          static_cast<double>(sliding_count_.load(std::memory_order_relaxed)));
    }
    sub->id = next_subscription_id_++;
    sub->seeded_seq.assign(shards_.size(), 0);
    for (size_t i = 0; i < shards_.size(); ++i) {
      Shard& s = *shards_[i];
      MutexLock shard_lock(&s.mu);
      for (const auto& [index, bucket] : s.buckets) {
        (void)index;
        for (const StayVisit& visit : bucket.visits) {
          // The sliding seed converges regardless of the cross-shard
          // interleaving: window membership depends only on the final
          // watermark, and visits a low-watermark shard admitted expire
          // as soon as a later shard advances it.
          if (sub->window != nullptr) {
            sub->window->AddVisit(visit.object_id, visit.region,
                                  visit.t_start, visit.t_end);
          } else {
            sub->sketch.AddVisit(visit.object_id, visit.region, visit.t_start,
                                 visit.t_end);
          }
        }
      }
      sub->seeded_seq[i] = s.mutation_seq;
    }
    subs_.push_back(sub);
  }
  // Initial snapshot (sequence 1), on the subscriber's thread.
  if (sub->EmitIfChanged()) {
    deltas_pushed_total_->Increment();
  }
  sub->mu.Unlock();
  return sub->id;
}

bool AnalyticsEngine::Unsubscribe(int subscription_id) {
  WriterMutexLock lock(&subs_mu_);
  for (auto it = subs_.begin(); it != subs_.end(); ++it) {
    if ((*it)->id == subscription_id) {
      const bool sliding = std::isfinite((*it)->query.trailing_seconds) &&
                           (*it)->query.trailing_seconds > 0.0;
      subs_.erase(it);
      standing_count_.fetch_sub(1, std::memory_order_relaxed);
      standing_queries_gauge_->Set(
          static_cast<double>(standing_count_.load(std::memory_order_relaxed)));
      if (sliding) {
        sliding_count_.fetch_sub(1, std::memory_order_relaxed);
        sliding_queries_gauge_->Set(static_cast<double>(
            sliding_count_.load(std::memory_order_relaxed)));
      }
      return true;
    }
  }
  return false;
}

template <typename Fn>
void AnalyticsEngine::ForEachRetainedVisit(const TimeWindow& window,
                                           Fn&& fn) const {
  // Buckets are keyed by floor(t_end / bucket_seconds), so every visit
  // with t_end >= window.t_start lives at or after the window-start
  // bucket: older buckets cannot intersect the window and are skipped.
  int64_t min_bucket = INT64_MIN;
  const double bucket_d = std::floor(window.t_start / options_.bucket_seconds);
  if (bucket_d >= -9.0e18 && bucket_d <= 9.0e18) {
    min_bucket = static_cast<int64_t>(bucket_d);
  } else if (bucket_d > 9.0e18) {
    min_bucket = INT64_MAX;  // The window starts after any bucketable time.
  }
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    for (auto it = shard->buckets.lower_bound(min_bucket);
         it != shard->buckets.end(); ++it) {
      for (const StayVisit& visit : it->second.visits) fn(visit);
    }
  }
}

template <typename Key>
bool AnalyticsEngine::CollectPreAggSorted(
    const TimeWindow& window,
    std::vector<std::shared_ptr<const query::SortedCounts<Key>>>* views)
    const {
  // The sketches count every retained visit (their window is unbounded),
  // so their counters answer exactly when the query window covers all of
  // them: it must reach past the latest visit start and before the
  // earliest visit end.  Each shard's sorted view and the bounds that
  // validate it are read under one lock acquisition, so a racing ingest
  // can only fail the coverage check (routing the query to the scan),
  // never slip an out-of-window visit into an accepted merge.  Bounds
  // come from the per-bucket aggregates: O(live buckets), not
  // O(visits); the sorted views are cached inside the sketches, so an
  // unchanged shard costs a shared_ptr copy here.
  double max_t_start = -std::numeric_limits<double>::infinity();
  double min_t_end = std::numeric_limits<double>::infinity();
  views->reserve(shards_.size());
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    for (const auto& [index, bucket] : shard->buckets) {
      (void)index;
      max_t_start = std::max(max_t_start, bucket.max_t_start);
      min_t_end = std::min(min_t_end, bucket.min_t_end);
    }
    // Coverage only shrinks as bounds widen, so a failure here is
    // final: skip building the remaining views.
    if (!(window.t_start <= min_t_end && window.t_end >= max_t_start)) {
      return false;
    }
    if constexpr (std::is_same_v<Key, RegionId>) {
      views->push_back(shard->preagg.SortedRegions());
    } else {
      views->push_back(shard->preagg.SortedPairs());
    }
  }
  return true;
}

std::vector<RegionId> AnalyticsEngine::TopKPopularRegions(
    const std::vector<RegionId>& query_regions, const TimeWindow& window,
    size_t k, double min_visit_seconds) const {
  const Stopwatch fold_watch;
  if (min_visit_seconds == options_.min_visit_seconds) {
    std::vector<std::shared_ptr<const query::SortedCounts<RegionId>>> views;
    if (CollectPreAggSorted(window, &views)) {
      preagg_region_queries_total_->Increment();
      const std::unordered_set<RegionId> query_set(query_regions.begin(),
                                                   query_regions.end());
      auto answer = query::ThresholdMergeTopK(
          views, k,
          [&query_set](const RegionId& region) {
            return query_set.count(region) > 0;
          });
      preagg_fold_seconds_->Observe(fold_watch.ElapsedSeconds());
      return answer;
    }
  }
  scan_region_queries_total_->Increment();
  // Scan fallback: the same shared predicate and accumulation, applied
  // to each retained visit the window can reach.
  const query::CompiledSpec spec(
      query::VisitSpec{query_regions, false, window, min_visit_seconds});
  query::TopKSketch sketch(&spec);
  ForEachRetainedVisit(window, [&](const StayVisit& visit) {
    sketch.AddVisit(visit.object_id, visit.region, visit.t_start,
                    visit.t_end);
  });
  auto answer = sketch.TopKRegions(k);
  scan_fold_seconds_->Observe(fold_watch.ElapsedSeconds());
  return answer;
}

std::vector<std::pair<RegionId, RegionId>>
AnalyticsEngine::TopKFrequentRegionPairs(
    const std::vector<RegionId>& query_regions, const TimeWindow& window,
    size_t k, double min_visit_seconds) const {
  const Stopwatch fold_watch;
  if (min_visit_seconds == options_.min_visit_seconds) {
    std::vector<std::shared_ptr<const query::SortedCounts<RegionPair>>> views;
    if (CollectPreAggSorted(window, &views)) {
      preagg_pair_queries_total_->Increment();
      // A pair qualifies iff both endpoints are queried; its co-visit
      // count never depends on other regions, so endpoint filtering is
      // exact.
      const std::unordered_set<RegionId> query_set(query_regions.begin(),
                                                   query_regions.end());
      auto answer = query::ThresholdMergeTopK(
          views, k,
          [&query_set](const RegionPair& pair) {
            return query_set.count(pair.first) > 0 &&
                   query_set.count(pair.second) > 0;
          });
      preagg_fold_seconds_->Observe(fold_watch.ElapsedSeconds());
      return answer;
    }
  }
  scan_pair_queries_total_->Increment();
  const query::CompiledSpec spec(
      query::VisitSpec{query_regions, false, window, min_visit_seconds});
  query::TopKSketch sketch(&spec);
  ForEachRetainedVisit(window, [&](const StayVisit& visit) {
    sketch.AddVisit(visit.object_id, visit.region, visit.t_start,
                    visit.t_end);
  });
  auto answer = sketch.TopKPairs(k);
  scan_fold_seconds_->Observe(fold_watch.ElapsedSeconds());
  return answer;
}

AnalyticsSnapshot AnalyticsEngine::Snapshot() const {
  AnalyticsSnapshot snapshot;
  // Deterministic shard order; region / flow maps are re-sorted below,
  // so the merged result is independent of hash-map iteration order too.
  struct MergedRegion {
    uint64_t visits = 0;
    uint64_t stays = 0;
    uint64_t passes = 0;
    double total_dwell_seconds = 0.0;
    int64_t occupancy = 0;
    StreamingHistogram dwell;
    MergedRegion(double lo, double hi, double growth) : dwell(lo, hi, growth) {}
  };
  std::map<RegionId, MergedRegion> regions;
  std::map<uint64_t, uint64_t> flows;
  // Counts are thin views over the registry counters (cached handles, no
  // registry lock): safe from a standing-query delta callback.
  snapshot.semantics_ingested = semantics_ingested_total_->Value();
  snapshot.late_dropped = late_dropped_total_->Value();
  snapshot.invalid_dropped = invalid_dropped_total_->Value();
  snapshot.buckets_evicted = buckets_evicted_total_->Value();
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    snapshot.objects_tracked += shard->objects.size();
    snapshot.watermark_seconds =
        std::max(snapshot.watermark_seconds, shard->watermark_seconds);
    for (const auto& [index, bucket] : shard->buckets) {
      (void)index;
      snapshot.retained_visits += bucket.visits.size();
    }
    for (const auto& [region, acc] : shard->regions) {
      auto it = regions.find(region);
      if (it == regions.end()) {
        it = regions
                 .emplace(region,
                          MergedRegion(options_.dwell_min_seconds,
                                       options_.dwell_max_seconds,
                                       options_.dwell_growth))
                 .first;
      }
      MergedRegion& merged = it->second;
      merged.visits += acc.visits;
      merged.stays += acc.stays;
      merged.passes += acc.passes;
      merged.total_dwell_seconds += acc.total_dwell_seconds;
      merged.occupancy += acc.occupancy;
      merged.dwell.Merge(acc.dwell);
    }
    for (const auto& [key, count] : shard->flows) flows[key] += count;
  }
  snapshot.preagg_region_queries = preagg_region_queries_total_->Value();
  snapshot.preagg_pair_queries = preagg_pair_queries_total_->Value();
  snapshot.scan_region_queries = scan_region_queries_total_->Value();
  snapshot.scan_pair_queries = scan_pair_queries_total_->Value();
  snapshot.window_rotations = window_rotations_total_->Value();
  snapshot.window_expired_visits = window_expired_total_->Value();
  // The atomic mirrors, not subs_mu_: a standing-query delta callback
  // may call Snapshot() without self-deadlocking on the notify walk's
  // lock.
  snapshot.standing_queries = standing_count_.load(std::memory_order_relaxed);
  snapshot.sliding_queries = sliding_count_.load(std::memory_order_relaxed);
  snapshot.deltas_pushed = deltas_pushed_total_->Value();
  snapshot.regions.reserve(regions.size());
  for (const auto& [region, merged] : regions) {
    RegionAnalytics out;
    out.region = region;
    out.visits = merged.visits;
    out.stays = merged.stays;
    out.passes = merged.passes;
    out.total_dwell_seconds = merged.total_dwell_seconds;
    out.dwell_p50_seconds = merged.dwell.Quantile(0.5);
    out.dwell_p99_seconds = merged.dwell.Quantile(0.99);
    out.dwell_mean_seconds = merged.dwell.Mean();
    out.dwell_max_seconds = merged.dwell.max();
    out.occupancy = merged.occupancy;
    snapshot.regions.push_back(out);
  }
  snapshot.flows.reserve(flows.size());
  for (const auto& [key, count] : flows) {
    RegionFlow flow;
    flow.from = static_cast<RegionId>(static_cast<int32_t>(key >> 32));
    flow.to = static_cast<RegionId>(static_cast<int32_t>(key & 0xffffffffu));
    flow.count = count;
    snapshot.flows.push_back(flow);
  }
  std::sort(snapshot.flows.begin(), snapshot.flows.end(),
            [](const RegionFlow& a, const RegionFlow& b) {
              if (a.count != b.count) return a.count > b.count;
              if (a.from != b.from) return a.from < b.from;
              return a.to < b.to;
            });
  return snapshot;
}

AnalyticsEngineState AnalyticsEngine::SaveState() const {
  AnalyticsEngineState state;
  state.num_shards = num_shards();
  state.bucket_seconds = options_.bucket_seconds;
  state.horizon_seconds = options_.horizon_seconds;
  state.min_visit_seconds = options_.min_visit_seconds;
  state.dwell_min_seconds = options_.dwell_min_seconds;
  state.dwell_max_seconds = options_.dwell_max_seconds;
  state.dwell_growth = options_.dwell_growth;
  state.semantics_ingested = semantics_ingested_total_->Value();
  state.late_dropped = late_dropped_total_->Value();
  state.invalid_dropped = invalid_dropped_total_->Value();
  state.buckets_evicted = buckets_evicted_total_->Value();
  state.shards.resize(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = *shards_[i];
    AnalyticsShardState& out = state.shards[i];
    MutexLock lock(&s.mu);
    out.mutation_seq = s.mutation_seq;
    out.watermark_seconds = s.watermark_seconds;
    out.max_bucket = s.max_bucket;
    out.regions.reserve(s.regions.size());
    for (const auto& [region, acc] : s.regions) {
      AnalyticsShardState::Region r;
      r.region = region;
      r.visits = acc.visits;
      r.stays = acc.stays;
      r.passes = acc.passes;
      r.total_dwell_seconds = acc.total_dwell_seconds;
      r.occupancy = acc.occupancy;
      r.dwell = acc.dwell.SaveState();
      out.regions.push_back(std::move(r));
    }
    std::sort(out.regions.begin(), out.regions.end(),
              [](const AnalyticsShardState::Region& a,
                 const AnalyticsShardState::Region& b) {
                return a.region < b.region;
              });
    out.flows.reserve(s.flows.size());
    for (const auto& [key, count] : s.flows) {
      AnalyticsShardState::Flow flow;
      flow.from = static_cast<RegionId>(static_cast<int32_t>(key >> 32));
      flow.to = static_cast<RegionId>(static_cast<int32_t>(key & 0xffffffffu));
      flow.count = count;
      out.flows.push_back(flow);
    }
    std::sort(out.flows.begin(), out.flows.end(),
              [](const AnalyticsShardState::Flow& a,
                 const AnalyticsShardState::Flow& b) {
                if (a.from != b.from) return a.from < b.from;
                return a.to < b.to;
              });
    out.objects.reserve(s.objects.size());
    for (const auto& [object_id, obj] : s.objects) {
      out.objects.push_back(AnalyticsShardState::Object{
          object_id, obj.last_region, obj.occupying, obj.occupied_region});
    }
    std::sort(out.objects.begin(), out.objects.end(),
              [](const AnalyticsShardState::Object& a,
                 const AnalyticsShardState::Object& b) {
                return a.object_id < b.object_id;
              });
    for (const auto& [index, bucket] : s.buckets) {
      (void)index;
      for (const StayVisit& visit : bucket.visits) {
        out.visits.push_back(AnalyticsShardState::Visit{
            visit.object_id, visit.region, visit.t_start, visit.t_end});
      }
    }
    out.preagg = s.preagg.SaveState();
  }
  return state;
}

Status AnalyticsEngine::RestoreState(const AnalyticsEngineState& state) {
  if (state.num_shards != num_shards() ||
      state.shards.size() != shards_.size()) {
    return Status::InvalidArgument(
        "analytics restore: shard count does not match engine options");
  }
  if (state.bucket_seconds != options_.bucket_seconds ||
      state.horizon_seconds != options_.horizon_seconds ||
      state.min_visit_seconds != options_.min_visit_seconds ||
      state.dwell_min_seconds != options_.dwell_min_seconds ||
      state.dwell_max_seconds != options_.dwell_max_seconds ||
      state.dwell_growth != options_.dwell_growth) {
    return Status::InvalidArgument(
        "analytics restore: state was saved under different accumulator "
        "options; refusing to reinterpret it");
  }
  if (standing_count_.load(std::memory_order_relaxed) > 0) {
    return Status::FailedPrecondition(
        "analytics restore: standing queries already subscribed");
  }
  // Counters restore by increment, so the engine must not have counted
  // anything yet (a fresh engine, or a fresh registry after restart).
  if (semantics_ingested_total_->Value() > state.semantics_ingested ||
      late_dropped_total_->Value() > state.late_dropped ||
      invalid_dropped_total_->Value() > state.invalid_dropped ||
      buckets_evicted_total_->Value() > state.buckets_evicted) {
    return Status::FailedPrecondition(
        "analytics restore: engine counters already ahead of the state");
  }
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->mu);
    if (shard->mutation_seq != 0 || !shard->regions.empty() ||
        !shard->objects.empty() || !shard->buckets.empty()) {
      return Status::FailedPrecondition(
          "analytics restore: engine has already ingested");
    }
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = *shards_[i];
    const AnalyticsShardState& in = state.shards[i];
    MutexLock lock(&s.mu);
    s.mutation_seq = in.mutation_seq;
    s.watermark_seconds = in.watermark_seconds;
    s.max_bucket = in.max_bucket;
    for (const auto& r : in.regions) {
      if (r.dwell.min_value != options_.dwell_min_seconds ||
          r.dwell.max_value != options_.dwell_max_seconds ||
          r.dwell.growth != options_.dwell_growth) {
        return Status::InvalidArgument(
            "analytics restore: dwell histogram config does not match "
            "engine options");
      }
      Result<StreamingHistogram> dwell = StreamingHistogram::FromState(r.dwell);
      C2MN_RETURN_NOT_OK(dwell.status());
      auto [it, inserted] = s.regions.emplace(
          r.region, Shard::RegionAccum(options_.dwell_min_seconds,
                                       options_.dwell_max_seconds,
                                       options_.dwell_growth));
      if (!inserted) {
        return Status::InvalidArgument(
            "analytics restore: duplicate region in shard state");
      }
      Shard::RegionAccum& acc = it->second;
      acc.visits = r.visits;
      acc.stays = r.stays;
      acc.passes = r.passes;
      acc.total_dwell_seconds = r.total_dwell_seconds;
      acc.occupancy = r.occupancy;
      acc.dwell = *dwell;
    }
    for (const auto& flow : in.flows) {
      const uint64_t key = FlowKey(flow.from, flow.to);
      if (s.flows.count(key) > 0) {
        return Status::InvalidArgument(
            "analytics restore: duplicate flow edge in shard state");
      }
      s.flows[key] = flow.count;
    }
    for (const auto& obj : in.objects) {
      if (s.objects.count(obj.object_id) > 0) {
        return Status::InvalidArgument(
            "analytics restore: duplicate object in shard state");
      }
      s.objects[obj.object_id] =
          Shard::ObjectState{obj.last_region, obj.occupying,
                             obj.occupied_region};
    }
    // Occupancy is derivable from the object table; a disagreement means
    // the two sections of the snapshot do not describe the same moment.
    std::unordered_map<RegionId, int64_t> occupancy;
    for (const auto& [object_id, obj] : s.objects) {
      (void)object_id;
      if (obj.occupying) ++occupancy[obj.occupied_region];
    }
    for (const auto& [region, acc] : s.regions) {
      const auto it = occupancy.find(region);
      const int64_t derived = it != occupancy.end() ? it->second : 0;
      if (acc.occupancy != derived) {
        return Status::Internal(
            "analytics restore: region occupancy disagrees with the "
            "object table");
      }
    }
    // Re-bucket the retained visits from their timestamps (the bucket
    // index is derived state) and rebuild the pre-aggregation sketch by
    // refolding them — then cross-check against the sketch counters the
    // snapshot carried.  Any drift means a corrupt or inconsistent
    // snapshot and the restore is refused.
    for (const auto& visit : in.visits) {
      const double bucket_d = std::floor(visit.t_end / options_.bucket_seconds);
      if (!std::isfinite(visit.t_start) || !std::isfinite(visit.t_end) ||
          !(bucket_d >= -9.0e18 && bucket_d <= 9.0e18)) {
        return Status::InvalidArgument(
            "analytics restore: retained visit with unbucketable time");
      }
      const int64_t bucket = static_cast<int64_t>(bucket_d);
      if (s.max_bucket == INT64_MIN || bucket > s.max_bucket ||
          bucket <= s.max_bucket - ring_buckets_) {
        return Status::Internal(
            "analytics restore: retained visit outside the shard's "
            "retention window");
      }
      Shard::Bucket& slot = s.buckets[bucket];
      slot.visits.push_back(StayVisit{visit.object_id, visit.region,
                                      visit.t_start, visit.t_end});
      slot.max_t_start = std::max(slot.max_t_start, visit.t_start);
      slot.min_t_end = std::min(slot.min_t_end, visit.t_end);
      s.preagg.AddVisit(visit.object_id, visit.region, visit.t_start,
                        visit.t_end);
    }
    if (s.preagg.SaveState() != in.preagg) {
      return Status::Internal(
          "analytics restore: pre-aggregation rebuilt from the retained "
          "visits disagrees with the saved sketch");
    }
  }
  semantics_ingested_total_->Increment(state.semantics_ingested -
                                       semantics_ingested_total_->Value());
  late_dropped_total_->Increment(state.late_dropped -
                                 late_dropped_total_->Value());
  invalid_dropped_total_->Increment(state.invalid_dropped -
                                    invalid_dropped_total_->Value());
  buckets_evicted_total_->Increment(state.buckets_evicted -
                                    buckets_evicted_total_->Value());
  return Status::OK();
}

}  // namespace c2mn
