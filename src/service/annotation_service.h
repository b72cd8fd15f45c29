#ifndef C2MN_SERVICE_ANNOTATION_SERVICE_H_
#define C2MN_SERVICE_ANNOTATION_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>  // std::once_flag
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "analytics/analytics_engine.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/sync.h"
#include "obs/metrics_registry.h"
#include "obs/pipeline_trace.h"
#include "service/service_stats.h"
#include "service/session.h"
#include "storage/storage_manager.h"

namespace c2mn {

/// \brief A concurrent streaming annotation service: thousands of
/// per-object positioning streams, each annotated by its own
/// OnlineAnnotator, sharded across a fixed pool of worker threads.
///
/// Sharding is by object id (hash -> shard), so every session is
/// processed by exactly one worker and needs no per-record locking;
/// submissions enter bounded per-shard MPSC queues whose backpressure
/// blocks producers instead of growing memory.  As long as each
/// session's records are submitted from one thread at a time (in
/// timestamp order), the m-semantics delivered to its sink are
/// *identical* to a standalone OnlineAnnotator fed the same records —
/// concurrency never changes the answer, only the throughput.
///
/// Thread model:
///  - OpenSession / Submit / CloseSession / Drain / Stats are safe to
///    call from any thread.
///  - Sinks run on shard worker threads, one session at a time.
///  - Drain() returns once every record submitted before the call has
///    been fully processed (and its emissions delivered).
class AnnotationService {
 public:
  /// Opt-in live analytics over the service's m-semantics stream.
  struct AnalyticsOptions {
    /// When true the service owns an AnalyticsEngine and feeds it every
    /// m-semantics it delivers to sinks (shard-local, so ingestion never
    /// crosses threads).
    bool enabled = false;
    /// Engine configuration; num_shards is overridden with the
    /// service's shard count.
    AnalyticsEngine::Options engine;
  };

  /// Observability wiring: where the service's metrics live and how
  /// finely records are traced.
  struct ObsOptions {
    /// Registry to register into.  nullptr (the default) gives the
    /// service a private registry so two services in one process never
    /// fold their counters together; pass &obs::MetricsRegistry::Global()
    /// for one unified process-wide export.
    obs::MetricsRegistry* registry = nullptr;
    /// Per-stage latency tracing (queue_wait/decode/sink_emit/
    /// analytics_ingest histograms).  Off leaves only the single
    /// submit-to-done clock read the legacy stats need.
    bool stage_tracing = true;
    /// End-to-end latency beyond which a record is logged as a slow op
    /// with its full stage breakdown; 0 disables the slow-op log.
    double slow_trace_threshold_seconds = 0.0;
    /// Log 1 in N slow ops (all are counted).
    int slow_trace_log_every = 1;
    /// When > 0, a background thread renders the registry to
    /// `export_path` every interval.  Requires a non-empty path.
    double export_interval_seconds = 0.0;
    std::string export_path;
    /// "prom" or "json".
    std::string export_format = "prom";
  };

  /// Opt-in durable analytics state: a write-ahead visit log plus
  /// periodic snapshots in a state directory, recovered on construction.
  /// Requires analytics to be enabled (the log records what the engine
  /// ingests).
  struct StorageOptions {
    /// Empty (the default) disables durability entirely.
    std::string state_dir;
    /// Background checkpoint period; <= 0 leaves checkpointing to
    /// explicit CheckpointStorage() calls (and Stop(), below).
    double checkpoint_interval_seconds = 0.0;
    /// Run a final checkpoint during Stop().  When false, Stop() still
    /// flushes and fsyncs the log tail, so nothing processed is lost —
    /// the next boot just replays more.
    bool checkpoint_on_stop = true;
    /// Forwarded to StorageManager (tests disable for speed).
    bool fsync = true;
  };

  struct Options {
    /// Worker threads; each owns one queue and a disjoint set of
    /// sessions.
    int num_shards = 4;
    /// Per-shard queue bound; Submit() blocks when the shard is this
    /// far behind.
    size_t queue_capacity = 4096;
    /// Max operations a worker drains per wakeup (amortizes lock and
    /// wakeup costs across a decode stride).
    size_t max_batch = 64;
    /// Streaming-decode knobs forwarded to every session's annotator.
    OnlineAnnotator::Options annotator;
    /// Live analytics over everything the sinks receive.
    AnalyticsOptions analytics;
    /// Metrics registry, stage tracing, and periodic export.
    ObsOptions obs;
    /// Durable state (snapshot + write-ahead log) for the analytics.
    StorageOptions storage;
  };

  /// The world and weights are shared (read-only) by all sessions; the
  /// caller keeps `world` alive for the service's lifetime.
  AnnotationService(const World& world, FeatureOptions feature_options,
                    C2mnStructure structure, std::vector<double> weights,
                    Options options);

  AnnotationService(const World& world, FeatureOptions feature_options,
                    C2mnStructure structure, std::vector<double> weights)
      : AnnotationService(world, std::move(feature_options), structure,
                          std::move(weights), Options()) {}

  /// Drains and joins the workers.  Sessions still open are discarded
  /// without a final flush — call CloseSession (plus Drain) first if
  /// their tails matter.
  ~AnnotationService();

  AnnotationService(const AnnotationService&) = delete;
  AnnotationService& operator=(const AnnotationService&) = delete;

  /// Registers a new stream; `sink` receives its completed m-semantics
  /// in order.  Fails if the id is already open or the service stopped.
  Status OpenSession(int64_t object_id, SemanticsSink sink);

  /// Enqueues one record for the session's shard; blocks under
  /// backpressure.  Records of one session must arrive in timestamp
  /// order (out-of-order timestamps are clamped and counted, see
  /// ServiceStats::timestamp_violations).
  Status Submit(int64_t object_id, const PositioningRecord& record);

  /// Flushes the session (the sink receives the remaining m-semantics)
  /// and releases it.  Asynchronous: the flush has happened once a
  /// subsequent Drain() returns.
  Status CloseSession(int64_t object_id);

  /// Blocks until the service is idle: every operation submitted so far
  /// (including ones racing this call) is fully processed, establishing
  /// a happens-before edge with all sink invocations for that work.
  /// Under continuous concurrent submission this waits until producers
  /// pause — pair it with quiescing the producers first.
  void Drain();

  /// Drains, stops the workers, and joins them.  Idempotent; called by
  /// the destructor.  Submissions after Stop() fail.
  void Stop();

  /// A consistent point-in-time snapshot; cheap enough to poll.
  ServiceStats Stats() const;

  /// The live analytics engine, or nullptr when analytics are disabled.
  /// Queries and snapshots are safe from any thread while the service
  /// runs; Drain() first for answers covering everything submitted.
  const AnalyticsEngine* analytics() const { return analytics_.get(); }

  /// \brief Registers a standing continuous top-k query over the live
  /// analytics stream.  The callback receives the initial answer
  /// (sequence 1) on this thread before the call returns, then a delta
  /// on the owning shard worker every time ingest or retention-aging
  /// changes the answer set.  Keep callbacks fast — they run on the
  /// record-processing path.  Fails when analytics are disabled.
  Result<int> SubscribeAnalytics(StandingQuery query,
                                 StandingQueryCallback callback);

  /// Cancels a standing query; no deltas fire after this returns.
  Status UnsubscribeAnalytics(int subscription_id);

  /// Merged analytics gauges alongside ServiceStats, including
  /// standing-query push latency (submit to delta-callback-returned,
  /// over ingests that pushed at least one delta); empty when analytics
  /// are disabled.
  AnalyticsSnapshot AnalyticsStats() const;

  /// Runs one checkpoint cycle now (rotate the log, publish a snapshot,
  /// compact).  Safe from any thread while the service runs; fails when
  /// durability is disabled, recovery failed at boot, or another
  /// checkpoint is in flight.
  Status CheckpointStorage();

  /// OK when durability is active (or disabled deliberately via an
  /// empty state_dir); the recovery error when boot-time recovery
  /// refused the state directory — the service still runs, but nothing
  /// is logged and CheckpointStorage() fails.
  const Status& storage_status() const { return storage_status_; }

  /// What boot-time recovery found; zeros when durability is off.
  const storage::RecoveryStats& recovery_stats() const {
    return recovery_stats_;
  }

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// The registry this service's metrics live in (the injected one, or
  /// the private per-instance default).  Safe to snapshot/render from
  /// any thread while the service exists.
  obs::MetricsRegistry& metrics_registry() const { return *registry_; }

  /// The per-stage tracer, or nullptr when stage tracing is disabled.
  const obs::PipelineTracer* tracer() const { return tracer_.get(); }

 private:
  struct Shard;

  Shard* ShardOf(int64_t object_id) const;
  void WorkerLoop(Shard* shard);
  void NoteOpDone();
  void RegisterMetrics();
  void UpdateGauges() const;
  void ExportLoop();
  void CheckpointLoop();

  const World& world_;
  const FeatureOptions fopts_;
  const C2mnStructure structure_;
  const std::vector<double> weights_;
  const Options options_;
  const Stopwatch uptime_;

  /// Private registry when none was injected; registry_ points at it or
  /// at the injected one.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_ = nullptr;
  std::unique_ptr<obs::PipelineTracer> tracer_;

  /// Registry-backed counters; ServiceStats is a thin view over these.
  obs::Counter* records_submitted_total_ = nullptr;
  obs::Counter* records_processed_total_ = nullptr;
  obs::Counter* semantics_emitted_total_ = nullptr;
  obs::Counter* timestamp_violations_total_ = nullptr;
  obs::Counter* merge_mismatches_total_ = nullptr;
  obs::Counter* batched_decodes_total_ = nullptr;
  obs::Counter* decode_batches_total_ = nullptr;
  obs::Counter* sessions_opened_total_ = nullptr;
  obs::Counter* sessions_closed_total_ = nullptr;
  obs::Gauge* sessions_open_gauge_ = nullptr;
  std::vector<obs::Gauge*> queue_depth_gauges_;

  /// Per-instance (not function-local static) so each service logs its
  /// own histogram-config mismatch; a process-wide flag would mute every
  /// instance after the first one logged.  Mutable: flipped from the
  /// const Stats()/AnalyticsStats() accessors.
  mutable std::once_flag latency_merge_mismatch_logged_;
  mutable std::once_flag push_merge_mismatch_logged_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<AnalyticsEngine> analytics_;

  /// Durable state.  Created (and recovered) before the workers start,
  /// reset to null on recovery failure — so by the time any worker or
  /// caller can observe it, the pointer is immutable.
  std::unique_ptr<storage::StorageManager> storage_;
  Status storage_status_;
  storage::RecoveryStats recovery_stats_;

  /// Background checkpointer (storage.checkpoint_interval_seconds > 0).
  std::thread checkpoint_thread_;
  mutable Mutex checkpoint_mu_{LockRank::kServiceCheckpoint,
                               "AnnotationService::checkpoint_mu_"};
  CondVar checkpoint_cv_;
  bool checkpoint_stop_ C2MN_GUARDED_BY(checkpoint_mu_) = false;

  /// Periodic exporter (obs.export_interval_seconds > 0).
  std::thread export_thread_;
  mutable Mutex export_mu_{LockRank::kServiceExport,
                           "AnnotationService::export_mu_"};
  CondVar export_cv_;
  bool export_stop_ C2MN_GUARDED_BY(export_mu_) = false;

  /// Caller-visible session registry (which ids are open right now);
  /// the authoritative per-session state lives with the shard workers.
  /// Acquired before the queue mutexes (Submit checks the registry, then
  /// pushes) — the declared rank order makes that edge explicit.
  mutable Mutex registry_mu_{LockRank::kServiceRegistry,
                             "AnnotationService::registry_mu_"};
  std::unordered_set<int64_t> open_sessions_ C2MN_GUARDED_BY(registry_mu_);
  bool stopped_ C2MN_GUARDED_BY(registry_mu_) = false;

  /// Operations enqueued but not yet fully processed, across all
  /// shards; Drain() waits for zero.
  std::atomic<uint64_t> pending_ops_{0};
  mutable Mutex drain_mu_{LockRank::kServiceDrain,
                          "AnnotationService::drain_mu_"};
  CondVar drain_cv_;
};

}  // namespace c2mn

#endif  // C2MN_SERVICE_ANNOTATION_SERVICE_H_
