#include "service/annotation_service.h"

#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/logging.h"
#include "common/streaming_histogram.h"
#include "common/sync.h"
#include "service/bounded_queue.h"

namespace c2mn {

namespace {

enum class OpKind : uint8_t { kOpen, kRecord, kClose };

/// One unit of work for a shard worker.  Kept small: the sink (the only
/// heavy member) is set for kOpen only.
struct Op {
  OpKind kind;
  int64_t object_id;
  PositioningRecord record;  // kRecord only.
  SemanticsSink sink;        // kOpen only.
  std::chrono::steady_clock::time_point submit_time;
};

}  // namespace

/// All per-shard state.  `sessions` is touched only by the worker
/// thread; `stats_mu` guards the counters and histogram that Stats()
/// reads from other threads.
struct AnnotationService::Shard {
  Shard(int shard_index, size_t queue_capacity)
      : index(shard_index), queue(queue_capacity) {}

  /// Position in shards_; doubles as the analytics-engine shard id.
  const int index;
  BoundedQueue<Op> queue;
  std::thread worker;
  std::unordered_map<int64_t, std::unique_ptr<service_internal::Session>>
      sessions;

  /// One decode workspace shared by every session on this shard: window
  /// decodes run back-to-back on its warm arena and message buffers
  /// instead of each session paying for (and holding) its own working
  /// set.  Worker-thread only.
  DecodeWorkspace decode_workspace;

  Mutex stats_mu{LockRank::kServiceShardStats, "Shard::stats_mu"};
  /// Submit-to-emit latency in seconds (1 us .. 1000 s buckets).
  StreamingHistogram latency C2MN_GUARDED_BY(stats_mu);
  /// Submit-to-standing-query-delta latency, over the ops whose
  /// analytics ingest pushed at least one delta.
  StreamingHistogram push_latency C2MN_GUARDED_BY(stats_mu);
};

AnnotationService::AnnotationService(const World& world,
                                     FeatureOptions feature_options,
                                     C2mnStructure structure,
                                     std::vector<double> weights,
                                     Options options)
    : world_(world),
      fopts_(std::move(feature_options)),
      structure_(structure),
      weights_(std::move(weights)),
      options_(options) {
  if (options_.obs.registry != nullptr) {
    registry_ = options_.obs.registry;
  } else {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry_ = owned_registry_.get();
  }
  RegisterMetrics();
  if (options_.obs.stage_tracing) {
    obs::PipelineTracer::Options topts;
    topts.slow_threshold_seconds = options_.obs.slow_trace_threshold_seconds;
    topts.slow_log_every = options_.obs.slow_trace_log_every;
    tracer_ = std::make_unique<obs::PipelineTracer>(registry_, topts);
  }
  const int n = options_.num_shards > 0 ? options_.num_shards : 1;
  shards_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        i, options_.queue_capacity > 0 ? options_.queue_capacity : 1));
    queue_depth_gauges_.push_back(registry_->GetGauge(
        "c2mn_service_queue_depth", "Per-shard submission backlog",
        {{"shard", std::to_string(i)}}));
  }
  if (options_.analytics.enabled) {
    AnalyticsEngine::Options aopts = options_.analytics.engine;
    aopts.num_shards = n;  // One analytics shard per worker.
    aopts.metrics_registry = registry_;  // One export covers the pipeline.
    analytics_ = std::make_unique<AnalyticsEngine>(aopts);
  }
  if (!options_.storage.state_dir.empty()) {
    // Recover (or initialize) the durable state before any worker can
    // ingest: the engine must be rebuilt while it is still fresh, and
    // the workers treat storage_ as immutable.
    if (analytics_ == nullptr) {
      storage_status_ = Status::FailedPrecondition(
          "durable state requires analytics to be enabled");
    } else {
      storage::StorageManager::Options sopts;
      sopts.state_dir = options_.storage.state_dir;
      sopts.fsync_on_checkpoint = options_.storage.fsync;
      sopts.metrics_registry = registry_;
      storage_ =
          std::make_unique<storage::StorageManager>(std::move(sopts), n);
      storage_status_ = storage_->Recover(analytics_.get(), &recovery_stats_);
    }
    if (!storage_status_.ok()) {
      // An observable refusal, not a silent fresh start: the service
      // runs without durability and storage_status() says why.
      C2MN_LOG_ERROR << "durable state recovery failed ("
                     << storage_status_.ToString()
                     << "); running without logging or checkpoints";
      storage_.reset();
    }
  }
  for (auto& shard : shards_) {
    shard->worker = std::thread([this, s = shard.get()] { WorkerLoop(s); });
  }
  if (options_.obs.export_interval_seconds > 0.0 &&
      !options_.obs.export_path.empty()) {
    export_thread_ = std::thread([this] { ExportLoop(); });
  }
  if (storage_ != nullptr &&
      options_.storage.checkpoint_interval_seconds > 0.0) {
    checkpoint_thread_ = std::thread([this] { CheckpointLoop(); });
  }
}

void AnnotationService::RegisterMetrics() {
  records_submitted_total_ = registry_->GetCounter(
      "c2mn_service_records_submitted_total",
      "Positioning records accepted by Submit()");
  records_processed_total_ = registry_->GetCounter(
      "c2mn_service_records_processed_total",
      "Records fully processed by shard workers");
  semantics_emitted_total_ = registry_->GetCounter(
      "c2mn_service_semantics_emitted_total",
      "M-semantics delivered to session sinks");
  timestamp_violations_total_ = registry_->GetCounter(
      "c2mn_service_timestamp_violations_total",
      "Out-of-order timestamps clamped by per-session annotators");
  merge_mismatches_total_ = registry_->GetCounter(
      "c2mn_service_histogram_merge_mismatches_total",
      "Latency-histogram merges skipped for mismatched bucket configs");
  batched_decodes_total_ = registry_->GetCounter(
      "c2mn_service_batched_decodes_total",
      "Window decodes executed through the shard decode batch (parked by "
      "PushBuffered, run on the shared workspace)");
  decode_batches_total_ = registry_->GetCounter(
      "c2mn_service_decode_batches_total",
      "Queue drains that ran at least one parked decode back-to-back");
  sessions_opened_total_ = registry_->GetCounter(
      "c2mn_service_sessions_opened_total",
      "Sessions opened (counted once the open op is queued)");
  sessions_closed_total_ = registry_->GetCounter(
      "c2mn_service_sessions_closed_total",
      "Sessions closed (counted once the close op is queued)");
  sessions_open_gauge_ = registry_->GetGauge(
      "c2mn_service_sessions_open", "Sessions currently open");
}

AnnotationService::~AnnotationService() { Stop(); }

AnnotationService::Shard* AnnotationService::ShardOf(int64_t object_id) const {
  const size_t h = std::hash<int64_t>{}(object_id);
  return shards_[h % shards_.size()].get();
}

Status AnnotationService::OpenSession(int64_t object_id, SemanticsSink sink) {
  {
    MutexLock lock(&registry_mu_);
    if (stopped_) return Status::FailedPrecondition("service is stopped");
    if (!open_sessions_.insert(object_id).second) {
      return Status::InvalidArgument("session " + std::to_string(object_id) +
                                     " is already open");
    }
  }
  Op op;
  op.kind = OpKind::kOpen;
  op.object_id = object_id;
  op.sink = std::move(sink);
  op.submit_time = std::chrono::steady_clock::now();
  pending_ops_.fetch_add(1, std::memory_order_relaxed);
  if (!ShardOf(object_id)->queue.Push(std::move(op))) {
    // Raced with Stop(): the open op was dropped, so undo the
    // registration to keep Stats() consistent.
    NoteOpDone();
    MutexLock lock(&registry_mu_);
    open_sessions_.erase(object_id);
    return Status::FailedPrecondition("service is stopped");
  }
  sessions_opened_total_->Increment();
  return Status::OK();
}

Status AnnotationService::Submit(int64_t object_id,
                                 const PositioningRecord& record) {
  {
    MutexLock lock(&registry_mu_);
    if (stopped_) return Status::FailedPrecondition("service is stopped");
    if (open_sessions_.count(object_id) == 0) {
      return Status::NotFound("no open session for object " +
                              std::to_string(object_id));
    }
  }
  Op op;
  op.kind = OpKind::kRecord;
  op.object_id = object_id;
  op.record = record;
  op.submit_time = std::chrono::steady_clock::now();
  pending_ops_.fetch_add(1, std::memory_order_relaxed);
  if (!ShardOf(object_id)->queue.Push(std::move(op))) {
    NoteOpDone();
    return Status::FailedPrecondition("service is stopped");
  }
  records_submitted_total_->Increment();
  return Status::OK();
}

Status AnnotationService::CloseSession(int64_t object_id) {
  {
    MutexLock lock(&registry_mu_);
    if (stopped_) return Status::FailedPrecondition("service is stopped");
    if (open_sessions_.erase(object_id) == 0) {
      return Status::NotFound("no open session for object " +
                              std::to_string(object_id));
    }
  }
  Op op;
  op.kind = OpKind::kClose;
  op.object_id = object_id;
  op.submit_time = std::chrono::steady_clock::now();
  pending_ops_.fetch_add(1, std::memory_order_relaxed);
  if (!ShardOf(object_id)->queue.Push(std::move(op))) {
    // Raced with Stop(): the flush op was dropped, so the session was
    // never actually closed.
    NoteOpDone();
    MutexLock lock(&registry_mu_);
    open_sessions_.insert(object_id);
    return Status::FailedPrecondition("service is stopped");
  }
  sessions_closed_total_->Increment();
  return Status::OK();
}

void AnnotationService::NoteOpDone() {
  if (pending_ops_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    MutexLock lock(&drain_mu_);
    drain_cv_.NotifyAll();
  }
}

void AnnotationService::Drain() {
  MutexLock lock(&drain_mu_);
  while (pending_ops_.load(std::memory_order_acquire) != 0) {
    drain_cv_.Wait(&drain_mu_);
  }
}

void AnnotationService::Stop() {
  {
    MutexLock lock(&registry_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  Drain();
  for (auto& shard : shards_) shard->queue.Close();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  if (export_thread_.joinable()) {
    {
      MutexLock lock(&export_mu_);
      export_stop_ = true;
    }
    export_cv_.NotifyAll();
    export_thread_.join();
  }
  if (checkpoint_thread_.joinable()) {
    {
      MutexLock lock(&checkpoint_mu_);
      checkpoint_stop_ = true;
    }
    checkpoint_cv_.NotifyAll();
    checkpoint_thread_.join();
  }
  if (storage_ != nullptr) {
    // Workers are joined, so the shard buffers are quiescent.  Either
    // publish a final snapshot or just make the log tail durable; both
    // leave the next boot able to rebuild everything processed so far.
    const Status status = options_.storage.checkpoint_on_stop
                              ? storage_->Checkpoint(*analytics_)
                              : storage_->Sync();
    if (!status.ok()) {
      C2MN_LOG_ERROR << "durable state shutdown flush failed: "
                     << status.ToString();
    }
  }
}

void AnnotationService::UpdateGauges() const {
  {
    MutexLock lock(&registry_mu_);
    sessions_open_gauge_->Set(static_cast<double>(open_sessions_.size()));
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    queue_depth_gauges_[i]->Set(static_cast<double>(shards_[i]->queue.size()));
  }
}

void AnnotationService::ExportLoop() {
  const auto interval =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(
              options_.obs.export_interval_seconds));
  for (;;) {
    // One interval of interruptible sleep under the lock; the export
    // itself runs with export_mu_ released (it takes the session
    // registry and queue locks while rendering gauges).
    {
      MutexLock lock(&export_mu_);
      const auto deadline = std::chrono::steady_clock::now() + interval;
      while (!export_stop_ && export_cv_.WaitUntil(&export_mu_, deadline)) {
      }
      if (export_stop_) return;
    }
    UpdateGauges();
    const std::string body = options_.obs.export_format == "json"
                                 ? registry_->RenderJson()
                                 : registry_->RenderPrometheus();
    std::ofstream out(options_.obs.export_path,
                      std::ios::out | std::ios::trunc);
    if (out) {
      out << body;
    } else {
      C2MN_LOG_WARN << "metrics export: cannot write "
                    << options_.obs.export_path;
    }
  }
}

void AnnotationService::CheckpointLoop() {
  const auto interval =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(
              options_.storage.checkpoint_interval_seconds));
  for (;;) {
    // Interruptible sleep under the lock; the checkpoint itself runs
    // with checkpoint_mu_ released (it takes the log and shard locks).
    {
      MutexLock lock(&checkpoint_mu_);
      const auto deadline = std::chrono::steady_clock::now() + interval;
      while (!checkpoint_stop_ &&
             checkpoint_cv_.WaitUntil(&checkpoint_mu_, deadline)) {
      }
      if (checkpoint_stop_) return;
    }
    const Status status = CheckpointStorage();
    if (!status.ok()) {
      C2MN_LOG_ERROR << "periodic checkpoint failed: " << status.ToString();
    }
  }
}

Status AnnotationService::CheckpointStorage() {
  if (storage_ == nullptr) {
    if (!storage_status_.ok()) return storage_status_;
    return Status::FailedPrecondition(
        "durable state is not configured (Options::storage.state_dir)");
  }
  return storage_->Checkpoint(*analytics_);
}

void AnnotationService::WorkerLoop(Shard* shard) {
  using service_internal::Session;
  std::vector<Op> batch;
  batch.reserve(options_.max_batch);
  // One emit buffer per shard, recycled across every session's pushes:
  // with the shard's shared decode workspace this keeps the steady-state
  // record path allocation-free.
  std::vector<MSemantics> emitted;

  // Cross-session decode batching: a record whose push makes a window
  // decode due is *parked* instead of decoded in place, and the parked
  // decodes run back-to-back over the shard's shared workspace once the
  // drained batch has been walked.  A session has at most one parked
  // decode, and any later op for the same session completes it first, so
  // each session still observes its ops strictly in submission order —
  // which is why the emitted m-semantics stay bit-identical to a
  // standalone annotator.  The parked op's NoteOpDone/stats are deferred
  // with it: the op is not "processed" until its emissions are delivered.
  struct PendingDecode {
    Session* session;  ///< nullptr once completed.
    obs::PipelineTracer::Span span;
    std::chrono::steady_clock::time_point submit_time;
  };
  std::vector<PendingDecode> pending;
  pending.reserve(options_.max_batch);

  // Runs one parked decode to completion (decode, sink, analytics,
  // stats, op accounting) and marks the slot done.
  const auto complete_pending = [&](PendingDecode* pd) {
    Session* session = pd->session;
    pd->session = nullptr;
    const bool trace = tracer_ != nullptr;
    session->annotator.CompleteDecode(&shard->decode_workspace, &emitted);
    batched_decodes_total_->Increment();
    if (trace) pd->span.FinishStage(obs::PipelineStage::kDecode);
    for (const MSemantics& ms : emitted) {
      if (session->sink) session->sink(session->object_id, ms);
    }
    if (trace && !emitted.empty()) {
      pd->span.FinishStage(obs::PipelineStage::kSinkEmit);
    }
    int deltas_fired = 0;
    if (analytics_ != nullptr && !emitted.empty()) {
      for (const MSemantics& ms : emitted) {
        // Apply, then log with the engine-assigned sequence: the durable
        // log of this shard is always a sequence-contiguous prefix of
        // what was applied, which recovery's cross-check relies on.
        uint64_t seq = 0;
        deltas_fired += analytics_->Ingest(shard->index, session->object_id,
                                           ms,
                                           storage_ != nullptr ? &seq
                                                               : nullptr);
        if (storage_ != nullptr) {
          storage_->BufferIngest(shard->index, seq, session->object_id, ms);
        }
      }
      if (trace) pd->span.FinishStage(obs::PipelineStage::kAnalyticsIngest);
    }
    const double latency_s =
        trace ? pd->span.total_seconds()
              : std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - pd->submit_time)
                    .count();
    records_processed_total_->Increment();
    if (!emitted.empty()) {
      semantics_emitted_total_->Increment(emitted.size());
    }
    {
      MutexLock lock(&shard->stats_mu);
      shard->latency.Add(latency_s);
      if (deltas_fired > 0) shard->push_latency.Add(latency_s);
    }
    if (trace) tracer_->Record(pd->span, session->object_id, shard->index);
    NoteOpDone();
  };
  const auto complete_pending_for = [&](Session* session) {
    for (PendingDecode& pd : pending) {
      if (pd.session == session) {
        complete_pending(&pd);
        return;
      }
    }
  };

  while (shard->queue.PopBatch(&batch, options_.max_batch)) {
    for (Op& op : batch) {
      switch (op.kind) {
        case OpKind::kOpen: {
          auto session = std::make_unique<Session>(
              world_, fopts_, structure_, weights_, options_.annotator,
              op.object_id, std::move(op.sink));
          shard->sessions[op.object_id] = std::move(session);
          break;
        }
        case OpKind::kRecord: {
          const auto it = shard->sessions.find(op.object_id);
          if (it == shard->sessions.end()) {
            NoteOpDone();  // Raced with Stop().
            continue;
          }
          Session* session = it->second.get();
          complete_pending_for(session);
          const uint64_t violations_before =
              session->annotator.timestamp_violations();
          // Stage tracing: the span's clock reads double as the latency
          // measurement, so tracing adds at most three extra now() calls
          // per record over the untraced path.  The sink/ingest loops run
          // back-to-back (all sinks, then all ingests) so the two stages
          // time separately; per-object ordering is preserved in both
          // streams.
          const bool trace = tracer_ != nullptr;
          obs::PipelineTracer::Span span;
          if (trace) {
            span.Start(op.submit_time);
            span.FinishStage(obs::PipelineStage::kQueueWait);
          }
          const bool decode_due = session->annotator.PushBuffered(op.record);
          const uint64_t violations =
              session->annotator.timestamp_violations() - violations_before;
          if (violations > 0) {
            timestamp_violations_total_->Increment(violations);
          }
          if (decode_due) {
            // Park the decode; its span stays open across the deferral
            // so the decode stage reports the true submit-to-emit path.
            pending.push_back({session, span, op.submit_time});
            continue;  // NoteOpDone deferred to complete_pending.
          }
          if (trace) span.FinishStage(obs::PipelineStage::kDecode);
          const double latency_s =
              trace ? span.total_seconds()
                    : std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - op.submit_time)
                          .count();
          records_processed_total_->Increment();
          {
            MutexLock lock(&shard->stats_mu);
            shard->latency.Add(latency_s);
          }
          if (trace) tracer_->Record(span, op.object_id, shard->index);
          break;
        }
        case OpKind::kClose: {
          const auto it = shard->sessions.find(op.object_id);
          if (it == shard->sessions.end()) break;
          Session* session = it->second.get();
          complete_pending_for(session);
          const bool trace = tracer_ != nullptr;
          obs::PipelineTracer::Span span;
          if (trace) {
            span.Start(op.submit_time);
            span.FinishStage(obs::PipelineStage::kQueueWait);
          }
          session->annotator.FlushInto(&shard->decode_workspace, &emitted);
          if (trace) span.FinishStage(obs::PipelineStage::kDecode);
          for (const MSemantics& ms : emitted) {
            if (session->sink) session->sink(session->object_id, ms);
          }
          if (trace && !emitted.empty()) {
            span.FinishStage(obs::PipelineStage::kSinkEmit);
          }
          int deltas_fired = 0;
          if (analytics_ != nullptr) {
            for (const MSemantics& ms : emitted) {
              uint64_t seq = 0;
              deltas_fired += analytics_->Ingest(
                  shard->index, session->object_id, ms,
                  storage_ != nullptr ? &seq : nullptr);
              if (storage_ != nullptr) {
                storage_->BufferIngest(shard->index, seq, session->object_id,
                                       ms);
              }
            }
            uint64_t close_seq = 0;
            analytics_->NoteSessionClosed(
                shard->index, session->object_id,
                storage_ != nullptr ? &close_seq : nullptr);
            if (storage_ != nullptr) {
              storage_->BufferClose(shard->index, close_seq,
                                    session->object_id);
            }
            if (trace) {
              span.FinishStage(obs::PipelineStage::kAnalyticsIngest);
            }
          }
          const double latency_s =
              trace ? span.total_seconds()
                    : std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - op.submit_time)
                          .count();
          if (!emitted.empty()) {
            semantics_emitted_total_->Increment(emitted.size());
          }
          if (deltas_fired > 0) {
            MutexLock lock(&shard->stats_mu);
            shard->push_latency.Add(latency_s);
          }
          if (trace) tracer_->Record(span, op.object_id, shard->index);
          shard->sessions.erase(it);
          break;
        }
      }
      NoteOpDone();
    }
    // Drain the parked decodes back-to-back over the shared workspace —
    // this is the cross-session decode batch.  Nothing may straddle the
    // next PopBatch: Drain() counts these ops as pending until here.
    size_t ran = 0;
    for (PendingDecode& pd : pending) {
      if (pd.session != nullptr) {
        complete_pending(&pd);
        ++ran;
      }
    }
    if (ran > 0) decode_batches_total_->Increment();
    pending.clear();
    batch.clear();
    // Batch boundary: push this shard's buffered log records to disk so
    // a crash loses at most the current batch.
    if (storage_ != nullptr) storage_->FlushShard(shard->index);
  }
}

Result<int> AnnotationService::SubscribeAnalytics(
    StandingQuery query, StandingQueryCallback callback) {
  if (analytics_ == nullptr) {
    return Status::FailedPrecondition(
        "analytics are disabled (Options::analytics.enabled)");
  }
  // The engine treats a non-finite trailing window as "no window"; at
  // the service edge that is almost certainly a caller bug, so reject
  // it loudly instead.  A negative value just means the legacy
  // whole-horizon behavior.
  if (std::isnan(query.trailing_seconds) ||
      std::isinf(query.trailing_seconds)) {
    return Status::InvalidArgument(
        "standing query: trailing_seconds must be finite");
  }
  if (query.trailing_seconds < 0.0) query.trailing_seconds = 0.0;
  return analytics_->Subscribe(std::move(query), std::move(callback));
}

Status AnnotationService::UnsubscribeAnalytics(int subscription_id) {
  if (analytics_ == nullptr) {
    return Status::FailedPrecondition(
        "analytics are disabled (Options::analytics.enabled)");
  }
  if (!analytics_->Unsubscribe(subscription_id)) {
    return Status::NotFound("no standing query with id " +
                            std::to_string(subscription_id));
  }
  return Status::OK();
}

AnalyticsSnapshot AnnotationService::AnalyticsStats() const {
  if (analytics_ == nullptr) return AnalyticsSnapshot{};
  AnalyticsSnapshot snapshot = analytics_->Snapshot();
  StreamingHistogram push_latency;
  for (const auto& shard : shards_) {
    MutexLock lock(&shard->stats_mu);
    if (!push_latency.Merge(shard->push_latency)) {
      // A mismatched bucket config silently loses the shard's samples;
      // count it (and log once) instead of ignoring the failure.
      merge_mismatches_total_->Increment();
      std::call_once(push_merge_mismatch_logged_, [] {
        C2MN_LOG_ERROR << "histogram merge skipped: shard push-latency "
                          "histogram has a mismatched bucket config";
      });
    }
  }
  snapshot.push_samples = push_latency.count();
  snapshot.push_p50_ms = push_latency.Quantile(0.5) * 1e3;
  snapshot.push_p99_ms = push_latency.Quantile(0.99) * 1e3;
  snapshot.push_max_ms = push_latency.max() * 1e3;
  return snapshot;
}

ServiceStats AnnotationService::Stats() const {
  ServiceStats stats;
  {
    MutexLock lock(&registry_mu_);
    stats.sessions_open = open_sessions_.size();
    sessions_open_gauge_->Set(static_cast<double>(stats.sessions_open));
  }
  // Thin views over the registry counters.
  stats.sessions_opened = sessions_opened_total_->Value();
  stats.sessions_closed = sessions_closed_total_->Value();
  stats.records_submitted = records_submitted_total_->Value();
  stats.records_processed = records_processed_total_->Value();
  stats.semantics_emitted = semantics_emitted_total_->Value();
  stats.timestamp_violations = timestamp_violations_total_->Value();
  stats.batched_decodes = batched_decodes_total_->Value();
  stats.decode_batches = decode_batches_total_->Value();
  StreamingHistogram latency;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const auto& shard = shards_[i];
    const size_t depth = shard->queue.size();
    stats.queue_depths.push_back(depth);
    queue_depth_gauges_[i]->Set(static_cast<double>(depth));
    MutexLock lock(&shard->stats_mu);
    if (!latency.Merge(shard->latency)) {
      merge_mismatches_total_->Increment();
      std::call_once(latency_merge_mismatch_logged_, [] {
        C2MN_LOG_ERROR << "histogram merge skipped: shard latency "
                          "histogram has a mismatched bucket config";
      });
    }
  }
  stats.histogram_merge_mismatches = merge_mismatches_total_->Value();
  stats.elapsed_seconds = uptime_.ElapsedSeconds();
  stats.records_per_second =
      stats.elapsed_seconds > 0.0
          ? static_cast<double>(stats.records_processed) / stats.elapsed_seconds
          : 0.0;
  stats.latency_samples = latency.count();
  stats.latency_p50_ms = latency.Quantile(0.5) * 1e3;
  stats.latency_p99_ms = latency.Quantile(0.99) * 1e3;
  stats.latency_max_ms = latency.max() * 1e3;
  return stats;
}

}  // namespace c2mn
