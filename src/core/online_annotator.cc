#include "core/online_annotator.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "obs/metrics_registry.h"

namespace c2mn {

namespace {

/// Process-wide decode metrics via function-local statics: registration
/// (the only allocating step) happens on the first decode, after which
/// each decode adds two clock reads and lock-free atomic folds — the
/// steady-state record path stays allocation-free.
obs::Counter* DecodeWindowsTotal() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "c2mn_decode_windows_total",
      "Sliding-window Viterbi decodes run by online annotators");
  return counter;
}

obs::Histogram* DecodeSeconds() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "c2mn_decode_seconds", "Wall time of one sliding-window decode",
          obs::Histogram::Config{1e-7, 1e2, 2.0});
  return histogram;
}

obs::Histogram* GraphRebuildSeconds() {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "c2mn_graph_rebuild_seconds",
          "Wall time of the sequence-graph unroll (candidates, f_sm, "
          "st-DBSCAN) inside one sliding-window decode",
          obs::Histogram::Config{1e-7, 1e2, 2.0});
  return histogram;
}

obs::Counter* GraphRecordsReusedTotal() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "c2mn_graph_records_reused_total",
      "Window records whose candidates and f_sm were carried over from the "
      "session's previous decode instead of recomputed");
  return counter;
}

obs::Counter* DecodeWindowsSkippedTotal() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "c2mn_decode_windows_skipped_total",
      "Window decodes skipped because the window was unchanged since the "
      "last decode (finalized from cached provisional labels)");
  return counter;
}

}  // namespace

OnlineAnnotator::Options OnlineAnnotator::Options::Validated() const {
  Options v = *this;
  v.window_records = std::max(v.window_records, 2);
  v.decode_stride = std::max(v.decode_stride, 1);
  v.finalize_lag = std::clamp(v.finalize_lag, 0, v.window_records - 1);
  // A decode frees window_records - finalize_lag slots, so a stride
  // longer than that would legally grow the window past window_records
  // and reallocate on the hot push path, breaking both the documented
  // window size and the zero-alloc steady state.
  v.decode_stride =
      std::min(v.decode_stride, v.window_records - v.finalize_lag);
  return v;
}

OnlineAnnotator::OnlineAnnotator(const World& world,
                                 FeatureOptions feature_options,
                                 C2mnStructure structure,
                                 std::vector<double> weights, Options options)
    : world_(world),
      fopts_(std::move(feature_options)),
      annotator_(world, fopts_, structure, std::move(weights)),
      options_(options.Validated()) {
  // The true maximum: a decode fires once the window is full AND
  // decode_stride records arrived since the last one, so the window can
  // hold up to max(window_records, finalize_lag + decode_stride)
  // records.  With Validated()'s stride clamp the two terms coincide;
  // the max() keeps the reservation correct even if the invariant is
  // ever relaxed.
  window_.reserve(static_cast<size_t>(
      std::max(options_.window_records,
               options_.finalize_lag + options_.decode_stride)));
}

void OnlineAnnotator::Accumulate(const PositioningRecord& record,
                                 RegionId region, MobilityEvent event,
                                 std::vector<MSemantics>* emitted) {
  if (pending_.has_value() && pending_->region == region &&
      pending_->event == event) {
    pending_->t_end = record.timestamp;
    ++pending_->support;
    return;
  }
  if (pending_.has_value()) emitted->push_back(*pending_);
  MSemantics next;
  next.region = region;
  next.event = event;
  next.t_start = record.timestamp;
  next.t_end = record.timestamp;
  next.support = 1;
  pending_ = next;
}

void OnlineAnnotator::DecodeAndFinalize(int keep_provisional,
                                        DecodeWorkspace* ws,
                                        std::vector<MSemantics>* emitted) {
  if (window_.empty()) return;
  const int n = static_cast<int>(window_.size());
  const int freeze = n - keep_provisional;
  if (!window_dirty_ &&
      static_cast<int>(provisional_regions_.size()) == n) {
    // Nothing was pushed since the last decode, so the cached labels are
    // exactly what re-decoding would have to improve on — and they came
    // from a wider window than the one a re-decode would see now.
    DecodeWindowsSkippedTotal()->Increment();
    carry_.Clear();  // Indexed by window position, which shifts below.
    if (freeze <= 0) return;
    for (int i = 0; i < freeze; ++i) {
      Accumulate(window_[i], provisional_regions_[i], provisional_events_[i],
                 emitted);
    }
    window_.erase(window_.begin(), window_.begin() + freeze);
    provisional_regions_.erase(provisional_regions_.begin(),
                               provisional_regions_.begin() + freeze);
    provisional_events_.erase(provisional_events_.begin(),
                              provisional_events_.begin() + freeze);
    return;
  }
  using Clock = std::chrono::steady_clock;
  const auto decode_start = Clock::now();
  sequence_scratch_.records.assign(window_.begin(), window_.end());
  ws->graph.Rebuild(world_, sequence_scratch_, fopts_, nullptr, &carry_);
  const auto rebuilt = Clock::now();
  annotator_.LabelGraphInto(ws->graph, ws, &labels_scratch_);
  DecodeWindowsTotal()->Increment();
  GraphRecordsReusedTotal()->Increment(
      static_cast<uint64_t>(ws->graph.records_reused()));
  GraphRebuildSeconds()->Observe(
      std::chrono::duration<double>(rebuilt - decode_start).count());
  DecodeSeconds()->Observe(
      std::chrono::duration<double>(Clock::now() - decode_start).count());
  const int first_kept = freeze > 0 ? freeze : 0;
  // Carry the unroll of the records that stay in the window into the
  // next decode, which sees them again at positions 0, 1, ...
  carry_.Keep(ws->graph, first_kept);
  // Cache the labels of the records that stay in the window, so an
  // immediately following decode of the unchanged window (a flush right
  // after a stride decode) can skip the annotator entirely.
  provisional_regions_.assign(labels_scratch_.regions.begin() + first_kept,
                              labels_scratch_.regions.end());
  provisional_events_.assign(labels_scratch_.events.begin() + first_kept,
                             labels_scratch_.events.end());
  window_dirty_ = false;
  if (freeze <= 0) return;
  for (int i = 0; i < freeze; ++i) {
    Accumulate(window_[i], labels_scratch_.regions[i],
               labels_scratch_.events[i], emitted);
  }
  window_.erase(window_.begin(), window_.begin() + freeze);
}

std::vector<MSemantics> OnlineAnnotator::Push(
    const PositioningRecord& record) {
  std::vector<MSemantics> emitted;
  PushInto(record, &emitted);
  return emitted;
}

void OnlineAnnotator::PushInto(const PositioningRecord& record,
                               std::vector<MSemantics>* emitted) {
  if (PushBuffered(record)) {
    CompleteDecode(&workspace_, emitted);
  } else {
    emitted->clear();
  }
}

bool OnlineAnnotator::PushBuffered(const PositioningRecord& record) {
  PositioningRecord accepted = record;
  if (accepted.timestamp < last_timestamp_) {
    accepted.timestamp = last_timestamp_;
    ++timestamp_violations_;
  }
  last_timestamp_ = accepted.timestamp;
  window_.push_back(accepted);
  window_dirty_ = true;
  ++total_records_;
  ++since_last_decode_;

  const bool window_full =
      static_cast<int>(window_.size()) >= options_.window_records;
  if (window_full && since_last_decode_ >= options_.decode_stride) {
    decode_due_ = true;
  }
  return decode_due_;
}

void OnlineAnnotator::CompleteDecode(DecodeWorkspace* ws,
                                     std::vector<MSemantics>* emitted) {
  emitted->clear();
  if (!decode_due_) return;
  decode_due_ = false;
  DecodeAndFinalize(options_.finalize_lag, ws, emitted);
  since_last_decode_ = 0;
}

std::vector<MSemantics> OnlineAnnotator::Flush() {
  std::vector<MSemantics> emitted;
  FlushInto(&emitted);
  return emitted;
}

void OnlineAnnotator::FlushInto(std::vector<MSemantics>* emitted) {
  FlushInto(&workspace_, emitted);
}

void OnlineAnnotator::FlushInto(DecodeWorkspace* ws,
                                std::vector<MSemantics>* emitted) {
  emitted->clear();
  decode_due_ = false;
  DecodeAndFinalize(0, ws, emitted);
  if (pending_.has_value()) {
    emitted->push_back(*pending_);
    pending_.reset();
  }
  last_timestamp_ = -1e300;
  since_last_decode_ = 0;
  window_dirty_ = true;
  provisional_regions_.clear();
  provisional_events_.clear();
  carry_.Clear();
}

}  // namespace c2mn
