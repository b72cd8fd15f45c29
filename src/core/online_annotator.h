#ifndef C2MN_CORE_ONLINE_ANNOTATOR_H_
#define C2MN_CORE_ONLINE_ANNOTATOR_H_

#include <optional>
#include <vector>

#include "core/annotator.h"

namespace c2mn {

/// \brief Streaming m-semantics annotation over a live positioning feed.
///
/// Section V-B1 notes that labeling a ~100-record p-sequence takes well
/// under a second, "acceptable even for online services"; this class
/// turns that observation into an API.  Records are pushed one at a time;
/// a sliding window over the most recent records is re-decoded
/// periodically, labels older than `finalize_lag` records are frozen
/// (their Markov blankets can no longer change materially), and completed
/// label runs are emitted as m-semantics.
///
/// The final output over a whole stream equals label-and-merge over the
/// concatenation of the frozen labels, so all Definition 3 invariants
/// hold.
class OnlineAnnotator {
 public:
  struct Options {
    /// Sliding decode window, in records.
    int window_records = 80;
    /// Records at the head of the window whose labels stay provisional.
    int finalize_lag = 10;
    /// Re-decode every this many pushed records (amortizes cost).
    int decode_stride = 5;

    /// Inconsistent settings are repaired rather than rejected, so a
    /// service hosting thousands of annotators never crashes on a bad
    /// config: window_records >= 2, finalize_lag clamped into
    /// [0, window_records - 1], and decode_stride clamped into
    /// [1, window_records - finalize_lag] — a longer stride would grow
    /// the window past window_records between decodes, reallocating on
    /// the hot push path.
    Options Validated() const;
  };

  OnlineAnnotator(const World& world, FeatureOptions feature_options,
                  C2mnStructure structure, std::vector<double> weights,
                  Options options);

  OnlineAnnotator(const World& world, FeatureOptions feature_options,
                  C2mnStructure structure, std::vector<double> weights)
      : OnlineAnnotator(world, std::move(feature_options), structure,
                        std::move(weights), Options()) {}

  /// Feeds one record; returns the m-semantics completed by this push
  /// (usually none, sometimes one).  Timestamps should be non-decreasing;
  /// a record arriving with an earlier timestamp is clamped up to the
  /// previous one (keeping the emitted sequence time-ordered) and counted
  /// in timestamp_violations().
  std::vector<MSemantics> Push(const PositioningRecord& record);

  /// Push writing into a caller-owned vector (cleared first), so a hot
  /// serving loop can recycle one emit buffer across records.  At steady
  /// state a push that does not trigger a window re-decode performs zero
  /// heap allocations through this entry point.
  void PushInto(const PositioningRecord& record,
                std::vector<MSemantics>* emitted);

  /// The two halves of PushInto, split so a multi-session host can batch
  /// the expensive half: PushBuffered() appends the record (cheap, never
  /// decodes) and returns true when a window decode is now due;
  /// CompleteDecode() runs that decode — using `ws` instead of the
  /// internal workspace, so N sessions on one shard can share a single
  /// warm workspace — and emits into `emitted` (cleared first).  No
  /// record may be buffered between the two calls for one annotator.
  /// PushBuffered + CompleteDecode produce exactly PushInto's output.
  bool PushBuffered(const PositioningRecord& record);
  void CompleteDecode(DecodeWorkspace* ws, std::vector<MSemantics>* emitted);

  /// Whether a buffered decode is pending (PushBuffered returned true
  /// and CompleteDecode has not run yet).
  bool decode_due() const { return decode_due_; }

  /// Ends the stream: decodes and finalizes everything still pending and
  /// returns the remaining m-semantics.  The annotator is then ready for
  /// a fresh stream — a subsequent Push() behaves exactly as on a newly
  /// constructed instance (counters excepted).
  std::vector<MSemantics> Flush();

  /// Flush writing into a caller-owned vector (cleared first).
  void FlushInto(std::vector<MSemantics>* emitted);

  /// Flush decoding through a caller-owned workspace (see CompleteDecode).
  void FlushInto(DecodeWorkspace* ws, std::vector<MSemantics>* emitted);

  /// Number of records consumed so far (across Flush() restarts).
  size_t records_consumed() const { return total_records_; }

  /// Number of out-of-order timestamps clamped so far.
  uint64_t timestamp_violations() const { return timestamp_violations_; }

  /// Bytes of arena memory held by the decode workspace (diagnostics).
  size_t workspace_bytes() const { return workspace_.arena.bytes_reserved(); }

  /// Capacity of the sliding window buffer (diagnostics).  Reserved once
  /// at construction; steady-state pushes never grow it.
  size_t window_capacity() const { return window_.capacity(); }

  /// The repaired options actually in effect.
  const Options& options() const { return options_; }

 private:
  /// Decodes the current window through `ws` and freezes all but the
  /// trailing `keep_provisional` records, emitting completed runs.  When
  /// the window is byte-identical to the one the previous decode saw
  /// (no push since — e.g. a flush right after a stride decode), the
  /// decode is skipped and the cached provisional labels are finalized
  /// instead; they carry *more* context than a re-decode of the short
  /// remaining window would.
  void DecodeAndFinalize(int keep_provisional, DecodeWorkspace* ws,
                         std::vector<MSemantics>* emitted);
  /// Folds one finalized (record, labels) into the pending run.
  void Accumulate(const PositioningRecord& record, RegionId region,
                  MobilityEvent event, std::vector<MSemantics>* emitted);

  const World& world_;
  FeatureOptions fopts_;
  C2mnAnnotator annotator_;
  Options options_;

  /// Sliding window of not-yet-finalized records (capacity reserved up
  /// front, so steady-state pushes never reallocate).
  std::vector<PositioningRecord> window_;
  int since_last_decode_ = 0;
  size_t total_records_ = 0;
  uint64_t timestamp_violations_ = 0;
  double last_timestamp_ = -1e300;
  /// Set by PushBuffered when a window decode is due; cleared by
  /// CompleteDecode / FlushInto.
  bool decode_due_ = false;
  /// Whether the window changed since the last decode.  While false, the
  /// cached provisional labels below still describe window_ exactly and
  /// DecodeAndFinalize can finalize from them without decoding.
  bool window_dirty_ = true;
  /// Labels of window_[i] from the last decode (valid iff !window_dirty_
  /// and the sizes match).
  std::vector<RegionId> provisional_regions_;
  std::vector<MobilityEvent> provisional_events_;

  /// The in-progress m-semantics run.
  std::optional<MSemantics> pending_;

  /// Decode state reused across window re-decodes: flat potentials arena,
  /// chain messages, ICM overlay, and the sequence/label scratch.  After
  /// warm-up a window decode performs no potential/message allocations,
  /// and pushes that do not trigger a decode perform none at all.
  mutable DecodeWorkspace workspace_;
  /// Candidates and f_sm of the records kept after the last decode,
  /// reused by the next decode's graph rebuild.  Per session (never in a
  /// workspace, which a shard shares between sessions).
  UnrollCarry carry_;
  PSequence sequence_scratch_;
  LabelSequence labels_scratch_;
};

}  // namespace c2mn

#endif  // C2MN_CORE_ONLINE_ANNOTATOR_H_
