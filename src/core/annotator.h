#ifndef C2MN_CORE_ANNOTATOR_H_
#define C2MN_CORE_ANNOTATOR_H_

#include <vector>

#include "core/scorer.h"
#include "crf/flat_chain.h"
#include "data/msemantics.h"

namespace c2mn {

/// \brief Reusable decode state: the arena holding the flat chain
/// potentials, the message workspace, the ICM node-bias overlay, and the
/// label scratch vectors.  A workspace warmed up on one sequence makes
/// subsequent decodes of similar length allocation-free, which is what
/// lets a streaming session (OnlineAnnotator / AnnotationService) run at
/// steady state without touching the heap.  One workspace serves one
/// thread; the annotator itself stays immutable and shareable.
struct DecodeWorkspace {
  InferenceArena arena;
  ChainWorkspace chain;
  std::vector<double> node_bias;     ///< ICM overlay (node layout).
  std::vector<int> decoded;          ///< Current labels (indices).
  std::vector<int> next;             ///< Candidate labels of one sweep.
  std::vector<int> region_idx;       ///< Region labels as candidate indices.
  std::vector<MobilityEvent> events; ///< Event labels.
  SegScratch seg;
  /// Arena-backed chain views built once per Decode() and shared by every
  /// alternation round (the potentials depend only on the graph; the
  /// alternating coupling enters via the ICM node-bias overlay).  Valid
  /// until the next arena.Reset().
  FlatChainPotentials region_pots;
  FlatChainPotentials event_pots;
  /// Pairwise-only (no-overlay) decode of each chain, computed in round 1
  /// and replayed by later rounds: the initial decode never depends on
  /// the other chain's labels, so re-running it would reproduce these
  /// exact labels at full marginal-pass cost.
  std::vector<int> initial_regions;
  std::vector<int> initial_events;
  /// Alternation memoization: each half-round is a pure function of the
  /// *other* chain's labels (it restarts from the cached initial decode),
  /// so when its input labels match the previous run verbatim the rerun
  /// would reproduce the labels already in place and is skipped.  Cleared
  /// at the start of every Decode().
  std::vector<MobilityEvent> last_region_input;
  std::vector<int> last_event_input;
  /// Reusable sequence graph for AnnotateInto: rebuilding one warmed-up
  /// graph per decode reuses the candidate/feature/clustering buffers
  /// instead of reallocating them.  Valid only during the AnnotateInto
  /// call (it points into the caller's sequence).
  SequenceGraph graph;
};

/// \brief Decoding hyper-parameters.
struct InferenceOptions {
  /// Alternating (R given E, E given R) decoding rounds.
  int alternation_rounds = 3;
  /// ICM refinement sweeps per decode (layers the segmentation cliques on
  /// top of the exact pairwise chain pass).
  int icm_sweeps = 2;
  /// Decode the pairwise chain by posterior node marginals (forward-
  /// backward) instead of Viterbi.  Max-marginal decoding maximizes the
  /// expected number of correct records, which is what RA / EA measure.
  bool use_max_marginals = true;
};

/// \brief Joint MAP labeling of p-sequences with a trained C2MN.
///
/// Decoding mirrors the model structure: events are initialized by
/// st-DBSCAN exactly like Algorithm 1's first configuration; then the
/// region chain is decoded given events (Viterbi over the matching,
/// transition, and synchronization cliques, followed by ICM sweeps that
/// add the segmentation cliques), the event chain likewise given regions,
/// and the alternation repeats.  With segmentation cliques disabled
/// (CMN), the two decodes are independent, reproducing the baseline's
/// asynchronous two-way labeling.
class C2mnAnnotator {
 public:
  C2mnAnnotator(const World& world, FeatureOptions feature_options,
                C2mnStructure structure, std::vector<double> weights,
                InferenceOptions inference_options)
      : world_(world),
        fopts_(std::move(feature_options)),
        structure_(structure),
        weights_(std::move(weights)),
        iopts_(inference_options) {}

  C2mnAnnotator(const World& world, FeatureOptions feature_options,
                C2mnStructure structure, std::vector<double> weights)
      : C2mnAnnotator(world, std::move(feature_options), structure,
                      std::move(weights), InferenceOptions()) {}

  const std::vector<double>& weights() const { return weights_; }

  /// Labels every record with a region and an event.
  LabelSequence Annotate(const PSequence& sequence) const;

  /// Annotate with an external workspace, writing into `labels` (cleared
  /// first).  Reusing one workspace across calls keeps the decode free of
  /// per-sequence potential/message allocations; this is the entry point
  /// of the streaming hot path.
  void AnnotateInto(const PSequence& sequence, DecodeWorkspace* workspace,
                    LabelSequence* labels) const;

  /// The decode half of AnnotateInto: labels an already built `graph`
  /// (typically workspace->graph, rebuilt by a caller that carries unroll
  /// output across windows) with region ids and events.
  void LabelGraphInto(const SequenceGraph& graph, DecodeWorkspace* workspace,
                      LabelSequence* labels) const;

  /// Labels a pre-built sequence graph (exposed for training internals
  /// and micro-benchmarks); returns candidate *indices* for regions.
  void Decode(const SequenceGraph& graph, std::vector<int>* regions,
              std::vector<MobilityEvent>* events) const;

  /// Decode with an external workspace (see AnnotateInto).
  void Decode(const SequenceGraph& graph, DecodeWorkspace* workspace,
              std::vector<int>* regions,
              std::vector<MobilityEvent>* events) const;

  /// Full label-and-merge annotation: labels then merges into
  /// m-semantics (Fig. 2 of the paper).
  MSemanticsSequence AnnotateSemantics(const PSequence& sequence) const;

 private:
  /// Build the pairwise chain potentials into ws->arena (views stored in
  /// ws->region_pots / ws->event_pots).  Called once per Decode().
  void BuildRegionPotentials(const SequenceGraph& graph,
                             DecodeWorkspace* ws) const;
  void BuildEventPotentials(const SequenceGraph& graph,
                            DecodeWorkspace* ws) const;
  /// One alternation round of each chain.  `first_round` computes and
  /// caches the pairwise-only initial decode; later rounds replay it.
  void DecodeRegions(const JointScorer& scorer,
                     const std::vector<MobilityEvent>& events,
                     DecodeWorkspace* ws, bool first_round,
                     std::vector<int>* regions) const;
  void DecodeEvents(const JointScorer& scorer,
                    const std::vector<int>& regions, DecodeWorkspace* ws,
                    bool first_round,
                    std::vector<MobilityEvent>* events) const;

  const World& world_;
  FeatureOptions fopts_;
  C2mnStructure structure_;
  std::vector<double> weights_;
  InferenceOptions iopts_;
};

}  // namespace c2mn

#endif  // C2MN_CORE_ANNOTATOR_H_
