#include "core/annotator.h"

#include <algorithm>
#include <cassert>

#include "crf/flat_chain.h"

namespace c2mn {

void C2mnAnnotator::BuildRegionPotentials(const SequenceGraph& g,
                                          DecodeWorkspace* ws) const {
  const int n = g.size();
  // Exact pairwise pass: matching + transition + synchronization cliques,
  // built directly in the flat arena layout (no nested vectors).
  int* domains = ws->arena.Alloc<int>(n);
  for (int i = 0; i < n; ++i) {
    domains[i] = static_cast<int>(g.Candidates(i).size());
  }
  ws->region_pots =
      FlatChainPotentials::Build(n, domains, /*tied_edges=*/false, &ws->arena);
  const FlatChainPotentials& pots = ws->region_pots;
  const double w_st = weights_[kWSpaceTransition];
  const double w_sc = weights_[kWSpatialConsistency];
  const double gamma_st = g.options().gamma_st;
  const double sc_scale = g.options().sc_scale_meters;
  for (int i = 0; i < n; ++i) {
    double* node = pots.NodeRow(i);
    const int da = domains[i];
    for (int a = 0; a < da; ++a) {
      node[a] = weights_[kWSpatialMatch] * g.SpatialMatch(i, a);
    }
    if (i + 1 < n) {
      const int db = domains[i + 1];
      double* edge = pots.EdgeBlock(i);
      // f_st and f_sc share one decayed expected-MIWD per (a, b) pair,
      // and the decay multiplier depends only on the edge — one oracle
      // lookup and one decay per pair instead of two of each
      // (bit-identical to evaluating the two features independently).
      const double decay = features::EdgeTimeDecay(g, i);
      const double delta_e = g.DeltaE(i);
      const CandidateSpan cands_a = g.Candidates(i);
      const CandidateSpan cands_b = g.Candidates(i + 1);
      for (int a = 0; a < da; ++a) {
        const RegionId ra = cands_a[a];
        double* row = edge + static_cast<size_t>(a) * db;
        for (int b = 0; b < db; ++b) {
          const RegionId rb = cands_b[b];
          const double dist =
              ra == rb ? 0.0
                       : features::RegionBaseDistance(g, ra, rb) * decay;
          double s = 0.0;
          if (structure_.use_transition) {
            s += w_st * std::exp(-gamma_st * dist);
          }
          if (structure_.use_sync) {
            s += w_sc * std::exp(-std::fabs(dist - delta_e) / sc_scale);
          }
          row[b] = s;
        }
      }
    }
  }
  // Only the max-marginal decode reads the cached edge exps.
  if (iopts_.use_max_marginals) {
    ws->region_pots.PrecomputeEdgeExp(&ws->arena);
  }
}

void C2mnAnnotator::DecodeRegions(const JointScorer& scorer,
                                  const std::vector<MobilityEvent>& events,
                                  DecodeWorkspace* ws, bool first_round,
                                  std::vector<int>* regions) const {
  const SequenceGraph& g = scorer.graph();
  const int n = g.size();
  const FlatChainPotentials& pots = ws->region_pots;
  auto decode = [&](const double* bias, std::vector<int>* out) {
    if (iopts_.use_max_marginals) {
      FlatMaxMarginalLabels(pots, bias, &ws->chain, out);
    } else {
      FlatViterbi(pots, bias, &ws->chain, out);
    }
  };
  if (first_round) {
    decode(nullptr, regions);
    ws->initial_regions = *regions;
  } else {
    *regions = ws->initial_regions;
  }

  // Segmentation cliques (f_es DISTNUM, f_ss run restructuring) are
  // incorporated by folding their per-candidate contribution into a node
  // *overlay* around the current labeling and re-running the exact chain
  // decode — this keeps the chain's global consistency, which a greedy
  // per-node ICM would destroy.  The overlay touches O(n·d) node entries
  // per sweep; the edge blocks are shared untouched across sweeps, where
  // the old code deep-copied the whole O(n·d²) potential set.
  if (!structure_.use_event_seg && !structure_.use_space_seg) return;
  const bool seg_on = weights_[kWEventSeg0] != 0.0 ||
                      weights_[kWEventSeg1] != 0.0 ||
                      weights_[kWEventSeg2] != 0.0 ||
                      weights_[kWSpaceSeg0] != 0.0 ||
                      weights_[kWSpaceSeg1] != 0.0 ||
                      weights_[kWSpaceSeg2] != 0.0;
  if (!seg_on) return;
  for (int sweep = 0; sweep < iopts_.icm_sweeps; ++sweep) {
    ws->node_bias.assign(pots.node_total, 0.0);
    // Labels are frozen while the overlay is scored (the chain re-decode
    // happens after), so one index build serves the whole sweep.
    scorer.BuildSegIndex(*regions, events, &ws->seg);
    for (int i = 0; i < n; ++i) {
      scorer.RegionSegScores(i, weights_, events, &ws->seg,
                             ws->node_bias.data() + pots.node_off[i]);
    }
    decode(ws->node_bias.data(), &ws->next);
    if (ws->next == *regions) break;
    std::swap(*regions, ws->next);  // Next decode fully overwrites ws->next.
  }
}

void C2mnAnnotator::BuildEventPotentials(const SequenceGraph& g,
                                         DecodeWorkspace* ws) const {
  const int n = g.size();
  const MobilityEvent kDomain[2] = {MobilityEvent::kStay,
                                    MobilityEvent::kPass};
  int* domains = ws->arena.Alloc<int>(n);
  std::fill(domains, domains + n, 2);
  ws->event_pots =
      FlatChainPotentials::Build(n, domains, /*tied_edges=*/false, &ws->arena);
  const FlatChainPotentials& pots = ws->event_pots;
  for (int i = 0; i < n; ++i) {
    double* node = pots.NodeRow(i);
    for (int v = 0; v < 2; ++v) {
      node[v] =
          weights_[kWEventMatch] * features::EventMatching(g, i, kDomain[v]);
    }
    if (i + 1 < n) {
      double* edge = pots.EdgeBlock(i);
      for (int a = 0; a < 2; ++a) {
        for (int b = 0; b < 2; ++b) {
          double s = 0.0;
          if (structure_.use_transition) {
            s += weights_[kWEventTransition] *
                 features::EventTransition(kDomain[a], kDomain[b]);
          }
          if (structure_.use_sync) {
            s += weights_[kWEventConsistency] *
                 features::EventConsistency(g, i, kDomain[a], kDomain[b]);
          }
          edge[static_cast<size_t>(a) * 2 + b] = s;
        }
      }
    }
  }
  // Only the max-marginal decode reads the cached edge exps.
  if (iopts_.use_max_marginals) {
    ws->event_pots.PrecomputeEdgeExp(&ws->arena);
  }
}

void C2mnAnnotator::DecodeEvents(const JointScorer& scorer,
                                 const std::vector<int>& regions,
                                 DecodeWorkspace* ws, bool first_round,
                                 std::vector<MobilityEvent>* events) const {
  const SequenceGraph& g = scorer.graph();
  const int n = g.size();
  const MobilityEvent kDomain[2] = {MobilityEvent::kStay,
                                    MobilityEvent::kPass};
  const FlatChainPotentials& pots = ws->event_pots;
  auto decode = [&](const double* bias, std::vector<int>* out) {
    if (iopts_.use_max_marginals) {
      // row[0] >= row[1] picks stay on ties, exactly what the argmax's
      // smallest-index tie-break does.
      FlatMaxMarginalLabels(pots, bias, &ws->chain, out);
    } else {
      FlatViterbi(pots, bias, &ws->chain, out);
    }
  };
  if (first_round) {
    decode(nullptr, &ws->decoded);
    ws->initial_events = ws->decoded;
  } else {
    ws->decoded = ws->initial_events;
  }
  events->resize(n);
  for (int i = 0; i < n; ++i) (*events)[i] = kDomain[ws->decoded[i]];

  if (!structure_.use_event_seg && !structure_.use_space_seg) return;
  for (int sweep = 0; sweep < iopts_.icm_sweeps; ++sweep) {
    ws->node_bias.assign(pots.node_total, 0.0);
    scorer.BuildSegIndex(regions, *events, &ws->seg);
    for (int i = 0; i < n; ++i) {
      scorer.EventSegScores(i, weights_, regions, *events, &ws->seg,
                            ws->node_bias.data() + pots.node_off[i]);
    }
    decode(ws->node_bias.data(), &ws->next);
    bool changed = false;
    for (int i = 0; i < n; ++i) {
      if ((*events)[i] != kDomain[ws->next[i]]) {
        (*events)[i] = kDomain[ws->next[i]];
        changed = true;
      }
    }
    if (!changed) break;
  }
}

void C2mnAnnotator::Decode(const SequenceGraph& graph,
                           std::vector<int>* regions,
                           std::vector<MobilityEvent>* events) const {
  DecodeWorkspace workspace;
  Decode(graph, &workspace, regions, events);
}

void C2mnAnnotator::Decode(const SequenceGraph& graph, DecodeWorkspace* ws,
                           std::vector<int>* regions,
                           std::vector<MobilityEvent>* events) const {
  assert(static_cast<int>(weights_.size()) == kNumWeights);
  const JointScorer scorer(graph, structure_);
  graph.InitialEventsInto(events);
  // Both chains' potentials depend only on the graph, never on the
  // alternating labels (the coupling enters through the ICM node-bias
  // overlay), so they are built once and shared by every round.
  ws->arena.Reset();
  BuildRegionPotentials(graph, ws);
  BuildEventPotentials(graph, ws);
  const int rounds =
      structure_.IsCoupled() ? iopts_.alternation_rounds : 1;
  ws->last_region_input.clear();
  ws->last_event_input.clear();
  for (int round = 0; round < rounds; ++round) {
    if (ws->last_region_input != *events) {
      ws->last_region_input = *events;
      DecodeRegions(scorer, *events, ws, round == 0, regions);
    }
    if (ws->last_event_input != *regions) {
      ws->last_event_input = *regions;
      DecodeEvents(scorer, *regions, ws, round == 0, events);
    }
  }
}

LabelSequence C2mnAnnotator::Annotate(const PSequence& sequence) const {
  DecodeWorkspace workspace;
  LabelSequence labels;
  AnnotateInto(sequence, &workspace, &labels);
  return labels;
}

void C2mnAnnotator::AnnotateInto(const PSequence& sequence,
                                 DecodeWorkspace* ws,
                                 LabelSequence* labels) const {
  labels->regions.clear();
  labels->events.clear();
  if (sequence.empty()) return;
  ws->graph.Rebuild(world_, sequence, fopts_, nullptr);
  LabelGraphInto(ws->graph, ws, labels);
}

void C2mnAnnotator::LabelGraphInto(const SequenceGraph& graph,
                                   DecodeWorkspace* ws,
                                   LabelSequence* labels) const {
  Decode(graph, ws, &ws->region_idx, &ws->events);
  labels->regions.resize(graph.size());
  labels->events.assign(ws->events.begin(), ws->events.end());
  for (int i = 0; i < graph.size(); ++i) {
    labels->regions[i] = graph.Candidates(i)[ws->region_idx[i]];
  }
}

MSemanticsSequence C2mnAnnotator::AnnotateSemantics(
    const PSequence& sequence) const {
  return MergeLabels(sequence, Annotate(sequence));
}

}  // namespace c2mn
