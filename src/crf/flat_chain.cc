#include "crf/flat_chain.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/math_utils.h"
#include "common/simd.h"
#include "crf/chain_model.h"

namespace c2mn {

namespace {

inline double MaxOf(const double* x, size_t n) {
  return simd::RowMax(x, static_cast<int>(n));
}

inline double NodeValue(const FlatChainPotentials& p, const double* bias,
                        size_t flat_index) {
  return bias == nullptr ? p.node[flat_index]
                         : p.node[flat_index] + bias[flat_index];
}

/// cur[b] += node(i, b) [+ bias(i, b)].  The biased path rounds
/// node + bias first (one fused overlay value, exactly like NodeValue)
/// so an overlay decode stays bit-identical to decoding materialized
/// augmented potentials.
inline void AddNodeRow(const FlatChainPotentials& p, const double* bias,
                       size_t off, double* cur, int d) {
  if (bias == nullptr) {
    simd::BiasAdd(cur, p.node + off, d);
    return;
  }
  const double* node = p.node + off;
  const double* b = bias + off;
  for (int i = 0; i < d; ++i) cur[i] += node[i] + b[i];
}

}  // namespace

FlatChainPotentials FlatChainPotentials::Build(int n, const int* domains,
                                               bool tied_edges,
                                               InferenceArena* arena) {
  assert(n > 0);
  FlatChainPotentials p;
  p.n = n;
  p.domains = domains;
  size_t* node_off = arena->Alloc<size_t>(static_cast<size_t>(n) + 1);
  node_off[0] = 0;
  for (int i = 0; i < n; ++i) {
    assert(domains[i] > 0);
    node_off[i + 1] = node_off[i] + static_cast<size_t>(domains[i]);
  }
  p.node_off = node_off;
  p.node_total = node_off[n];
  p.node = arena->Alloc<double>(p.node_total);
  if (n > 1) {
    size_t* edge_off = arena->Alloc<size_t>(static_cast<size_t>(n) - 1);
    if (tied_edges) {
      // One shared block; every position must couple equal-sized domains.
      for (int i = 0; i + 1 < n; ++i) {
        assert(domains[i] == domains[0] && domains[i + 1] == domains[0]);
        edge_off[i] = 0;
      }
      p.edge_total =
          static_cast<size_t>(domains[0]) * static_cast<size_t>(domains[0]);
    } else {
      size_t total = 0;
      for (int i = 0; i + 1 < n; ++i) {
        edge_off[i] = total;
        total += static_cast<size_t>(domains[i]) *
                 static_cast<size_t>(domains[i + 1]);
      }
      p.edge_total = total;
    }
    p.edge_off = edge_off;
    p.edge = arena->Alloc<double>(p.edge_total);
  }
  return p;
}

FlatChainPotentials FlatChainPotentials::FromNested(
    const ChainPotentials& nested, InferenceArena* arena) {
  const int n = static_cast<int>(nested.length());
  int* domains = arena->Alloc<int>(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    domains[i] = static_cast<int>(nested.domain(i));
  }
  FlatChainPotentials p = Build(n, domains, /*tied_edges=*/false, arena);
  for (int i = 0; i < n; ++i) {
    std::copy(nested.node[i].begin(), nested.node[i].end(), p.NodeRow(i));
    if (i + 1 < n) {
      double* block = p.EdgeBlock(i);
      const size_t db = nested.domain(i + 1);
      for (size_t a = 0; a < nested.domain(i); ++a) {
        std::copy(nested.edge[i][a].begin(), nested.edge[i][a].end(),
                  block + a * db);
      }
    }
  }
  return p;
}

void FlatChainPotentials::PrecomputeEdgeExp(InferenceArena* arena) {
  if (n <= 1) return;
  double* em = arena->Alloc<double>(static_cast<size_t>(n) - 1);
  double* ee = arena->Alloc<double>(edge_total);
  for (int i = 0; i + 1 < n; ++i) {
    if (i > 0 && edge_off[i] == edge_off[i - 1]) {
      em[i] = em[i - 1];  // tied edges share one block
      continue;
    }
    const size_t size = static_cast<size_t>(domains[i]) * domains[i + 1];
    em[i] = MaxOf(EdgeBlock(i), size);
    double* block = ee + edge_off[i];
    std::copy(EdgeBlock(i), EdgeBlock(i) + size, block);
    simd::ExpNormalize(block, em[i], static_cast<int>(size));
  }
  edge_max = em;
  edge_exp = ee;
}

void FlatViterbi(const FlatChainPotentials& p, const double* node_bias,
                 ChainWorkspace* ws, std::vector<int>* out) {
  const int n = p.n;
  ws->val_a.resize(p.node_total);
  ws->back.resize(p.node_total);
  double* best = ws->val_a.data();
  int* back = ws->back.data();
  for (int a = 0; a < p.domains[0]; ++a) best[a] = NodeValue(p, node_bias, a);
  for (int i = 1; i < n; ++i) {
    const int da = p.domains[i - 1];
    const int db = p.domains[i];
    const double* prev = best + p.node_off[i - 1];
    double* cur = best + p.node_off[i];
    int* back_cur = back + p.node_off[i];
    const double* edge = p.EdgeBlock(i - 1);
    std::fill(cur, cur + db, -1e300);
    std::fill(back_cur, back_cur + db, 0);
    for (int a = 0; a < da; ++a) {
      simd::MaxPlusStep(prev[a], edge + static_cast<size_t>(a) * db, cur,
                        back_cur, a, db);
    }
    AddNodeRow(p, node_bias, p.node_off[i], cur, db);
  }
  out->resize(n);
  const double* last = best + p.node_off[n - 1];
  (*out)[n - 1] = static_cast<int>(
      std::max_element(last, last + p.domains[n - 1]) - last);
  for (int i = n - 1; i > 0; --i) {
    (*out)[i - 1] = back[p.node_off[i] + (*out)[i]];
  }
}

namespace {

/// Forward pass shared by LogPartition / Marginals / Sample: fills
/// ws->val_a with log-space alpha messages.  One max-shift per position
/// (max incoming message + max edge entry), so exp() arguments are always
/// <= 0 and long low-entropy chains cannot underflow the accumulator of
/// the dominant label.
void ForwardMessages(const FlatChainPotentials& p, const double* node_bias,
                     ChainWorkspace* ws) {
  const int n = p.n;
  ws->val_a.resize(p.node_total);
  double* alpha = ws->val_a.data();
  for (int a = 0; a < p.domains[0]; ++a) alpha[a] = NodeValue(p, node_bias, a);
  for (int i = 1; i < n; ++i) {
    const int da = p.domains[i - 1];
    const int db = p.domains[i];
    const double* prev = alpha + p.node_off[i - 1];
    double* cur = alpha + p.node_off[i];
    const double* edge = p.EdgeBlock(i - 1);
    const double edge_mx = MaxOf(edge, static_cast<size_t>(da) * db);
    const double max_prev = MaxOf(prev, da);
    const double shift = max_prev + edge_mx;
    ws->local.assign(db, 0.0);
    double* acc = ws->local.data();
    for (int a = 0; a < da; ++a) {
      // Every term of row a is at most prev[a] - max_prev (the shift
      // already absorbs the largest edge entry), so rows below the exp
      // flush threshold contribute exactly +0.0 and can be skipped.  On
      // peaked chains — exactly the ones ICM sharpens round over round —
      // most predecessor labels fall out this way.
      if (prev[a] - max_prev < simd::kExpFlushMin) continue;
      simd::ExpAccumulate(prev[a] - shift, edge + static_cast<size_t>(a) * db,
                          acc, db);
    }
    const size_t off = p.node_off[i];
    for (int b = 0; b < db; ++b) {
      cur[b] = shift + std::log(acc[b]) + NodeValue(p, node_bias, off + b);
    }
  }
}

/// Softmax over a contiguous row of unnormalized log-scores.
void SoftmaxRow(double* x, int d) {
  const double m = MaxOf(x, d);
  const double lse = m + std::log(simd::ExpSumRow(m, x, d));
  simd::ExpNormalize(x, lse, d);
}

/// Backward counterpart of ForwardMessages: fills ws->val_b with
/// log-space beta messages (ws->val_a must already hold the alphas, since
/// both share ws->local).
void BackwardMessages(const FlatChainPotentials& p, const double* node_bias,
                      ChainWorkspace* ws) {
  const int n = p.n;
  ws->val_b.resize(p.node_total);
  double* beta = ws->val_b.data();
  std::fill(beta + p.node_off[n - 1], beta + p.node_total, 0.0);
  for (int i = n - 1; i > 0; --i) {
    const int da = p.domains[i - 1];
    const int db = p.domains[i];
    const double* edge = p.EdgeBlock(i - 1);
    double* prev = beta + p.node_off[i - 1];
    const double* cur = beta + p.node_off[i];
    // v[b] = node(i, b) + beta(i, b); one shift covers every (a, b) term.
    ws->local.resize(db);
    double* v = ws->local.data();
    const size_t off = p.node_off[i];
    for (int b = 0; b < db; ++b) v[b] = NodeValue(p, node_bias, off + b) + cur[b];
    const double edge_mx = MaxOf(edge, static_cast<size_t>(da) * db);
    const double shift = MaxOf(v, db) + edge_mx;
    for (int a = 0; a < da; ++a) {
      const double acc =
          simd::SumExpShifted(edge + static_cast<size_t>(a) * db, v, shift, db);
      prev[a] = shift + std::log(acc);
    }
  }
}

}  // namespace

double FlatLogPartition(const FlatChainPotentials& p, const double* node_bias,
                        ChainWorkspace* ws) {
  ForwardMessages(p, node_bias, ws);
  const double* last = ws->val_a.data() + p.node_off[p.n - 1];
  const int d = p.domains[p.n - 1];
  const double m = MaxOf(last, d);
  if (!std::isfinite(m)) return m;
  return m + std::log(simd::ExpSumRow(m, last, d));
}

void FlatMarginals(const FlatChainPotentials& p, const double* node_bias,
                   ChainWorkspace* ws, double* out) {
  const int n = p.n;
  ForwardMessages(p, node_bias, ws);
  BackwardMessages(p, node_bias, ws);
  const double* alpha = ws->val_a.data();
  const double* beta = ws->val_b.data();
  for (int i = 0; i < n; ++i) {
    const size_t off = p.node_off[i];
    const int d = p.domains[i];
    for (int a = 0; a < d; ++a) out[off + a] = alpha[off + a] + beta[off + a];
    SoftmaxRow(out + off, d);
  }
}

void FlatMaxMarginalLabels(const FlatChainPotentials& p,
                           const double* node_bias, ChainWorkspace* ws,
                           std::vector<int>* out) {
  const int n = p.n;
  assert(n == 1 || p.edge_exp != nullptr);
  ws->val_a.resize(p.node_total);
  ws->val_b.resize(p.node_total);
  double* alpha = ws->val_a.data();
  double* beta = ws->val_b.data();
  // Both passes shift by (max incoming message + edge_max), like
  // ForwardMessages/BackwardMessages, but exponentiate the message once
  // (w = exp(msg - max)) and reuse the cached E = exp(edge - edge_max):
  //   forward   alpha(i, b) = shift + log(sum_a w[a] E[a][b]) + node(i, b)
  //   backward  beta(i-1, a) = shift + log(sum_b E[a][b] u[b]),
  // with u[b] = exp(node(i, b) + beta(i, b) - max).
  for (int a = 0; a < p.domains[0]; ++a) alpha[a] = NodeValue(p, node_bias, a);
  for (int i = 1; i < n; ++i) {
    const int da = p.domains[i - 1];
    const int db = p.domains[i];
    const double* prev = alpha + p.node_off[i - 1];
    double* cur = alpha + p.node_off[i];
    const double* e = p.edge_exp + p.edge_off[i - 1];
    ws->local.resize(static_cast<size_t>(da) + db);
    double* w = ws->local.data();
    double* acc = w + da;
    const double max_prev = MaxOf(prev, da);
    std::copy(prev, prev + da, w);
    simd::ExpNormalize(w, max_prev, da);
    std::fill(acc, acc + db, 0.0);
    for (int a = 0; a < da; ++a) {
      // On peaked chains — exactly the ones ICM sharpens round over
      // round — most predecessor labels carry no weight at all.
      if (w[a] == 0.0) continue;
      const double wa = w[a];
      const double* row = e + static_cast<size_t>(a) * db;
      for (int b = 0; b < db; ++b) acc[b] += wa * row[b];
    }
    const double shift = max_prev + p.edge_max[i - 1];
    const size_t off = p.node_off[i];
    for (int b = 0; b < db; ++b) {
      cur[b] = shift + std::log(acc[b]) + NodeValue(p, node_bias, off + b);
    }
  }
  std::fill(beta + p.node_off[n - 1], beta + p.node_total, 0.0);
  for (int i = n - 1; i > 0; --i) {
    const int da = p.domains[i - 1];
    const int db = p.domains[i];
    double* prev = beta + p.node_off[i - 1];
    const double* cur = beta + p.node_off[i];
    const double* e = p.edge_exp + p.edge_off[i - 1];
    ws->local.resize(db);
    double* u = ws->local.data();
    const size_t off = p.node_off[i];
    for (int b = 0; b < db; ++b) u[b] = NodeValue(p, node_bias, off + b) + cur[b];
    const double max_v = MaxOf(u, db);
    simd::ExpNormalize(u, max_v, db);
    const double shift = max_v + p.edge_max[i - 1];
    for (int a = 0; a < da; ++a) {
      const double* row = e + static_cast<size_t>(a) * db;
      double acc = 0.0;
      for (int b = 0; b < db; ++b) acc += row[b] * u[b];
      prev[a] = shift + std::log(acc);
    }
  }
  out->resize(n);
  for (int i = 0; i < n; ++i) {
    const size_t off = p.node_off[i];
    const int d = p.domains[i];
    // The softmax FlatMarginals applies per row is strictly increasing,
    // so the argmax of alpha + beta is the argmax of the marginals; ties
    // resolve to the smallest index either way.
    int best = 0;
    double best_v = alpha[off] + beta[off];
    for (int a = 1; a < d; ++a) {
      const double v = alpha[off + a] + beta[off + a];
      if (v > best_v) {
        best_v = v;
        best = a;
      }
    }
    (*out)[i] = best;
  }
}

void FlatViterbiBatch(const FlatChainTask* tasks, int count,
                      ChainWorkspace* ws) {
  for (int t = 0; t < count; ++t) {
    FlatViterbi(*tasks[t].potentials, tasks[t].node_bias, ws, tasks[t].labels);
  }
}

void FlatMarginalsBatch(const FlatChainTask* tasks, int count,
                        ChainWorkspace* ws) {
  for (int t = 0; t < count; ++t) {
    FlatMarginals(*tasks[t].potentials, tasks[t].node_bias, ws,
                  tasks[t].marginals);
  }
}

double FlatScore(const FlatChainPotentials& p, const double* node_bias,
                 const int* labels) {
  double score = 0.0;
  for (int i = 0; i < p.n; ++i) {
    score += NodeValue(p, node_bias, p.node_off[i] + labels[i]);
    if (i + 1 < p.n) {
      score += p.EdgeBlock(i)[static_cast<size_t>(labels[i]) * p.domains[i + 1] +
                              labels[i + 1]];
    }
  }
  return score;
}

void FlatGibbsSweep(const FlatChainPotentials& p, const double* node_bias,
                    ChainWorkspace* ws, std::vector<int>* state, Rng* rng) {
  const int n = p.n;
  assert(static_cast<int>(state->size()) == n);
  for (int i = 0; i < n; ++i) {
    const int d = p.domains[i];
    ws->local.resize(d);
    const size_t off = p.node_off[i];
    for (int a = 0; a < d; ++a) {
      double s = NodeValue(p, node_bias, off + a);
      if (i > 0) {
        s += p.EdgeBlock(i - 1)[static_cast<size_t>((*state)[i - 1]) * d + a];
      }
      if (i + 1 < n) {
        s += p.EdgeBlock(i)[static_cast<size_t>(a) * p.domains[i + 1] +
                            (*state)[i + 1]];
      }
      ws->local[a] = s;
    }
    SoftmaxInPlace(&ws->local);
    (*state)[i] = static_cast<int>(rng->Categorical(ws->local));
  }
}

void FlatSample(const FlatChainPotentials& p, const double* node_bias,
                ChainWorkspace* ws, Rng* rng, std::vector<int>* out) {
  const int n = p.n;
  ForwardMessages(p, node_bias, ws);
  const double* alpha = ws->val_a.data();
  out->resize(n);
  ws->local.assign(alpha + p.node_off[n - 1],
                   alpha + p.node_off[n - 1] + p.domains[n - 1]);
  SoftmaxInPlace(&ws->local);
  (*out)[n - 1] = static_cast<int>(rng->Categorical(ws->local));
  for (int i = n - 1; i > 0; --i) {
    const int da = p.domains[i - 1];
    const int db = p.domains[i];
    const double* prev = alpha + p.node_off[i - 1];
    const double* edge = p.EdgeBlock(i - 1);
    ws->local.resize(da);
    for (int a = 0; a < da; ++a) {
      ws->local[a] = prev[a] + edge[static_cast<size_t>(a) * db + (*out)[i]];
    }
    SoftmaxInPlace(&ws->local);
    (*out)[i - 1] = static_cast<int>(rng->Categorical(ws->local));
  }
}

}  // namespace c2mn
