#include "crf/flat_chain.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_utils.h"
#include "common/rng.h"
#include "common/simd.h"
#include "crf/chain_model.h"
#include "crf/hmm.h"

namespace c2mn {
namespace {

// ---------------------------------------------------------------------------
// Reference implementations over the legacy nested layout.  These are the
// pre-flat ChainModel algorithms, kept verbatim as the ground truth the
// arena-backed kernels are checked against.
// ---------------------------------------------------------------------------

std::vector<int> NestedViterbi(const ChainPotentials& pots) {
  const size_t n = pots.length();
  std::vector<std::vector<double>> best(n);
  std::vector<std::vector<int>> back(n);
  best[0] = pots.node[0];
  back[0].assign(pots.domain(0), -1);
  for (size_t i = 1; i < n; ++i) {
    const size_t da = pots.domain(i - 1);
    const size_t db = pots.domain(i);
    best[i].assign(db, -1e300);
    back[i].assign(db, 0);
    for (size_t b = 0; b < db; ++b) {
      for (size_t a = 0; a < da; ++a) {
        const double score = best[i - 1][a] + pots.edge[i - 1][a][b];
        if (score > best[i][b]) {
          best[i][b] = score;
          back[i][b] = static_cast<int>(a);
        }
      }
      best[i][b] += pots.node[i][b];
    }
  }
  std::vector<int> labels(n);
  labels[n - 1] = static_cast<int>(
      std::max_element(best[n - 1].begin(), best[n - 1].end()) -
      best[n - 1].begin());
  for (size_t i = n - 1; i > 0; --i) labels[i - 1] = back[i][labels[i]];
  return labels;
}

double NestedLogPartition(const ChainPotentials& pots) {
  const size_t n = pots.length();
  std::vector<double> alpha = pots.node[0];
  for (size_t i = 1; i < n; ++i) {
    const size_t da = pots.domain(i - 1);
    const size_t db = pots.domain(i);
    std::vector<double> next(db);
    std::vector<double> terms(da);
    for (size_t b = 0; b < db; ++b) {
      for (size_t a = 0; a < da; ++a) {
        terms[a] = alpha[a] + pots.edge[i - 1][a][b];
      }
      next[b] = LogSumExp(terms) + pots.node[i][b];
    }
    alpha = std::move(next);
  }
  return LogSumExp(alpha);
}

std::vector<std::vector<double>> NestedMarginals(const ChainPotentials& pots) {
  const size_t n = pots.length();
  std::vector<std::vector<double>> alpha(n);
  alpha[0] = pots.node[0];
  for (size_t i = 1; i < n; ++i) {
    const size_t da = pots.domain(i - 1);
    const size_t db = pots.domain(i);
    alpha[i].assign(db, 0.0);
    std::vector<double> terms(da);
    for (size_t b = 0; b < db; ++b) {
      for (size_t a = 0; a < da; ++a) {
        terms[a] = alpha[i - 1][a] + pots.edge[i - 1][a][b];
      }
      alpha[i][b] = LogSumExp(terms) + pots.node[i][b];
    }
  }
  std::vector<std::vector<double>> beta(n);
  beta[n - 1].assign(pots.domain(n - 1), 0.0);
  for (size_t i = n - 1; i > 0; --i) {
    const size_t da = pots.domain(i - 1);
    const size_t db = pots.domain(i);
    beta[i - 1].assign(da, 0.0);
    std::vector<double> terms(db);
    for (size_t a = 0; a < da; ++a) {
      for (size_t b = 0; b < db; ++b) {
        terms[b] = pots.edge[i - 1][a][b] + pots.node[i][b] + beta[i][b];
      }
      beta[i - 1][a] = LogSumExp(terms);
    }
  }
  std::vector<std::vector<double>> marginals(n);
  for (size_t i = 0; i < n; ++i) {
    marginals[i].resize(pots.domain(i));
    for (size_t a = 0; a < pots.domain(i); ++a) {
      marginals[i][a] = alpha[i][a] + beta[i][a];
    }
    SoftmaxInPlace(&marginals[i]);
  }
  return marginals;
}

/// Random chain with per-position domain sizes in [min_domain, max_domain].
ChainPotentials RandomChain(Rng* rng, int len, int min_domain,
                            int max_domain) {
  ChainPotentials pots;
  pots.node.resize(len);
  pots.edge.resize(len - 1);
  for (int i = 0; i < len; ++i) {
    const int d = min_domain + static_cast<int>(rng->UniformInt(
                                   uint64_t(max_domain - min_domain + 1)));
    pots.node[i].resize(d);
    for (double& v : pots.node[i]) v = rng->Uniform(-2, 2);
  }
  for (int i = 0; i + 1 < len; ++i) {
    pots.edge[i].assign(pots.node[i].size(),
                        std::vector<double>(pots.node[i + 1].size(), 0.0));
    for (auto& row : pots.edge[i]) {
      for (double& v : row) v = rng->Uniform(-2, 2);
    }
  }
  return pots;
}

void ExpectEquivalent(const ChainPotentials& pots) {
  const ChainModel model(pots);
  EXPECT_EQ(model.Viterbi(), NestedViterbi(pots));
  EXPECT_NEAR(model.LogPartition(), NestedLogPartition(pots), 1e-9);
  const auto flat_marg = model.Marginals();
  const auto nested_marg = NestedMarginals(pots);
  ASSERT_EQ(flat_marg.size(), nested_marg.size());
  for (size_t i = 0; i < flat_marg.size(); ++i) {
    ASSERT_EQ(flat_marg[i].size(), nested_marg[i].size());
    for (size_t a = 0; a < flat_marg[i].size(); ++a) {
      EXPECT_NEAR(flat_marg[i][a], nested_marg[i][a], 1e-9)
          << "position " << i << " label " << a;
    }
  }
}

/// The argmax of every log-space FlatMarginals row (smallest index on
/// ties): the labels FlatMaxMarginalLabels must reproduce.
std::vector<int> MarginalsArgmax(const FlatChainPotentials& flat,
                                 const double* bias, ChainWorkspace* ws) {
  std::vector<double> marginals(flat.node_total);
  FlatMarginals(flat, bias, ws, marginals.data());
  std::vector<int> labels(flat.n);
  for (int i = 0; i < flat.n; ++i) {
    const double* row = marginals.data() + flat.node_off[i];
    int argmax = 0;
    for (int a = 1; a < flat.domain(i); ++a) {
      if (row[a] > row[argmax]) argmax = a;
    }
    labels[i] = argmax;
  }
  return labels;
}

class FlatVsNested : public ::testing::TestWithParam<int> {};

TEST_P(FlatVsNested, RandomChainsMatchLegacyImplementation) {
  Rng rng(GetParam() * 977 + 21);
  const int len = 1 + static_cast<int>(rng.UniformInt(uint64_t{12}));
  const ChainPotentials pots = RandomChain(&rng, len, 1, 5);
  ExpectEquivalent(pots);
}

INSTANTIATE_TEST_SUITE_P(RandomChains, FlatVsNested, ::testing::Range(0, 30));

TEST(FlatChainTest, LengthOneChain) {
  ChainPotentials pots;
  pots.node = {{0.3, -1.2, 0.9}};
  ExpectEquivalent(pots);
  const ChainModel model(pots);
  EXPECT_EQ(model.Viterbi(), std::vector<int>{2});
}

TEST(FlatChainTest, AllDomainOneChain) {
  Rng rng(99);
  const ChainPotentials pots = RandomChain(&rng, 7, 1, 1);
  ExpectEquivalent(pots);
  const ChainModel model(pots);
  // Marginals of a fully determined chain are exactly 1.
  for (const auto& row : model.Marginals()) {
    ASSERT_EQ(row.size(), 1u);
    EXPECT_NEAR(row[0], 1.0, 1e-12);
  }
}

TEST(FlatChainTest, MixedDomainOnePositions) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    ChainPotentials pots = RandomChain(&rng, 8, 1, 4);
    // Force some interior positions to domain 1.
    for (size_t i = 1; i < pots.length(); i += 3) {
      pots.node[i].resize(1);
      for (auto& row : pots.edge[i - 1]) row.resize(1);
      if (i < pots.edge.size()) {
        pots.edge[i].assign(1, std::vector<double>(pots.domain(i + 1), 0.5));
      }
    }
    ASSERT_TRUE(pots.Validate());
    ExpectEquivalent(pots);
  }
}

TEST(FlatChainTest, NodeBiasOverlayEqualsMaterializedAugmentation) {
  Rng rng(41);
  for (int trial = 0; trial < 10; ++trial) {
    const int len = 2 + static_cast<int>(rng.UniformInt(uint64_t{8}));
    const ChainPotentials pots = RandomChain(&rng, len, 1, 4);
    // Augment nested node potentials explicitly...
    ChainPotentials augmented = pots;
    std::vector<double> bias;
    for (size_t i = 0; i < pots.length(); ++i) {
      for (size_t a = 0; a < pots.domain(i); ++a) {
        const double delta = rng.Uniform(-1, 1);
        bias.push_back(delta);
        augmented.node[i][a] += delta;
      }
    }
    // ...and compare against the zero-copy overlay on the original chain.
    InferenceArena arena;
    const FlatChainPotentials flat =
        FlatChainPotentials::FromNested(pots, &arena);
    ChainWorkspace ws;
    std::vector<int> overlay_labels;
    FlatViterbi(flat, bias.data(), &ws, &overlay_labels);
    EXPECT_EQ(overlay_labels, NestedViterbi(augmented));

    std::vector<double> overlay_marg(flat.node_total);
    FlatMarginals(flat, bias.data(), &ws, overlay_marg.data());
    const auto nested_marg = NestedMarginals(augmented);
    for (int i = 0; i < flat.n; ++i) {
      for (int a = 0; a < flat.domains[i]; ++a) {
        EXPECT_NEAR(overlay_marg[flat.node_off[i] + a], nested_marg[i][a],
                    1e-9);
      }
    }
    EXPECT_NEAR(FlatLogPartition(flat, bias.data(), &ws),
                NestedLogPartition(augmented), 1e-9);
  }
}

TEST(FlatChainTest, TiedEdgesMatchPerPositionEdges) {
  // The HMM layout: every position shares one transition block.
  Rng rng(17);
  const int n = 9;
  const int d = 4;
  std::vector<std::vector<double>> shared(d, std::vector<double>(d));
  for (auto& row : shared) {
    for (double& v : row) v = rng.Uniform(-2, 2);
  }
  ChainPotentials nested;
  nested.node.resize(n);
  nested.edge.resize(n - 1);
  for (int i = 0; i < n; ++i) {
    nested.node[i].resize(d);
    for (double& v : nested.node[i]) v = rng.Uniform(-2, 2);
    if (i + 1 < n) nested.edge[i] = shared;
  }

  InferenceArena arena;
  int* domains = arena.Alloc<int>(n);
  std::fill(domains, domains + n, d);
  FlatChainPotentials tied =
      FlatChainPotentials::Build(n, domains, /*tied_edges=*/true, &arena);
  for (int i = 0; i < n; ++i) {
    std::copy(nested.node[i].begin(), nested.node[i].end(), tied.NodeRow(i));
  }
  for (int a = 0; a < d; ++a) {
    std::copy(shared[a].begin(), shared[a].end(),
              tied.EdgeBlock(0) + static_cast<size_t>(a) * d);
  }
  ChainWorkspace ws;
  std::vector<int> labels;
  FlatViterbi(tied, nullptr, &ws, &labels);
  EXPECT_EQ(labels, NestedViterbi(nested));
  EXPECT_NEAR(FlatLogPartition(tied, nullptr, &ws),
              NestedLogPartition(nested), 1e-9);
  tied.PrecomputeEdgeExp(&arena);
  FlatMaxMarginalLabels(tied, nullptr, &ws, &labels);
  EXPECT_EQ(labels, MarginalsArgmax(tied, nullptr, &ws));
}

TEST(FlatChainTest, HmmDecodeMatchesNestedReference) {
  Rng rng(23);
  Hmm hmm(3, 5);
  for (int seq = 0; seq < 6; ++seq) {
    std::vector<int> states, obs;
    for (int t = 0; t < 20; ++t) {
      states.push_back(static_cast<int>(rng.UniformInt(uint64_t{3})));
      obs.push_back(static_cast<int>(rng.UniformInt(uint64_t{5})));
    }
    hmm.AddSequence(states, obs);
  }
  hmm.Fit();
  std::vector<int> obs;
  for (int t = 0; t < 40; ++t) {
    obs.push_back(static_cast<int>(rng.UniformInt(uint64_t{5})));
  }
  // Reference: materialize the legacy nested potentials with one copy of
  // the transition matrix per edge.
  ChainPotentials pots;
  pots.node.resize(obs.size());
  pots.edge.resize(obs.size() - 1);
  for (size_t i = 0; i < obs.size(); ++i) {
    pots.node[i].resize(3);
    for (int s = 0; s < 3; ++s) {
      pots.node[i][s] =
          hmm.LogEmission(s, obs[i]) + (i == 0 ? hmm.LogInitial(s) : 0.0);
    }
    if (i + 1 < obs.size()) {
      pots.edge[i].assign(3, std::vector<double>(3));
      for (int a = 0; a < 3; ++a) {
        for (int b = 0; b < 3; ++b) pots.edge[i][a][b] = hmm.LogTransition(a, b);
      }
    }
  }
  EXPECT_EQ(hmm.Decode(obs), NestedViterbi(pots));
}

// Regression for the backward-message underflow guard: a 2000-step chain
// whose potentials overwhelmingly prefer one label.  Unnormalized
// messages reach magnitudes of thousands in log-space; the per-position
// max-shift must keep every marginal finite and normalized.
TEST(FlatChainTest, LongLowEntropyChainMarginalsStayNormalized) {
  const int n = 2000;
  const int d = 3;
  ChainPotentials pots;
  pots.node.resize(n);
  pots.edge.resize(n - 1);
  for (int i = 0; i < n; ++i) {
    pots.node[i] = {8.0, -4.0, -4.0};  // Strong preference for label 0.
    if (i + 1 < n) {
      pots.edge[i].assign(d, std::vector<double>(d, -2.0));
      for (int a = 0; a < d; ++a) pots.edge[i][a][a] = 3.0;  // Sticky.
    }
  }
  const ChainModel model(pots);
  const auto marginals = model.Marginals();
  ASSERT_EQ(static_cast<int>(marginals.size()), n);
  for (int i = 0; i < n; ++i) {
    double sum = 0.0;
    for (double m : marginals[i]) {
      EXPECT_TRUE(std::isfinite(m)) << "non-finite marginal at " << i;
      EXPECT_GE(m, 0.0);
      sum += m;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9) << "row " << i;
  }
  // The dominant label holds the posterior everywhere.
  EXPECT_GT(marginals[n / 2][0], 0.999);
  EXPECT_GT(marginals[0][0], 0.999);
  EXPECT_GT(marginals[n - 1][0], 0.999);
  // LogPartition is finite and the Viterbi path is the dominant label.
  EXPECT_TRUE(std::isfinite(model.LogPartition()));
  EXPECT_EQ(model.Viterbi(), std::vector<int>(n, 0));
}

TEST(FlatChainTest, ArenaReuseDoesNotGrowAfterWarmup) {
  InferenceArena arena;
  ChainWorkspace ws;
  Rng rng(3);
  const ChainPotentials pots = RandomChain(&rng, 40, 2, 5);
  size_t warm_bytes = 0;
  for (int round = 0; round < 5; ++round) {
    arena.Reset();
    const FlatChainPotentials flat =
        FlatChainPotentials::FromNested(pots, &arena);
    std::vector<int> labels;
    FlatViterbi(flat, nullptr, &ws, &labels);
    if (round == 0) {
      warm_bytes = arena.bytes_reserved();
    } else {
      EXPECT_EQ(arena.bytes_reserved(), warm_bytes);
    }
  }
}

// ---------------------------------------------------------------------------
// SIMD tier equivalence.  Every kernel dispatches through simd::ActiveLevel;
// these tests force each tier the host supports in turn and require labels
// identical to (and quantities within 1e-9 of) the scalar tier, across the
// shapes that stress lane handling: domain 1, odd domains, the AVX2 lane
// width ±1, tie-heavy potentials, and ±inf node biases.
// ---------------------------------------------------------------------------

/// Restores the dispatch tier active at construction (tests force tiers).
class ScopedSimdLevel {
 public:
  ScopedSimdLevel() : saved_(simd::ActiveLevel()) {}
  ~ScopedSimdLevel() { simd::ForceLevel(saved_); }

 private:
  simd::Level saved_;
};

std::vector<simd::Level> SupportedLevels() {
  ScopedSimdLevel restore;
  std::vector<simd::Level> levels;
  for (simd::Level level : {simd::Level::kScalar, simd::Level::kAVX2}) {
    if (simd::ForceLevel(level)) levels.push_back(level);
  }
  return levels;
}

/// Everything the flat kernels compute for one chain + bias.
struct KernelRun {
  std::vector<int> viterbi;
  std::vector<int> max_marginal;
  double log_partition = 0.0;
  std::vector<double> marginals;
};

KernelRun RunKernels(const ChainPotentials& pots, const double* bias,
                     bool marginal_safe) {
  InferenceArena arena;
  ChainWorkspace ws;
  FlatChainPotentials flat = FlatChainPotentials::FromNested(pots, &arena);
  flat.PrecomputeEdgeExp(&arena);
  KernelRun run;
  FlatViterbi(flat, bias, &ws, &run.viterbi);
  if (marginal_safe) {
    FlatMaxMarginalLabels(flat, bias, &ws, &run.max_marginal);
    run.log_partition = FlatLogPartition(flat, bias, &ws);
    run.marginals.resize(flat.node_total);
    FlatMarginals(flat, bias, &ws, run.marginals.data());
  }
  return run;
}

void ExpectTiersAgree(const ChainPotentials& pots, const double* bias,
                      bool marginal_safe) {
  ScopedSimdLevel restore;
  ASSERT_TRUE(simd::ForceLevel(simd::Level::kScalar));
  const KernelRun scalar = RunKernels(pots, bias, marginal_safe);
  for (simd::Level level : SupportedLevels()) {
    ASSERT_TRUE(simd::ForceLevel(level));
    const KernelRun tier = RunKernels(pots, bias, marginal_safe);
    EXPECT_EQ(tier.viterbi, scalar.viterbi) << simd::LevelName(level);
    if (!marginal_safe) continue;
    EXPECT_EQ(tier.max_marginal, scalar.max_marginal)
        << simd::LevelName(level);
    EXPECT_NEAR(tier.log_partition, scalar.log_partition, 1e-9)
        << simd::LevelName(level);
    ASSERT_EQ(tier.marginals.size(), scalar.marginals.size());
    for (size_t i = 0; i < scalar.marginals.size(); ++i) {
      EXPECT_NEAR(tier.marginals[i], scalar.marginals[i], 1e-9)
          << simd::LevelName(level) << " entry " << i;
    }
  }
}

TEST(FlatChainSimdTest, TiersAgreeAcrossAwkwardDomainSizes) {
  // Domains 1..9 hit 1, odd sizes, and the AVX2 lane width (4) ±1.
  Rng rng(404);
  for (int rep = 0; rep < 12; ++rep) {
    const int len = 1 + static_cast<int>(rng.UniformInt(uint64_t{14}));
    const ChainPotentials pots = RandomChain(&rng, len, 1, 9);
    ExpectTiersAgree(pots, nullptr, /*marginal_safe=*/true);
  }
}

TEST(FlatChainSimdTest, TiersAgreeOnTieHeavyPotentials) {
  // Quantized potentials make equal-score paths the common case, so the
  // smallest-index tie-break must be implemented identically in every
  // lane arrangement.
  Rng rng(405);
  for (int rep = 0; rep < 12; ++rep) {
    const int len = 2 + static_cast<int>(rng.UniformInt(uint64_t{10}));
    ChainPotentials pots = RandomChain(&rng, len, 1, 7);
    for (auto& row : pots.node) {
      for (double& v : row) v = std::floor(v + 0.5);  // {-2..2} ties.
    }
    for (auto& block : pots.edge) {
      for (auto& row : block) {
        for (double& v : row) v = 0.0;  // Every transition ties.
      }
    }
    ExpectTiersAgree(pots, nullptr, /*marginal_safe=*/true);
  }
}

TEST(FlatChainSimdTest, TiersAgreeWithInfiniteNodeBias) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(406);
  for (int rep = 0; rep < 8; ++rep) {
    const int len = 3 + static_cast<int>(rng.UniformInt(uint64_t{8}));
    const ChainPotentials pots = RandomChain(&rng, len, 2, 6);
    size_t node_total = 0;
    for (const auto& row : pots.node) node_total += row.size();
    // -inf forbids labels (at most domain-1 per position, so a path
    // always exists); exercised on every kernel including marginals.
    std::vector<double> bias(node_total, 0.0);
    size_t off = 0;
    for (const auto& row : pots.node) {
      const size_t d = row.size();
      const size_t forbidden = rng.UniformInt(uint64_t{d});  // d = none.
      for (size_t a = 0; a < d; ++a) {
        if (a == forbidden && d > 1) bias[off + a] = -kInf;
      }
      off += d;
    }
    ExpectTiersAgree(pots, bias.data(), /*marginal_safe=*/true);
    // A forbidden label must never decode.
    InferenceArena arena;
    ChainWorkspace ws;
    const FlatChainPotentials flat =
        FlatChainPotentials::FromNested(pots, &arena);
    std::vector<int> labels;
    FlatViterbi(flat, bias.data(), &ws, &labels);
    for (int i = 0; i < flat.n; ++i) {
      EXPECT_NE(bias[flat.node_off[i] + labels[i]], -kInf) << "position " << i;
    }
    // +inf pins the Viterbi path (max-plus never subtracts, so no
    // inf - inf); the log-sum-exp kernels are not required to accept it.
    std::vector<double> pin(node_total, 0.0);
    const int pin_pos = static_cast<int>(rng.UniformInt(uint64_t(len)));
    const int pin_label = static_cast<int>(
        rng.UniformInt(uint64_t(pots.node[pin_pos].size())));
    pin[flat.node_off[pin_pos] + pin_label] = kInf;
    ExpectTiersAgree(pots, pin.data(), /*marginal_safe=*/false);
    FlatViterbi(flat, pin.data(), &ws, &labels);
    EXPECT_EQ(labels[pin_pos], pin_label);
  }
}

TEST(FlatChainSimdTest, ForcedScalarFallbackStaysExercised) {
  // The dispatch override must reach the scalar tier on any host — the
  // same tier C2MN_SIMD=scalar pins for CI's sanitizer reruns — and the
  // scalar kernels must reproduce the legacy nested reference exactly.
  ScopedSimdLevel restore;
  ASSERT_TRUE(simd::ForceLevel(simd::Level::kScalar));
  EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  Rng rng(407);
  const ChainPotentials pots = RandomChain(&rng, 9, 1, 5);
  ExpectEquivalent(pots);
}

/// Random node-bias overlay of `scale` magnitude, laid out like the nodes.
std::vector<double> RandomBias(Rng* rng, const ChainPotentials& pots,
                               double scale) {
  std::vector<double> bias;
  for (const auto& row : pots.node) {
    for (size_t a = 0; a < row.size(); ++a) {
      bias.push_back(scale * rng->Uniform(-1, 1));
    }
  }
  return bias;
}

/// Runs FlatMaxMarginalLabels on `pots` (with and without a random overlay)
/// under every supported tier and requires the marginals' argmax.
void ExpectMaxMarginalsMatchArgmax(const ChainPotentials& pots,
                                   const std::vector<double>& bias) {
  ScopedSimdLevel restore;
  for (simd::Level level : SupportedLevels()) {
    ASSERT_TRUE(simd::ForceLevel(level));
    InferenceArena arena;
    ChainWorkspace ws;
    FlatChainPotentials flat = FlatChainPotentials::FromNested(pots, &arena);
    flat.PrecomputeEdgeExp(&arena);
    for (const double* b : {static_cast<const double*>(nullptr), bias.data()}) {
      std::vector<int> fast;
      FlatMaxMarginalLabels(flat, b, &ws, &fast);
      EXPECT_EQ(fast, MarginalsArgmax(flat, b, &ws))
          << simd::LevelName(level) << (b == nullptr ? "" : " with overlay");
    }
  }
}

TEST(FlatChainSimdTest, MaxMarginalLabelsMatchMarginalsArgmax) {
  Rng rng(408);
  for (int rep = 0; rep < 40; ++rep) {
    const int len = 1 + static_cast<int>(rng.UniformInt(uint64_t{12}));
    const ChainPotentials pots = RandomChain(&rng, len, 1, 9);
    ExpectMaxMarginalsMatchArgmax(pots, RandomBias(&rng, pots, 1.0));
  }
}

TEST(FlatChainSimdTest, MaxMarginalLabelsOnPeakedChains) {
  // Node spreads of hundreds push whole predecessor rows below the exp
  // flush threshold (the forward pass skips them), and per-block edge
  // offsets of up to +-1000 make exp(edge) overflow or vanish unless each
  // block is shifted by its own maximum.  The within-block edge spread
  // stays below the flush range, as it must for the log-space reference.
  Rng rng(411);
  bool flushed_row_seen = false;
  for (int rep = 0; rep < 30; ++rep) {
    const int len = 2 + static_cast<int>(rng.UniformInt(uint64_t{11}));
    ChainPotentials pots = RandomChain(&rng, len, 1, 9);
    for (auto& row : pots.node) {
      for (double& v : row) v *= 200.0;
    }
    for (auto& block : pots.edge) {
      const double offset = rng.Uniform(-1000, 1000);
      for (auto& row : block) {
        for (double& v : row) v = 50.0 * v + offset;
      }
    }
    ExpectMaxMarginalsMatchArgmax(pots, RandomBias(&rng, pots, 300.0));

    InferenceArena arena;
    ChainWorkspace ws;
    const FlatChainPotentials flat =
        FlatChainPotentials::FromNested(pots, &arena);
    std::vector<double> marginals(flat.node_total);
    FlatMarginals(flat, nullptr, &ws, marginals.data());
    for (int i = 0; i + 1 < flat.n; ++i) {
      const double* alpha = ws.val_a.data() + flat.node_off[i];
      const double top = *std::max_element(alpha, alpha + flat.domain(i));
      for (int a = 0; a < flat.domain(i); ++a) {
        flushed_row_seen |= alpha[a] - top < simd::kExpFlushMin;
      }
    }
  }
  EXPECT_TRUE(flushed_row_seen);
}

TEST(FlatChainTest, BatchEntryPointsMatchIndividualCalls) {
  // FlatViterbiBatch / FlatMarginalsBatch over one shared workspace must
  // reproduce the per-chain calls bit for bit — this is the contract the
  // service's cross-session decode batching stands on.
  Rng rng(409);
  InferenceArena arena;
  constexpr int kChains = 5;
  std::vector<ChainPotentials> nested;
  nested.reserve(kChains);
  std::vector<FlatChainPotentials> flats(kChains);
  for (int c = 0; c < kChains; ++c) {
    const int len = 1 + static_cast<int>(rng.UniformInt(uint64_t{10}));
    nested.push_back(RandomChain(&rng, len, 1, 5));
    flats[c] = FlatChainPotentials::FromNested(nested.back(), &arena);
  }
  // Individual reference runs on a fresh workspace.
  ChainWorkspace ref_ws;
  std::vector<std::vector<int>> ref_labels(kChains);
  std::vector<std::vector<double>> ref_marginals(kChains);
  for (int c = 0; c < kChains; ++c) {
    FlatViterbi(flats[c], nullptr, &ref_ws, &ref_labels[c]);
    ref_marginals[c].resize(flats[c].node_total);
    FlatMarginals(flats[c], nullptr, &ref_ws, ref_marginals[c].data());
  }
  // Batched runs over one shared workspace.
  std::vector<std::vector<int>> got_labels(kChains);
  std::vector<std::vector<double>> got_marginals(kChains);
  std::vector<FlatChainTask> tasks(kChains);
  for (int c = 0; c < kChains; ++c) {
    got_marginals[c].resize(flats[c].node_total);
    tasks[c].potentials = &flats[c];
    tasks[c].labels = &got_labels[c];
    tasks[c].marginals = got_marginals[c].data();
  }
  ChainWorkspace batch_ws;
  FlatViterbiBatch(tasks.data(), kChains, &batch_ws);
  FlatMarginalsBatch(tasks.data(), kChains, &batch_ws);
  for (int c = 0; c < kChains; ++c) {
    EXPECT_EQ(got_labels[c], ref_labels[c]) << "chain " << c;
    ASSERT_EQ(got_marginals[c].size(), ref_marginals[c].size());
    for (size_t i = 0; i < ref_marginals[c].size(); ++i) {
      EXPECT_DOUBLE_EQ(got_marginals[c][i], ref_marginals[c][i])
          << "chain " << c << " entry " << i;
    }
  }
}

}  // namespace
}  // namespace c2mn
