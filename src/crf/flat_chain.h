#ifndef C2MN_CRF_FLAT_CHAIN_H_
#define C2MN_CRF_FLAT_CHAIN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"

namespace c2mn {

struct ChainPotentials;

/// \brief A reusable bump allocator for inference-sized scratch memory.
///
/// Decoding one p-sequence needs a handful of buffers whose sizes depend
/// on the sequence (flat potentials, messages, back-pointers).  Allocating
/// them from an arena that is Reset() between decodes means a long-lived
/// annotator performs zero heap allocations once its blocks have grown to
/// the working-set size.  Pointers returned by Alloc() stay valid until
/// the next Reset().
class InferenceArena {
 public:
  template <typename T>
  T* Alloc(size_t count) {
    static_assert(alignof(T) <= kAlign, "over-aligned type");
    const size_t bytes = (count * sizeof(T) + kAlign - 1) & ~(kAlign - 1);
    while (current_ < blocks_.size() &&
           blocks_[current_].used + bytes > blocks_[current_].capacity) {
      ++current_;
    }
    if (current_ == blocks_.size()) {
      const size_t capacity = bytes > kMinBlockBytes ? bytes : kMinBlockBytes;
      blocks_.push_back(Block{std::make_unique<char[]>(capacity), capacity, 0});
    }
    Block& block = blocks_[current_];
    char* p = block.data.get() + block.used;
    block.used += bytes;
    return reinterpret_cast<T*>(p);
  }

  /// Recycles every block; previously returned pointers become invalid.
  void Reset() {
    for (Block& block : blocks_) block.used = 0;
    current_ = 0;
  }

  size_t bytes_reserved() const {
    size_t total = 0;
    for (const Block& block : blocks_) total += block.capacity;
    return total;
  }

 private:
  static constexpr size_t kAlign = 16;
  static constexpr size_t kMinBlockBytes = size_t{1} << 16;

  struct Block {
    std::unique_ptr<char[]> data;
    size_t capacity;
    size_t used;
  };
  std::vector<Block> blocks_;
  size_t current_ = 0;
};

/// \brief Contiguous log-linear chain potentials: one flat node buffer and
/// one flat edge buffer with per-position offsets, replacing the nested
/// vector-of-vector layout of ChainPotentials on every hot path.
///
/// node values of position i live at node[node_off[i] .. node_off[i+1]);
/// the edge block coupling i and i+1 is row-major (a * domain(i+1) + b) at
/// edge[edge_off[i]].  With `tied_edges` every position shares one edge
/// block (edge_off[i] == 0), which is how the HMM baseline avoids n copies
/// of its transition matrix.  All arrays are arena-backed: the struct is a
/// trivially copyable view whose storage lives in an InferenceArena.
struct FlatChainPotentials {
  int n = 0;
  const int* domains = nullptr;      ///< [n]
  const size_t* node_off = nullptr;  ///< [n + 1]; node_off[n] == node_total.
  const size_t* edge_off = nullptr;  ///< [n - 1] (nullptr when n == 1).
  double* node = nullptr;
  double* edge = nullptr;
  /// [n - 1] per-position edge-block maxima and exp(edge - edge_max),
  /// laid out like `edge` (PrecomputeEdgeExp; nullptr until then).  One
  /// decode runs many max-marginal passes over fixed edges, so the edge
  /// exps are paid once per decode instead of once per pass.
  const double* edge_max = nullptr;
  const double* edge_exp = nullptr;
  size_t node_total = 0;
  size_t edge_total = 0;

  int length() const { return n; }
  int domain(int i) const { return domains[i]; }
  double* NodeRow(int i) const { return node + node_off[i]; }
  double* EdgeBlock(int i) const { return edge + edge_off[i]; }

  /// Allocates an uninitialized chain of length `n` with the given
  /// per-position domain sizes.  `domains` must stay valid as long as the
  /// result (allocate it from the same arena).
  static FlatChainPotentials Build(int n, const int* domains, bool tied_edges,
                                   InferenceArena* arena);

  /// Flattens legacy nested potentials (must Validate()).
  static FlatChainPotentials FromNested(const ChainPotentials& nested,
                                        InferenceArena* arena);

  /// Fills edge_max and edge_exp from the current edge values (call after
  /// the blocks are fully written; re-call if they change).  Required by
  /// FlatMaxMarginalLabels; the other kernels ignore it.
  void PrecomputeEdgeExp(InferenceArena* arena);
};

/// \brief Reusable message/back-pointer buffers for the flat kernels.
/// Vectors grow to the largest chain seen and are never shrunk, so a
/// warmed-up workspace makes every kernel allocation-free.
struct ChainWorkspace {
  std::vector<double> val_a;   ///< Forward messages / Viterbi scores.
  std::vector<double> val_b;   ///< Backward messages.
  std::vector<int> back;       ///< Viterbi back-pointers.
  std::vector<double> local;   ///< Per-position scratch (up to two domains).
};

/// The flat inference kernels.  `node_bias`, when non-null, is an overlay
/// of node_total values added to the node potentials at every use site —
/// this is how ICM layers segmentation bonuses onto a chain without
/// cloning it (O(n·d) touched entries instead of an O(n·d²) deep copy).
/// All kernels except FlatMaxMarginalLabels are exact ports of the nested
/// ChainModel algorithms: same tie-breaking (smallest label index wins),
/// log-space messages with a single max-shift per position.

/// Max-product decoding into `out`.
void FlatViterbi(const FlatChainPotentials& p, const double* node_bias,
                 ChainWorkspace* ws, std::vector<int>* out);

/// Log of the partition function.
double FlatLogPartition(const FlatChainPotentials& p, const double* node_bias,
                        ChainWorkspace* ws);

/// Posterior node marginals, written to `out` (node_total values laid out
/// like the node buffer); each position's row sums to 1.
void FlatMarginals(const FlatChainPotentials& p, const double* node_bias,
                   ChainWorkspace* ws, double* out);

/// Per-position max-posterior labels: the argmax of every FlatMarginals
/// row, computed from the unnormalized alpha + beta sums (softmax is
/// monotone per row, so the labels are the same while the per-row exp/log
/// normalization is skipped entirely).  This is the decode-only fast path
/// for callers that never read the probabilities.  Requires
/// PrecomputeEdgeExp: messages stay in log space between positions, but
/// each step is a mat-vec over the cached exp(edge - edge_max) block, so a
/// position costs d exps and d logs instead of d^2 exps.
void FlatMaxMarginalLabels(const FlatChainPotentials& p,
                           const double* node_bias, ChainWorkspace* ws,
                           std::vector<int>* out);

/// Unnormalized log-score of a configuration.
double FlatScore(const FlatChainPotentials& p, const double* node_bias,
                 const int* labels);

/// \brief One unit of a cross-session decode batch: a chain (typically
/// arena-backed, one shared InferenceArena for the whole batch), an
/// optional node-bias overlay, and where its answer goes.
struct FlatChainTask {
  const FlatChainPotentials* potentials = nullptr;
  const double* node_bias = nullptr;  ///< Overlay, or nullptr.
  std::vector<int>* labels = nullptr;  ///< FlatViterbiBatch output.
  double* marginals = nullptr;  ///< FlatMarginalsBatch output (node_total).
};

/// Decodes `count` chains in one sweep over a single shared workspace, so
/// a shard draining N sessions touches one set of warm message buffers
/// instead of N cold per-session ones.  Results are exactly what `count`
/// FlatViterbi calls would produce (the kernels are deterministic and the
/// workspace carries no state across chains).
void FlatViterbiBatch(const FlatChainTask* tasks, int count,
                      ChainWorkspace* ws);

/// Batched FlatMarginals; same contract as FlatViterbiBatch.
void FlatMarginalsBatch(const FlatChainTask* tasks, int count,
                        ChainWorkspace* ws);

/// One systematic-scan Gibbs sweep.
void FlatGibbsSweep(const FlatChainPotentials& p, const double* node_bias,
                    ChainWorkspace* ws, std::vector<int>* state, Rng* rng);

/// Exact forward-filter backward-sample draw.
void FlatSample(const FlatChainPotentials& p, const double* node_bias,
                ChainWorkspace* ws, Rng* rng, std::vector<int>* out);

}  // namespace c2mn

#endif  // C2MN_CRF_FLAT_CHAIN_H_
