#ifndef C2MN_COMMON_SIMD_H_
#define C2MN_COMMON_SIMD_H_

namespace c2mn {
namespace simd {

/// \brief The two kernel tiers.  kAVX2 is picked at runtime on x86-64
/// hosts whose CPU has AVX2; everywhere else the kernels run the scalar
/// std::exp loops, which are also the reference the AVX2 tier is tested
/// against.
///
/// AVX2 stays because it pays on the decode hot path (forward-backward
/// max-marginals): on a shared 4-core Xeon, perfbench replay_decode in
/// 10 s runs, alternating forced-scalar and AVX2 over 20 seeds, read
/// 55.6k vs 51.0k records/s median (+9%; AVX2 ahead in 18 of 20 pairs;
/// the scalar runs' interquartile range 6.3k) and a 10% lower emit p50,
/// with identical region/event accuracy.  That was measured while the
/// max-marginal decode exponentiated every edge entry on every pass.  With
/// the edge exps cached once per decode, ten such pairs read 81.7k
/// forced-scalar vs 80.0k AVX2 (AVX2 ahead in 7 of 10; interquartile
/// ranges 16.5k and 12.1k): no measured end-to-end win remains.
enum class Level {
  kScalar = 0,
  kAVX2 = 1,
};

/// kAVX2 when this binary runs on an x86-64 CPU with AVX2, else kScalar.
Level DetectedLevel();

/// The tier the kernel entry points currently dispatch to: chosen once,
/// on first use, from DetectedLevel().  Setting the environment variable
/// C2MN_SIMD=scalar pins the scalar reference instead (CI runs the
/// sanitizer suites that way); "auto", unset, or any other value keeps
/// detection.
Level ActiveLevel();

/// Test hook: forces dispatch to `level`; returns false (and leaves
/// dispatch unchanged) when the host does not support it.  kScalar always
/// succeeds.  Not synchronized with concurrent kernel calls: a call in
/// flight may finish on the previous tier.
bool ForceLevel(Level level);

const char* LevelName(Level level);

// ---------------------------------------------------------------------------
// Kernel primitives.  All operate on contiguous double rows of length n
// (n >= 0, no alignment requirements) and dispatch to the active tier.
// Semantics notes:
//  * RowMax matches a left-to-right std::max fold over finite/±inf data
//    (inputs are log-potentials; NaN never reaches these kernels).
//  * MaxPlusStep preserves the scalar Viterbi tie-break exactly: an entry
//    is overwritten only on a strictly greater score, so for equal scores
//    the smallest predecessor index a wins.  It is bit-identical across
//    tiers (pure add/compare, no reassociation).
//  * The exp-based kernels (ExpAccumulate, SumExpShifted, ExpSumRow,
//    ExpNormalize) use a polynomial exp on the AVX2 tier whose result can
//    differ from std::exp by a few ulp; callers must treat cross-tier
//    equivalence as <= 1e-9, not bit-equality.  exp(-inf) = 0 and
//    exp(+inf) = inf hold on both tiers.
// ---------------------------------------------------------------------------

/// Arguments below this flush to exactly +0.0 in the AVX2 tier's exp
/// (the true values are subnormal or smaller).  Callers may skip whole
/// rows whose arguments are all below it: on the AVX2 tier the skipped
/// contributions are exactly +0.0, on the scalar (std::exp) tier they are
/// at most subnormal, far beneath the 1e-9 cross-tier tolerance.
inline constexpr double kExpFlushMin = -708.396418532264106224;

/// max(x[0..n)); -inf for n == 0.
double RowMax(const double* x, int n);

/// x[i] += b[i].
void BiasAdd(double* x, const double* b, int n);

/// Viterbi inner step: for each i, if va + row[i] > cur[i] then
/// cur[i] = va + row[i], back[i] = a.
void MaxPlusStep(double va, const double* row, double* cur, int* back, int a,
                 int n);

/// acc[i] += exp(base + row[i]).
void ExpAccumulate(double base, const double* row, double* acc, int n);

/// Returns sum_i exp(row[i] + v[i] - shift).
double SumExpShifted(const double* row, const double* v, double shift, int n);

/// Returns sum_i exp(x[i] - m).
double ExpSumRow(double m, const double* x, int n);

/// x[i] = exp(x[i] - lse).
void ExpNormalize(double* x, double lse, int n);

namespace internal {
/// The scalar form of the polynomial exp used by the AVX2 tier: every
/// AVX2 lane, full or tail, computes exactly this, bit for bit.  Exposed
/// so tests can check the lanes against it and bound its error against
/// std::exp directly.
double PolyExp(double x);
}  // namespace internal

}  // namespace simd
}  // namespace c2mn

#endif  // C2MN_COMMON_SIMD_H_
