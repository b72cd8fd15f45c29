#ifndef C2MN_COMMON_SIMD_H_
#define C2MN_COMMON_SIMD_H_

#include <cmath>
#include <limits>

namespace c2mn {
namespace simd {

/// \brief The flat-chain kernel tier.  There is one: the scalar std::exp
/// loops below.  No vector tier is kept because none pays end to end
/// since the max-marginal decode caches its edge exps (d exps per
/// position instead of d^2); ROADMAP.md records the runs.
///
/// Level, ActiveLevel() and LevelName() exist only for the machine
/// fingerprint the benchmarks record (bench::WriteMachine and perfbench
/// print LevelName(ActiveLevel())); they always read "scalar".
enum class Level {
  kScalar = 0,
};

inline Level ActiveLevel() { return Level::kScalar; }

inline const char* LevelName(Level) { return "scalar"; }

// ---------------------------------------------------------------------------
// Kernel primitives.  All operate on contiguous double rows of length n
// (n >= 0, no alignment requirements).  Semantics notes:
//  * RowMax matches a left-to-right std::max fold over finite/±inf data
//    (inputs are log-potentials; NaN never reaches these kernels).
//  * MaxPlusStep preserves the Viterbi tie-break exactly: an entry is
//    overwritten only on a strictly greater score, so for equal scores
//    the smallest predecessor index a wins.
//  * The exp-based kernels (ExpAccumulate, SumExpShifted, ExpSumRow,
//    ExpNormalize) call std::exp once per element, and the sums add their
//    terms left to right.
// ---------------------------------------------------------------------------

/// Below this argument std::exp is subnormal or zero.  Callers may skip
/// whole rows whose arguments are all below it: every skipped term is at
/// most a subnormal double, far beneath any tolerance the decode uses.
inline constexpr double kExpFlushMin = -708.396418532264106224;

/// max(x[0..n)); -inf for n == 0.
inline double RowMax(const double* x, int n) {
  double m = -std::numeric_limits<double>::infinity();
  for (int i = 0; i < n; ++i) m = x[i] > m ? x[i] : m;
  return m;
}

/// x[i] += b[i].
inline void BiasAdd(double* x, const double* b, int n) {
  for (int i = 0; i < n; ++i) x[i] += b[i];
}

/// Viterbi inner step: for each i, if va + row[i] > cur[i] then
/// cur[i] = va + row[i], back[i] = a.
inline void MaxPlusStep(double va, const double* row, double* cur, int* back,
                        int a, int n) {
  for (int i = 0; i < n; ++i) {
    const double score = va + row[i];
    if (score > cur[i]) {
      cur[i] = score;
      back[i] = a;
    }
  }
}

/// acc[i] += exp(base + row[i]).
inline void ExpAccumulate(double base, const double* row, double* acc, int n) {
  for (int i = 0; i < n; ++i) acc[i] += std::exp(base + row[i]);
}

/// Returns sum_i exp(row[i] + v[i] - shift).
inline double SumExpShifted(const double* row, const double* v, double shift,
                            int n) {
  double acc = 0.0;
  for (int i = 0; i < n; ++i) acc += std::exp(row[i] + v[i] - shift);
  return acc;
}

/// Returns sum_i exp(x[i] - m).
inline double ExpSumRow(double m, const double* x, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; ++i) acc += std::exp(x[i] - m);
  return acc;
}

/// x[i] = exp(x[i] - lse).
inline void ExpNormalize(double* x, double lse, int n) {
  for (int i = 0; i < n; ++i) x[i] = std::exp(x[i] - lse);
}

}  // namespace simd
}  // namespace c2mn

#endif  // C2MN_COMMON_SIMD_H_
