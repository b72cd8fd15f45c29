#include "common/simd.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace c2mn {
namespace simd {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Cephes-style exp constants (double precision).  exp(x) is reduced to
// 2^n * exp(r) with n = floor(x*log2(e) + 0.5) and r = x - n*ln2 (ln2
// split into hi/lo parts C1 + C2 for an exact reduction), then exp(r) is
// a rational approximation in r^2.  Accuracy is ~1 ulp over the reduced
// range; results below kExpMin flush to 0 (the true values there are
// subnormal and contribute nothing to log-sum-exp accumulators).
constexpr double kLog2e = 1.4426950408889634073599;
constexpr double kExpC1 = 6.93145751953125E-1;
constexpr double kExpC2 = 1.42860682030941723212E-6;
constexpr double kExpP0 = 1.26177193074810590878E-4;
constexpr double kExpP1 = 3.02994407707441961300E-2;
constexpr double kExpP2 = 9.99999999999999999910E-1;
constexpr double kExpQ0 = 3.00198505138664455042E-6;
constexpr double kExpQ1 = 2.52448340349684104192E-3;
constexpr double kExpQ2 = 2.27265548208155028766E-1;
constexpr double kExpQ3 = 2.00000000000000000005E0;
constexpr double kExpMax = 709.782712893383996843;
constexpr double kExpMin = simd::kExpFlushMin;

struct OpsTable {
  double (*row_max)(const double*, int);
  void (*bias_add)(double*, const double*, int);
  void (*max_plus_step)(double, const double*, double*, int*, int, int);
  void (*exp_accumulate)(double, const double*, double*, int);
  double (*sum_exp_shifted)(const double*, const double*, double, int);
  double (*exp_sum_row)(double, const double*, int);
  void (*exp_normalize)(double*, double, int);
};

// ---------------------------------------------------------------------------
// Scalar tier.  Uses std::exp so a forced-scalar run reproduces the
// pre-SIMD libm-based numbers bit for bit.
// ---------------------------------------------------------------------------

double RowMaxScalar(const double* x, int n) {
  double m = -kInf;
  for (int i = 0; i < n; ++i) m = x[i] > m ? x[i] : m;
  return m;
}

void BiasAddScalar(double* x, const double* b, int n) {
  for (int i = 0; i < n; ++i) x[i] += b[i];
}

void MaxPlusStepScalar(double va, const double* row, double* cur, int* back,
                       int a, int n) {
  for (int i = 0; i < n; ++i) {
    const double score = va + row[i];
    if (score > cur[i]) {
      cur[i] = score;
      back[i] = a;
    }
  }
}

void ExpAccumulateScalar(double base, const double* row, double* acc, int n) {
  for (int i = 0; i < n; ++i) acc[i] += std::exp(base + row[i]);
}

double SumExpShiftedScalar(const double* row, const double* v, double shift,
                           int n) {
  double acc = 0.0;
  for (int i = 0; i < n; ++i) acc += std::exp(row[i] + v[i] - shift);
  return acc;
}

double ExpSumRowScalar(double m, const double* x, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; ++i) acc += std::exp(x[i] - m);
  return acc;
}

void ExpNormalizeScalar(double* x, double lse, int n) {
  for (int i = 0; i < n; ++i) x[i] = std::exp(x[i] - lse);
}

constexpr OpsTable kScalarOps = {
    RowMaxScalar,        BiasAddScalar,   MaxPlusStepScalar,
    ExpAccumulateScalar, SumExpShiftedScalar, ExpSumRowScalar,
    ExpNormalizeScalar,
};

}  // namespace

namespace internal {

double PolyExp(double x) {
  if (x > kExpMax) return kInf;
  if (x < kExpMin) return 0.0;  // flush-to-zero below the normal range
  const double pxf = std::floor(kLog2e * x + 0.5);
  const int n = static_cast<int>(pxf);
  double r = x - pxf * kExpC1;
  r -= pxf * kExpC2;
  const double rr = r * r;
  const double p = r * ((kExpP0 * rr + kExpP1) * rr + kExpP2);
  const double q = (((kExpQ0 * rr + kExpQ1) * rr + kExpQ2) * rr + kExpQ3);
  const double e = 1.0 + 2.0 * (p / (q - p));
  return std::ldexp(e, n);
}

}  // namespace internal

namespace {

#if defined(__x86_64__)

// ---------------------------------------------------------------------------
// AVX2 tier.  Per-function target attributes, so this translation unit
// builds without -mavx2 and the scalar tier stays runnable on any x86_64
// host; dispatch checks cpuid before ever pointing here.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256d Avx2Exp(__m256d x) {
  const __m256d big = _mm256_cmp_pd(x, _mm256_set1_pd(kExpMax), _CMP_GT_OQ);
  const __m256d small = _mm256_cmp_pd(x, _mm256_set1_pd(kExpMin), _CMP_LT_OQ);
  const __m256d xc = _mm256_min_pd(_mm256_max_pd(x, _mm256_set1_pd(kExpMin)),
                                   _mm256_set1_pd(kExpMax));
  const __m256d pxf = _mm256_floor_pd(_mm256_add_pd(
      _mm256_mul_pd(xc, _mm256_set1_pd(kLog2e)), _mm256_set1_pd(0.5)));
  __m256d r = _mm256_sub_pd(xc, _mm256_mul_pd(pxf, _mm256_set1_pd(kExpC1)));
  r = _mm256_sub_pd(r, _mm256_mul_pd(pxf, _mm256_set1_pd(kExpC2)));
  const __m256d rr = _mm256_mul_pd(r, r);
  __m256d p = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(kExpP0), rr),
                            _mm256_set1_pd(kExpP1));
  p = _mm256_add_pd(_mm256_mul_pd(p, rr), _mm256_set1_pd(kExpP2));
  p = _mm256_mul_pd(p, r);
  __m256d q = _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(kExpQ0), rr),
                            _mm256_set1_pd(kExpQ1));
  q = _mm256_add_pd(_mm256_mul_pd(q, rr), _mm256_set1_pd(kExpQ2));
  q = _mm256_add_pd(_mm256_mul_pd(q, rr), _mm256_set1_pd(kExpQ3));
  __m256d e = _mm256_div_pd(p, _mm256_sub_pd(q, p));
  e = _mm256_add_pd(_mm256_set1_pd(1.0),
                    _mm256_mul_pd(_mm256_set1_pd(2.0), e));
  const __m128i ni = _mm256_cvtpd_epi32(pxf);
  const __m128i n1 = _mm_srai_epi32(ni, 1);
  const __m128i n2 = _mm_sub_epi32(ni, n1);
  const __m256i bias = _mm256_set1_epi64x(1023);
  const __m256d s1 = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_add_epi64(_mm256_cvtepi32_epi64(n1), bias), 52));
  const __m256d s2 = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_add_epi64(_mm256_cvtepi32_epi64(n2), bias), 52));
  e = _mm256_mul_pd(_mm256_mul_pd(e, s1), s2);
  e = _mm256_blendv_pd(e, _mm256_set1_pd(kInf), big);
  e = _mm256_blendv_pd(e, _mm256_setzero_pd(), small);
  return e;
}

__attribute__((target("avx2"))) double RowMaxAvx2(const double* x, int n) {
  int i = 0;
  __m256d vm = _mm256_set1_pd(-kInf);
  for (; i + 4 <= n; i += 4) vm = _mm256_max_pd(vm, _mm256_loadu_pd(x + i));
  double lanes[4];
  _mm256_storeu_pd(lanes, vm);
  double m = lanes[0];
  for (int k = 1; k < 4; ++k) m = lanes[k] > m ? lanes[k] : m;
  for (; i < n; ++i) m = x[i] > m ? x[i] : m;
  return m;
}

__attribute__((target("avx2"))) void BiasAddAvx2(double* x, const double* b,
                                                 int n) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        x + i, _mm256_add_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) x[i] += b[i];
}

__attribute__((target("avx2"))) void MaxPlusStepAvx2(double va,
                                                     const double* row,
                                                     double* cur, int* back,
                                                     int a, int n) {
  int i = 0;
  const __m256d vva = _mm256_set1_pd(va);
  const __m128i vaid = _mm_set1_epi32(a);
  for (; i + 4 <= n; i += 4) {
    const __m256d score = _mm256_add_pd(vva, _mm256_loadu_pd(row + i));
    const __m256d old = _mm256_loadu_pd(cur + i);
    const __m256d gt = _mm256_cmp_pd(score, old, _CMP_GT_OQ);
    _mm256_storeu_pd(cur + i, _mm256_blendv_pd(old, score, gt));
    // Each 64-bit lane mask is all-ones or all-zeros; pack the low words
    // of the four lanes into a 4x32 mask for the back-pointer blend.
    const __m256 gt8 = _mm256_castpd_ps(gt);
    const __m128 lo = _mm256_castps256_ps128(gt8);
    const __m128 hi = _mm256_extractf128_ps(gt8, 1);
    const __m128i gt32 =
        _mm_castps_si128(_mm_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0)));
    const __m128i oldb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(back + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(back + i),
                     _mm_blendv_epi8(oldb, vaid, gt32));
  }
  for (; i < n; ++i) {
    const double score = va + row[i];
    if (score > cur[i]) {
      cur[i] = score;
      back[i] = a;
    }
  }
}

__attribute__((target("avx2"))) void ExpAccumulateAvx2(double base,
                                                       const double* row,
                                                       double* acc, int n) {
  int i = 0;
  const __m256d vb = _mm256_set1_pd(base);
  for (; i + 4 <= n; i += 4) {
    const __m256d e = Avx2Exp(_mm256_add_pd(vb, _mm256_loadu_pd(row + i)));
    _mm256_storeu_pd(acc + i, _mm256_add_pd(_mm256_loadu_pd(acc + i), e));
  }
  for (; i < n; ++i) acc[i] += internal::PolyExp(base + row[i]);
}

__attribute__((target("avx2"))) double SumExpShiftedAvx2(const double* row,
                                                         const double* v,
                                                         double shift, int n) {
  int i = 0;
  const __m256d vs = _mm256_set1_pd(shift);
  __m256d vacc = _mm256_setzero_pd();
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_sub_pd(
        _mm256_add_pd(_mm256_loadu_pd(row + i), _mm256_loadu_pd(v + i)), vs);
    vacc = _mm256_add_pd(vacc, Avx2Exp(x));
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, vacc);
  double acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) acc += internal::PolyExp(row[i] + v[i] - shift);
  return acc;
}

__attribute__((target("avx2"))) double ExpSumRowAvx2(double m, const double* x,
                                                     int n) {
  int i = 0;
  const __m256d vm = _mm256_set1_pd(m);
  __m256d vacc = _mm256_setzero_pd();
  for (; i + 4 <= n; i += 4) {
    vacc = _mm256_add_pd(vacc,
                         Avx2Exp(_mm256_sub_pd(_mm256_loadu_pd(x + i), vm)));
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, vacc);
  double acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) acc += internal::PolyExp(x[i] - m);
  return acc;
}

__attribute__((target("avx2"))) void ExpNormalizeAvx2(double* x, double lse,
                                                      int n) {
  int i = 0;
  const __m256d vl = _mm256_set1_pd(lse);
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i,
                     Avx2Exp(_mm256_sub_pd(_mm256_loadu_pd(x + i), vl)));
  }
  for (; i < n; ++i) x[i] = internal::PolyExp(x[i] - lse);
}

constexpr OpsTable kAvx2Ops = {
    RowMaxAvx2,        BiasAddAvx2,       MaxPlusStepAvx2, ExpAccumulateAvx2,
    SumExpShiftedAvx2, ExpSumRowAvx2,     ExpNormalizeAvx2,
};

#endif  // __x86_64__

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

bool LevelSupported(Level level) {
#if defined(__x86_64__)
  if (level == Level::kAVX2) return __builtin_cpu_supports("avx2");
#endif
  return level == Level::kScalar;
}

const OpsTable* TableFor(Level level) {
#if defined(__x86_64__)
  if (level == Level::kAVX2) return &kAvx2Ops;
#endif
  return &kScalarOps;
}

/// The table every kernel call goes through.  Constant-initialized to
/// null, so the hot path is one load and a null test, and filled on first
/// use by FirstUse(); ForceLevel() replaces it afterwards.
std::atomic<const OpsTable*> g_ops{nullptr};

/// Picks the table once, through a function-local static: DetectedLevel()
/// unless C2MN_SIMD=scalar pins the reference tier.  Any other value
/// (including "auto") keeps detection, so the variable can never turn a
/// working binary into a crashing one.  A ForceLevel() that got in first
/// wins.  Out of line so the kernel entry points stay a tail call.
__attribute__((noinline, cold)) const OpsTable* FirstUse() {
  static const OpsTable* const picked = [] {
    const char* env = std::getenv("C2MN_SIMD");
    const bool scalar = env != nullptr && std::strcmp(env, "scalar") == 0;
    return TableFor(scalar ? Level::kScalar : DetectedLevel());
  }();
  const OpsTable* expected = nullptr;
  g_ops.compare_exchange_strong(expected, picked, std::memory_order_relaxed);
  return g_ops.load(std::memory_order_relaxed);
}

inline const OpsTable* Active() {
  const OpsTable* t = g_ops.load(std::memory_order_relaxed);
  return t != nullptr ? t : FirstUse();
}

}  // namespace

Level DetectedLevel() {
  return LevelSupported(Level::kAVX2) ? Level::kAVX2 : Level::kScalar;
}

Level ActiveLevel() {
  return Active() == &kScalarOps ? Level::kScalar : Level::kAVX2;
}

bool ForceLevel(Level level) {
  if (!LevelSupported(level)) return false;
  g_ops.store(TableFor(level), std::memory_order_relaxed);
  return true;
}

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAVX2:
      return "avx2";
  }
  return "unknown";
}

double RowMax(const double* x, int n) { return Active()->row_max(x, n); }

void BiasAdd(double* x, const double* b, int n) { Active()->bias_add(x, b, n); }

void MaxPlusStep(double va, const double* row, double* cur, int* back, int a,
                 int n) {
  Active()->max_plus_step(va, row, cur, back, a, n);
}

void ExpAccumulate(double base, const double* row, double* acc, int n) {
  Active()->exp_accumulate(base, row, acc, n);
}

double SumExpShifted(const double* row, const double* v, double shift, int n) {
  return Active()->sum_exp_shifted(row, v, shift, n);
}

double ExpSumRow(double m, const double* x, int n) {
  return Active()->exp_sum_row(m, x, n);
}

void ExpNormalize(double* x, double lse, int n) {
  Active()->exp_normalize(x, lse, n);
}

}  // namespace simd
}  // namespace c2mn
