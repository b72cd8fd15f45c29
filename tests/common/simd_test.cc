#include "common/simd.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace c2mn {
namespace {

constexpr double kExpMax = 709.782712893383996843;

/// The polynomial exp with its final scaling done by std::ldexp: the
/// Cephes reduction and rational approximation PolyExp uses, kept here as
/// the reference its libm-free power-of-two scaling must reproduce.
double LdexpPolyExp(double x) {
  if (x > kExpMax) return std::numeric_limits<double>::infinity();
  if (x < simd::kExpFlushMin) return 0.0;
  const double pxf = std::floor(1.4426950408889634073599 * x + 0.5);
  double r = x - pxf * 6.93145751953125E-1;
  r -= pxf * 1.42860682030941723212E-6;
  const double rr = r * r;
  const double p =
      r * ((1.26177193074810590878E-4 * rr + 3.02994407707441961300E-2) * rr +
           9.99999999999999999910E-1);
  const double q = (((3.00198505138664455042E-6 * rr +
                      2.52448340349684104192E-3) *
                         rr +
                     2.27265548208155028766E-1) *
                        rr +
                    2.00000000000000000005E0);
  const double e = 1.0 + 2.0 * (p / (q - p));
  return std::ldexp(e, static_cast<int>(pxf));
}

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

TEST(SimdPolyExpTest, PowerOfTwoScalingMatchesLdexpBitwise) {
  std::vector<double> xs = {simd::kExpFlushMin, kExpMax, 0.0, -0.0};
  // Both boundaries and their neighbours on either side.
  for (double edge : {simd::kExpFlushMin, kExpMax}) {
    double lo = edge, hi = edge;
    for (int step = 0; step < 4; ++step) {
      lo = std::nextafter(lo, -1e9);
      hi = std::nextafter(hi, 1e9);
      xs.push_back(lo);
      xs.push_back(hi);
    }
  }
  // Every point where the reduction's exponent n steps, and its
  // neighbours: the scaling's half-exponent split changes there.
  for (int n = -1022; n <= 1024; ++n) {
    const double x = (n - 0.5) * 0.69314718055994530942;
    xs.push_back(x);
    xs.push_back(std::nextafter(x, -1e9));
    xs.push_back(std::nextafter(x, 1e9));
  }
  // A dense even sweep of the whole range.
  constexpr int kSweep = 1 << 20;
  for (int i = 0; i <= kSweep; ++i) {
    xs.push_back(simd::kExpFlushMin +
                 (kExpMax - simd::kExpFlushMin) * i / kSweep);
  }
  int mismatches = 0;
  for (double x : xs) {
    const double got = simd::internal::PolyExp(x);
    const double want = LdexpPolyExp(x);
    if (Bits(got) != Bits(want) && ++mismatches <= 5) {
      ADD_FAILURE() << "x = " << x << ": " << got << " vs ldexp " << want;
    }
  }
  EXPECT_EQ(mismatches, 0);
  // The range ends map to normal doubles; outside it, 0 and +inf.
  EXPECT_GT(simd::internal::PolyExp(simd::kExpFlushMin), 0.0);
  EXPECT_TRUE(std::isfinite(simd::internal::PolyExp(kExpMax)));
  EXPECT_EQ(simd::internal::PolyExp(std::nextafter(simd::kExpFlushMin, -1e9)),
            0.0);
  EXPECT_EQ(simd::internal::PolyExp(std::nextafter(kExpMax, 1e9)),
            std::numeric_limits<double>::infinity());
}

/// Restores the dispatch tier active at construction.
class ScopedSimdLevel {
 public:
  ScopedSimdLevel() : saved_(simd::ActiveLevel()) {}
  ~ScopedSimdLevel() { simd::ForceLevel(saved_); }

 private:
  simd::Level saved_;
};

TEST(SimdPolyExpTest, Avx2LanesMatchPolyExpBitwise) {
  // Every AVX2 exp lane, including the masked n % 4 tail lanes, must be
  // PolyExp exactly: the elementwise kernels at every length, and the
  // sums at tail-only lengths (n < 4), where the reference order is plain
  // left to right.
  ScopedSimdLevel restore;
  if (!simd::ForceLevel(simd::Level::kAVX2)) GTEST_SKIP() << "no AVX2";
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> pool = {-kInf, simd::kExpFlushMin, kExpMax, 0.0,
                              -800.0, 750.0};
  for (int i = 0; i < 200; ++i) pool.push_back(-720.0 + 7.3 * i);
  size_t next = 0;
  const auto draw = [&] { return pool[(next += 37) % pool.size()]; };
  for (int n = 1; n <= 11; ++n) {
    for (int rep = 0; rep < 40; ++rep) {
      std::vector<double> x(n), row(n), acc(n);
      for (int i = 0; i < n; ++i) {
        x[i] = draw();
        row[i] = draw() * 0.5;
        acc[i] = 0.25 * i;
      }
      std::vector<double> normalized = x;
      simd::ExpNormalize(normalized.data(), 3.5, n);
      std::vector<double> accumulated = acc;
      simd::ExpAccumulate(-2.0, row.data(), accumulated.data(), n);
      // Sums get terms of similar size, so a reordered tail would round
      // differently.
      std::vector<double> y(n), z(n);
      for (int i = 0; i < n; ++i) {
        y[i] = std::sin(7.0 * rep + i);
        z[i] = std::cos(3.0 * rep + 2.0 * i);
      }
      double sum_row = 0.0, sum_shifted = 0.0;
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(Bits(normalized[i]),
                  Bits(simd::internal::PolyExp(x[i] - 3.5)))
            << "ExpNormalize n=" << n << " lane " << i;
        EXPECT_EQ(Bits(accumulated[i]),
                  Bits(acc[i] + simd::internal::PolyExp(-2.0 + row[i])))
            << "ExpAccumulate n=" << n << " lane " << i;
        sum_row += simd::internal::PolyExp(y[i] - 1.5);
        sum_shifted += simd::internal::PolyExp(z[i] + y[i] - 1.5);
      }
      if (n < 4) {
        EXPECT_EQ(Bits(simd::ExpSumRow(1.5, y.data(), n)), Bits(sum_row))
            << "ExpSumRow n=" << n;
        EXPECT_EQ(Bits(simd::SumExpShifted(z.data(), y.data(), 1.5, n)),
                  Bits(sum_shifted))
            << "SumExpShifted n=" << n;
      }
    }
  }
}

}  // namespace
}  // namespace c2mn
