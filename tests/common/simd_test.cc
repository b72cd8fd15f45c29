#include "common/simd.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace c2mn {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

TEST(SimdKernelTest, RowMaxOfEmptyRowIsMinusInfinity) {
  EXPECT_EQ(simd::RowMax(nullptr, 0), -kInf);
  const std::vector<double> x = {-kInf, -3.0, 2.5, 2.5, -kInf, 1.0};
  EXPECT_EQ(simd::RowMax(x.data(), 1), -kInf);
  EXPECT_EQ(simd::RowMax(x.data(), 2), -3.0);
  EXPECT_EQ(simd::RowMax(x.data(), static_cast<int>(x.size())), 2.5);
}

TEST(SimdKernelTest, BiasAddIsElementwise) {
  std::vector<double> x = {1.0, -2.0, 0.25, -kInf, 7.0};
  const std::vector<double> b = {0.5, 2.0, -0.25, 3.0, -kInf};
  simd::BiasAdd(x.data(), b.data(), 4);
  EXPECT_EQ(x, (std::vector<double>{1.5, 0.0, 0.0, -kInf, 7.0}));
}

TEST(SimdKernelTest, MaxPlusStepKeepsSmallestPredecessorOnTies) {
  const std::vector<double> row = {0.0, 1.0, -1.0, 2.0, 0.5};
  const int n = static_cast<int>(row.size());
  std::vector<double> cur(n, -1e300);
  std::vector<int> back(n, -1);
  // Predecessors 0, 1 and 2 reach every entry with the same score; only
  // the first may claim it.
  for (int a = 0; a < 3; ++a) {
    simd::MaxPlusStep(0.75, row.data(), cur.data(), back.data(), a, n);
  }
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(cur[i], 0.75 + row[i]) << "entry " << i;
    EXPECT_EQ(back[i], 0) << "entry " << i;
  }
  // A strictly better predecessor takes over only where it is better.
  const std::vector<double> better = {1.0, 0.0, 0.0, 2.0, 1.0};
  simd::MaxPlusStep(0.75, better.data(), cur.data(), back.data(), 3, n);
  EXPECT_EQ(back, (std::vector<int>{3, 0, 3, 0, 3}));
}

TEST(SimdKernelTest, ExpKernelsEqualStdExpBitwise) {
  // Every exp kernel must be exactly its documented std::exp formula,
  // with the sums added left to right.  Terms of similar size make a
  // reordered sum round differently, and -inf arguments must give
  // exp(-inf) = 0.
  std::vector<double> pool = {-kInf, simd::kExpFlushMin, -800.0, 0.0, -0.0};
  for (int i = 0; i < 97; ++i) pool.push_back(std::sin(1.7 * i) * 3.0);
  size_t next = 0;
  const auto draw = [&] { return pool[(next += 37) % pool.size()]; };
  for (int n = 0; n <= 11; ++n) {
    for (int rep = 0; rep < 40; ++rep) {
      std::vector<double> x(n), row(n), acc(n);
      for (int i = 0; i < n; ++i) {
        x[i] = draw();
        row[i] = draw();
        acc[i] = 0.25 * i;
      }
      std::vector<double> normalized = x;
      simd::ExpNormalize(normalized.data(), 0.5, n);
      std::vector<double> accumulated = acc;
      simd::ExpAccumulate(-2.0, row.data(), accumulated.data(), n);
      double sum_row = 0.0, sum_shifted = 0.0;
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(Bits(normalized[i]), Bits(std::exp(x[i] - 0.5)))
            << "ExpNormalize n=" << n << " entry " << i;
        EXPECT_EQ(Bits(accumulated[i]),
                  Bits(acc[i] + std::exp(-2.0 + row[i])))
            << "ExpAccumulate n=" << n << " entry " << i;
        sum_row += std::exp(x[i] - 1.5);
        sum_shifted += std::exp(row[i] + x[i] - 1.5);
      }
      EXPECT_EQ(Bits(simd::ExpSumRow(1.5, x.data(), n)), Bits(sum_row))
          << "ExpSumRow n=" << n;
      EXPECT_EQ(Bits(simd::SumExpShifted(row.data(), x.data(), 1.5, n)),
                Bits(sum_shifted))
          << "SumExpShifted n=" << n;
    }
  }
  double minus_inf = -kInf;
  EXPECT_EQ(Bits(simd::ExpSumRow(0.0, &minus_inf, 1)), Bits(0.0));
  simd::ExpNormalize(&minus_inf, 0.0, 1);
  EXPECT_EQ(Bits(minus_inf), Bits(0.0));
}

TEST(SimdKernelTest, ExpBelowFlushMinIsSubnormal) {
  // The forward pass skips rows below kExpFlushMin on the grounds that
  // their terms are at most subnormal.
  const double below = std::nextafter(simd::kExpFlushMin, -kInf);
  EXPECT_LT(std::exp(below), std::numeric_limits<double>::min());
  EXPECT_GT(std::exp(simd::kExpFlushMin),
            0.5 * std::numeric_limits<double>::min());
}

TEST(SimdKernelTest, FingerprintNamesTheScalarTier) {
  EXPECT_STREQ(simd::LevelName(simd::ActiveLevel()), "scalar");
}

}  // namespace
}  // namespace c2mn
