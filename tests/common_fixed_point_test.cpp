#include "common/fixed_point.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace scnn::common {
namespace {

TEST(FixedPoint, RangeLimits) {
  EXPECT_EQ(int_min_of(4), -8);
  EXPECT_EQ(int_max_of(4), 7);
  EXPECT_EQ(int_min_of(11), -1024);
  EXPECT_EQ(int_max_of(11), 1023);
}

TEST(FixedPoint, SaturateClamps) {
  EXPECT_EQ(saturate(100, 4), 7);
  EXPECT_EQ(saturate(-100, 4), -8);
  EXPECT_EQ(saturate(5, 4), 5);
  EXPECT_EQ(saturate(-8, 4), -8);
}

TEST(FixedPoint, QuantizeRoundTrip) {
  // N = 8: codes in [-128, 127], value = code / 128.
  EXPECT_EQ(quantize(0.0, 8), 0);
  EXPECT_EQ(quantize(0.5, 8), 64);
  EXPECT_EQ(quantize(-0.5, 8), -64);
  EXPECT_EQ(quantize(1.0, 8), 127);    // saturates: 1.0 is not representable
  EXPECT_EQ(quantize(-1.0, 8), -128);
  EXPECT_DOUBLE_EQ(dequantize(64, 8), 0.5);
  EXPECT_DOUBLE_EQ(dequantize(-128, 8), -1.0);
}

TEST(FixedPoint, QuantizeRoundsToNearest) {
  // 0.3 * 16 = 4.8 -> 5 at N=5.
  EXPECT_EQ(quantize(0.3, 5), 5);
  EXPECT_EQ(quantize(-0.3, 5), -5);
}

// What quantize must reproduce: saturate(llround(v * 2^(N-1))) wherever
// llround is defined; past 2^62 every value is beyond a rail.
std::int32_t reference_quantize(double v, int n_bits) {
  const double x = v * std::ldexp(1.0, n_bits - 1);
  if (std::fabs(x) >= 0x1p62) return static_cast<std::int32_t>(x > 0 ? int_max_of(n_bits)
                                                                      : int_min_of(n_bits));
  return static_cast<std::int32_t>(saturate(std::llround(x), n_bits));
}

// Every integer and half-integer code point (with both nextafter
// neighbours) across and just past the range, exhaustively for N <= 16 and
// near 0, both rails and at 4096 seeded codes above; the special values;
// and 1M seeded random floats, half of them random bit patterns.
TEST(FixedPoint, QuantizeMatchesLlroundAndSaturate) {
  std::uint64_t checked = 0, failures = 0;
  auto check = [&](double v, int n) {
    ++checked;
    if (quantize(v, n) == reference_quantize(v, n)) return;
    if (++failures <= 10) ADD_FAILURE() << "N=" << n << " v=" << std::hexfloat << v;
  };
  SplitMix64 rng(2024);
  for (int n = 2; n <= 31; ++n) {
    const std::int64_t half = std::int64_t{1} << (n - 1);
    const double scale = std::ldexp(1.0, n - 1);
    std::vector<std::int64_t> ks;
    if (n <= 16) {
      for (std::int64_t k = -half - 2; k <= half + 1; ++k) ks.push_back(k);
    } else {
      for (const std::int64_t centre : {-half, std::int64_t{0}, half})
        for (std::int64_t k = centre - 1024; k <= centre + 1024; ++k) ks.push_back(k);
      for (int i = 0; i < 4096; ++i)
        ks.push_back(static_cast<std::int64_t>(rng.next_below(2 * static_cast<std::uint64_t>(half))) - half);
    }
    for (const std::int64_t k : ks)
      for (const double x : {static_cast<double>(k), static_cast<double>(k) + 0.5}) {
        const double v = x / scale;
        check(v, n);
        check(std::nextafter(v, HUGE_VAL), n);
        check(std::nextafter(v, -HUGE_VAL), n);
      }
    for (const double v :
         {0.0, -0.0, std::numeric_limits<double>::denorm_min(),
          -std::numeric_limits<double>::denorm_min(), std::numeric_limits<double>::min(),
          static_cast<double>(std::numeric_limits<float>::denorm_min()),
          -static_cast<double>(std::numeric_limits<float>::denorm_min()),
          static_cast<double>(std::numeric_limits<float>::max()),
          -static_cast<double>(std::numeric_limits<float>::max()),
          std::numeric_limits<double>::max(), -std::numeric_limits<double>::max(),
          HUGE_VAL, -HUGE_VAL})
      check(v, n);
    EXPECT_EQ(quantize(std::numeric_limits<double>::quiet_NaN(), n), int_min_of(n)) << n;
  }
  for (int i = 0; i < 1000000; ++i) {
    const int n = 2 + i % 30;
    float f;
    if (i % 2 == 0) {
      f = static_cast<float>(rng.next_in(-1.5, 1.5));
    } else {
      const auto bits = static_cast<std::uint32_t>(rng.next());
      std::memcpy(&f, &bits, sizeof f);
      if (std::isnan(f)) continue;
    }
    check(static_cast<double>(f), n);
  }
  EXPECT_EQ(failures, 0u) << "of " << checked;
  EXPECT_GT(checked, 2000000u);
}

TEST(FixedPoint, TwosComplementCodec) {
  for (int n : {4, 5, 9, 10}) {
    const std::int32_t half = 1 << (n - 1);
    for (std::int32_t q = -half; q < half; ++q) {
      const auto code = to_twos_complement(q, n);
      EXPECT_LT(code, 1u << n);
      EXPECT_EQ(from_twos_complement(code, n), q) << "n=" << n << " q=" << q;
    }
  }
}

TEST(FixedPoint, TwosComplementTable1Examples) {
  // Table 1 of the paper (N = 4): 0 -> 0000, 7 -> 0111, -8 -> 1000.
  EXPECT_EQ(to_twos_complement(0, 4), 0b0000u);
  EXPECT_EQ(to_twos_complement(7, 4), 0b0111u);
  EXPECT_EQ(to_twos_complement(-8, 4), 0b1000u);
}

TEST(SaturatingAccumulator, TicksAndClamps) {
  SaturatingAccumulator acc(4);  // range [-8, 7]
  for (int i = 0; i < 20; ++i) acc.tick(true);
  EXPECT_EQ(acc.value(), 7);
  EXPECT_TRUE(acc.at_rail());
  for (int i = 0; i < 40; ++i) acc.tick(false);
  EXPECT_EQ(acc.value(), -8);
  EXPECT_TRUE(acc.at_rail());
  acc.reset();
  EXPECT_EQ(acc.value(), 0);
}

TEST(SaturatingAccumulator, AddMatchesTicksWithoutSaturation) {
  SaturatingAccumulator a(10), b(10);
  a.add(37);
  for (int i = 0; i < 37; ++i) b.tick(true);
  EXPECT_EQ(a.value(), b.value());
}

TEST(SaturatingAccumulator, PaperConfigurationNPlusA) {
  // The paper uses an (N + A)-bit saturating counter with A = 2: at N = 9
  // the accumulator holds values in [-1024, 1023] (11 bits).
  SaturatingAccumulator acc(9 + 2);
  acc.add(5000);
  EXPECT_EQ(acc.value(), 1023);
  acc.add(-10000);
  EXPECT_EQ(acc.value(), -1024);
}

}  // namespace
}  // namespace scnn::common
