#include "core/scmac.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/fixed_point.hpp"

namespace scnn::core {
namespace {

TEST(ScMultiply, PaperTable1SignedExamples) {
  // Table 1 of the paper, N = 4 (codes scaled by 2^3 = 8).
  // w = -8/8:
  EXPECT_EQ(multiply_signed(4, /*qx=*/0, /*qw=*/-8), 0);    // ref 0
  EXPECT_EQ(multiply_signed(4, /*qx=*/7, /*qw=*/-8), -8);   // ref -7
  EXPECT_EQ(multiply_signed(4, /*qx=*/-8, /*qw=*/-8), 8);   // ref 8
  // w = 7/8:
  EXPECT_EQ(multiply_signed(4, /*qx=*/0, /*qw=*/7), 1);     // ref 0
  EXPECT_EQ(multiply_signed(4, /*qx=*/7, /*qw=*/7), 7);     // ref 6.125
  EXPECT_EQ(multiply_signed(4, /*qx=*/-8, /*qw=*/7), -7);   // ref -7
}

TEST(ScMultiply, PaperTable1MuxOutStreams) {
  // Column "MUX out" of Table 1: the stream as generated by the FSM-MUX from
  // the sign-flipped x, BEFORE the XOR with sign(w) that feeds the counter.
  // The stepper's counter direction is the post-XOR bit, so undo the XOR.
  auto stream_for = [](std::int32_t qx, std::int32_t qw) {
    BitSerialMultiplier m(4, qx, qw);
    std::string s;
    const bool w_neg = qw < 0;
    while (!m.done()) {
      const std::int64_t before = m.counter();
      m.step();
      const bool counted_up = m.counter() > before;
      s += (counted_up != w_neg) ? '1' : '0';
    }
    return s;
  };
  EXPECT_EQ(stream_for(0, -8), "10101010");
  EXPECT_EQ(stream_for(7, -8), "11111111");
  EXPECT_EQ(stream_for(-8, -8), "00000000");
  EXPECT_EQ(stream_for(0, 7), "1010101");
  EXPECT_EQ(stream_for(7, 7), "1111111");
  EXPECT_EQ(stream_for(-8, 7), "0000000");
}

TEST(ScMultiply, ZeroWeightIsFree) {
  EXPECT_EQ(multiply_latency(0), 0u);
  EXPECT_EQ(multiply_signed(8, 100, 0), 0);
  BitSerialMultiplier m(8, 100, 0);
  EXPECT_TRUE(m.done());
  EXPECT_EQ(m.total_cycles(), 0u);
}

TEST(ScMultiply, LatencyIsAbsWeight) {
  EXPECT_EQ(multiply_latency(-8), 8u);
  EXPECT_EQ(multiply_latency(7), 7u);
  BitSerialMultiplier m(6, 3, -19);
  EXPECT_EQ(m.total_cycles(), 19u);
}

// Closed form == cycle-accurate stepper, exhaustive per precision.
class SignedExhaustive : public ::testing::TestWithParam<int> {};

TEST_P(SignedExhaustive, ClosedFormMatchesStepper) {
  const int n = GetParam();
  const std::int32_t half = 1 << (n - 1);
  const int stride = n >= 8 ? 5 : 1;  // sample large spaces, exhaust small
  for (std::int32_t qx = -half; qx < half; qx += stride) {
    for (std::int32_t qw = -half; qw < half; qw += stride) {
      BitSerialMultiplier m(n, qx, qw);
      while (m.step()) {}
      ASSERT_EQ(m.counter(), multiply_signed(n, qx, qw)) << "qx=" << qx << " qw=" << qw;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Precisions, SignedExhaustive, ::testing::Values(4, 5, 6, 8, 10));

// Error bound: |result - qw*qx/2^(N-1)| <= N/2 LSBs, exhaustive.
class SignedErrorBound : public ::testing::TestWithParam<int> {};

TEST_P(SignedErrorBound, WithinNHalfLsb) {
  const int n = GetParam();
  const std::int32_t half = 1 << (n - 1);
  const double bound = theoretical_error_bound_lsb(n);
  double worst = 0.0;
  for (std::int32_t qx = -half; qx < half; ++qx) {
    for (std::int32_t qw = -half; qw < half; ++qw) {
      const double exact =
          static_cast<double>(qw) * static_cast<double>(qx) / static_cast<double>(half);
      const double err = std::abs(multiply_signed(n, qx, qw) - exact);
      ASSERT_LE(err, bound) << "qx=" << qx << " qw=" << qw;
      worst = std::max(worst, err);
    }
  }
  // The bound must also be reasonably tight: the worst case is at least 1 LSB
  // for n >= 5 (otherwise the test is vacuous).
  if (n >= 5) {
    EXPECT_GE(worst, 0.5);
  }
}

INSTANTIATE_TEST_SUITE_P(Precisions, SignedErrorBound, ::testing::Values(4, 5, 6, 7, 8, 9));

TEST(ScMultiply, UnsignedMatchesPartialSumSemantics) {
  const int n = 5;
  for (std::uint32_t x = 0; x < 32; ++x) {
    for (std::uint32_t k = 0; k < 32; ++k) {
      const double ideal = static_cast<double>(x) * k / 32.0;
      EXPECT_LE(std::abs(static_cast<double>(multiply_unsigned(n, x, k)) - ideal), n / 2.0)
          << "x=" << x << " k=" << k;
    }
  }
}

TEST(ScMultiply, ResultIsZeroBiased) {
  // Fig. 5 "mean" curves: the proposed multiplier's signed error has ~zero
  // mean over all inputs.
  const int n = 7;
  const std::int32_t half = 1 << (n - 1);
  double sum = 0.0;
  int count = 0;
  for (std::int32_t qx = -half; qx < half; ++qx) {
    for (std::int32_t qw = -half; qw < half; ++qw) {
      const double exact =
          static_cast<double>(qw) * static_cast<double>(qx) / static_cast<double>(half);
      sum += multiply_signed(n, qx, qw) - exact;
      ++count;
    }
  }
  EXPECT_NEAR(sum / count, 0.0, 0.05);
}

TEST(ScMac, AccumulatesProductsTickLevel) {
  // Without saturation, MAC value == sum of individual products.
  ScMac mac(6, /*accum_bits=*/6);
  const std::int32_t xs[] = {10, -20, 31, -32, 5};
  const std::int32_t ws[] = {7, -3, 12, 9, -31};
  std::int64_t expected = 0;
  std::uint64_t cycles = 0;
  for (int i = 0; i < 5; ++i) {
    expected += multiply_signed(6, xs[i], ws[i]);
    cycles += multiply_latency(ws[i]);
    mac.accumulate(xs[i], ws[i]);
  }
  EXPECT_EQ(mac.value(), expected);
  EXPECT_EQ(mac.total_cycles(), cycles);
}

TEST(ScMac, SaturatesAtRails) {
  // N=4, A=2 -> 6-bit accumulator in [-32, 31].
  ScMac mac(4, 2);
  for (int i = 0; i < 10; ++i) mac.accumulate(7, -8);  // each ~ -8
  EXPECT_EQ(mac.value(), -32);
  mac.reset();
  EXPECT_EQ(mac.value(), 0);
  EXPECT_EQ(mac.total_cycles(), 0u);
}

TEST(ScMac, ResetClearsState) {
  ScMac mac(5, 2);
  mac.accumulate(9, 9);
  mac.reset();
  mac.accumulate(1, 1);
  EXPECT_EQ(mac.value(), multiply_signed(5, 1, 1));
}

TEST(ProposedLut, MatchesClosedForm) {
  const int n = 6;
  const auto lut = make_proposed_lut(n);
  const std::int32_t half = 1 << (n - 1);
  for (std::int32_t qw = -half; qw < half; ++qw)
    for (std::int32_t qx = -half; qx < half; ++qx)
      ASSERT_EQ(lut.at(qw, qx), multiply_signed(n, qx, qw));
}

TEST(ProposedLut, MaxErrorBelowTheoreticalBound) {
  for (int n : {5, 8, 10}) {
    const auto lut = make_proposed_lut(n);
    EXPECT_LE(lut.max_abs_error_lsb(), theoretical_error_bound_lsb(n)) << n;
  }
}

}  // namespace
}  // namespace scnn::core
