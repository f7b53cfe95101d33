#include "sc/sng.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "sc/ed.hpp"
#include "sc/halton.hpp"

namespace scnn::sc {
namespace {

TEST(Halton, RadicalInverseBase2) {
  EXPECT_DOUBLE_EQ(radical_inverse(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(radical_inverse(1, 2), 0.5);
  EXPECT_DOUBLE_EQ(radical_inverse(2, 2), 0.25);
  EXPECT_DOUBLE_EQ(radical_inverse(3, 2), 0.75);
  EXPECT_DOUBLE_EQ(radical_inverse(4, 2), 0.125);
}

TEST(Halton, RadicalInverseBase3) {
  EXPECT_DOUBLE_EQ(radical_inverse(0, 3), 0.0);
  EXPECT_DOUBLE_EQ(radical_inverse(1, 3), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(radical_inverse(2, 3), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(radical_inverse(3, 3), 1.0 / 9.0);
}

TEST(Halton, IntBase2MatchesDouble) {
  for (std::uint64_t i = 0; i < 256; ++i) {
    const auto vi = radical_inverse_base2_int(i, 8);
    EXPECT_DOUBLE_EQ(static_cast<double>(vi) / 256.0, radical_inverse(i, 2)) << i;
  }
}

// Every SNG must produce an *exactly* value-correct stream over its natural
// period for the deterministic kinds, and an unbiased one for the LFSR.
// The kind is a std::string, not a const char*, so the generated test names
// show the kind's text rather than the literal's address, which changes from
// process to process.
class SngValue : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(SngValue, FullPeriodStreamValue) {
  const auto [kind, n] = GetParam();
  auto sng = make_sng(kind, n);
  const std::size_t len = std::size_t{1} << n;
  for (std::uint32_t code : {0u, 1u, (1u << n) / 3, (1u << n) / 2, (1u << n) - 1}) {
    sng->reset();
    const auto stream = generate_stream(*sng, code, len);
    const double expected = static_cast<double>(code) / static_cast<double>(len);
    const double got = stream.unipolar_value();
    if (kind == "lfsr") {
      // LFSR states are uniform over [1, 2^n - 1]: P(state < code) =
      // (code - 1 + [code == 0]) / (2^n - 1); allow that inherent bias.
      EXPECT_NEAR(got, expected, 2.0 / static_cast<double>(len)) << kind << " code=" << code;
    } else if (kind == "halton3") {
      // Base-3 sequence over a power-of-two window: low-discrepancy but not
      // exactly balanced; star discrepancy is O(log L / L).
      EXPECT_NEAR(got, expected, (2.0 + 2.0 * n) / static_cast<double>(len))
          << kind << " code=" << code;
    } else {
      // Halton base 2/3 and ED are exactly balanced over the period.
      EXPECT_NEAR(got, expected, 1.5 / static_cast<double>(len)) << kind << " code=" << code;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SngValue,
    ::testing::Combine(::testing::Values(std::string("lfsr"), std::string("halton2"),
                                         std::string("halton3"), std::string("ed"),
                                         std::string("ed*")),
                       ::testing::Values(5, 8, 10)));

TEST(EdCode, ExactPrefixBalance) {
  // The defining even-distribution property: every length-k prefix holds
  // floor or ceil of k*code/2^N ones.
  const int n = 8;
  for (std::uint32_t code : {0u, 3u, 77u, 128u, 255u}) {
    const auto s = ed_stream(code, n);
    for (std::size_t k = 1; k <= s.length(); ++k) {
      const double ideal = static_cast<double>(k) * code / 256.0;
      const auto ones = static_cast<double>(s.count_ones_prefix(k));
      EXPECT_LE(std::abs(ones - ideal), 1.0) << "code=" << code << " k=" << k;
    }
  }
}

TEST(EdCode, ScrambledPreservesValue) {
  const int n = 9;
  for (std::uint32_t code = 0; code < (1u << n); code += 37) {
    EXPECT_EQ(ed_stream(code, n).count_ones(), ed_stream_scrambled(code, n).count_ones());
  }
}

TEST(Sng, ResetRestartsSequence) {
  for (const char* kind : {"lfsr", "halton2", "halton3", "ed", "ed*"}) {
    auto sng = make_sng(kind, 6);
    const auto first = generate_stream(*sng, 21, 64);
    sng->reset();
    const auto again = generate_stream(*sng, 21, 64);
    for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(first.get(i), again.get(i)) << kind;
  }
}

TEST(Sng, UnknownKindThrows) { EXPECT_THROW(make_sng("bogus", 5), std::invalid_argument); }

TEST(Sng, LfsrVariantsDiffer) {
  auto a = make_sng("lfsr", 8, 0);
  auto b = make_sng("lfsr", 8, 1);
  const auto sa = generate_stream(*a, 100, 256);
  const auto sb = generate_stream(*b, 100, 256);
  bool any_diff = false;
  for (std::size_t i = 0; i < 256 && !any_diff; ++i) any_diff = sa.get(i) != sb.get(i);
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace scnn::sc
