// Fixed-point quantization used throughout the BISC pipeline.
//
// The paper represents every operand as an N-bit two's-complement fraction in
// [-1, 1): integer q in [-2^(N-1), 2^(N-1)-1] encodes the real value
// q / 2^(N-1). N is the "multiplier precision" (MP) and includes the sign
// bit. Accumulation uses an (N+A)-bit *saturating* counter (A = 2 in the
// paper's experiments).
#pragma once

#include <cassert>
#include <cstdint>

namespace scnn::common {

/// Integer range limits of a signed `bits`-wide two's-complement number.
constexpr std::int64_t int_min_of(int bits) {
  assert(bits >= 2 && bits <= 62);
  return -(std::int64_t{1} << (bits - 1));
}
constexpr std::int64_t int_max_of(int bits) {
  assert(bits >= 2 && bits <= 62);
  return (std::int64_t{1} << (bits - 1)) - 1;
}

/// Clamp `v` into the representable range of a signed `bits`-wide integer.
constexpr std::int64_t saturate(std::int64_t v, int bits) {
  const std::int64_t lo = int_min_of(bits), hi = int_max_of(bits);
  return v < lo ? lo : (v > hi ? hi : v);
}

/// Quantize a real value in ~[-1,1) to an N-bit signed fraction
/// (round-to-nearest with ties away from zero, saturating). Returns the
/// integer code: saturate(std::llround(v * 2^(N-1)), N) wherever llround is
/// defined, NaN at the low rail, and inline without libm — it runs once per
/// activation of every conv input.
inline std::int32_t quantize(double v, int n_bits) {
  assert(n_bits >= 2 && n_bits <= 31);
  const double hi = static_cast<double>(int_max_of(n_bits));
  const double lo = -hi - 1.0;
  // Scaling by a power of two is exact (short of overflow, which clamps).
  const double x = v * static_cast<double>(std::int64_t{1} << (n_bits - 1));
  // Clamp before any integer conversion: every x past a rail rounds onto or
  // beyond it, and NaN fails both tests.
  if (!(x > lo)) return static_cast<std::int32_t>(lo);
  if (x >= hi) return static_cast<std::int32_t>(hi);
  // |x| < 2^30: the truncation toward zero and the fraction x - t are exact.
  const auto t = static_cast<std::int32_t>(x);
  const double r = x - static_cast<double>(t);
  return r >= 0.5 ? t + 1 : (r <= -0.5 ? t - 1 : t);
}

/// Smallest power of two >= v (at least 1.0). Quantization scales are kept
/// power-of-two so the rescale is a plain shift in hardware; both Conv2D and
/// Dense calibrate their weight/activation scales through this.
float pow2_ceil(float v);

/// Real value of an N-bit signed fraction code.
constexpr double dequantize(std::int64_t q, int n_bits) {
  return static_cast<double>(q) / static_cast<double>(std::int64_t{1} << (n_bits - 1));
}

/// N-bit two's-complement code of integer q (low n bits), as unsigned.
constexpr std::uint32_t to_twos_complement(std::int32_t q, int n_bits) {
  return static_cast<std::uint32_t>(q) & ((n_bits >= 32) ? ~0u : ((1u << n_bits) - 1u));
}

/// Sign-extend an n-bit two's-complement code back to int32.
constexpr std::int32_t from_twos_complement(std::uint32_t code, int n_bits) {
  const std::uint32_t sign = 1u << (n_bits - 1);
  return static_cast<std::int32_t>((code ^ sign)) - static_cast<std::int32_t>(sign);
}

/// Saturating signed accumulator of a fixed bit width.
///
/// Models the paper's saturating up/down counter (the accumulator of both the
/// fixed-point MAC and the SC-MAC). Width is N + A bits.
class SaturatingAccumulator {
 public:
  explicit SaturatingAccumulator(int bits) : bits_(bits) {
    assert(bits >= 2 && bits <= 62);
  }

  /// Add a (possibly negative) increment, clamping at the rails.
  void add(std::int64_t delta) { value_ = saturate(value_ + delta, bits_); }

  /// One up/down-counter tick: +1 for a stream '1', -1 for a '0'.
  void tick(bool up) { add(up ? +1 : -1); }

  void reset() { value_ = 0; }
  [[nodiscard]] std::int64_t value() const { return value_; }
  [[nodiscard]] int bits() const { return bits_; }
  [[nodiscard]] bool at_rail() const {
    return value_ == int_min_of(bits_) || value_ == int_max_of(bits_);
  }

 private:
  int bits_;
  std::int64_t value_ = 0;
};

}  // namespace scnn::common
