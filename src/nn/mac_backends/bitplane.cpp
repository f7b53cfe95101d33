#include "nn/mac_backends/bitplane.hpp"

#include <cassert>

namespace scnn::nn::bitplane {
namespace {

struct Scratch {
  std::vector<std::uint8_t> u, f, flags;
  std::vector<std::int32_t> s, a;
};

}  // namespace

void Coefficients::assign(std::span<const std::int32_t> codes, int rows_,
                          std::size_t d_, int n_bits_) {
  assert(n_bits_ >= 2 && n_bits_ <= kMaxBits);
  assert(codes.size() == static_cast<std::size_t>(rows_) * d_);
  n_bits = n_bits_;
  rows = rows_;
  d = d_;
  stride = row_stride(d_);
  const std::size_t total = static_cast<std::size_t>(rows_) * stride;
  signed_c.assign(total, 0);
  abs_c.assign(total, 0);
  sum_sk.assign(static_cast<std::size_t>(rows_), 0);
  sum_k.assign(static_cast<std::size_t>(rows_), 0);
  for (int m = 0; m < rows_; ++m) {
    const std::size_t r = static_cast<std::size_t>(m);
    for (std::size_t j = 0; j < d_; ++j) {
      const std::int32_t q = codes[r * d_ + j];
      const std::int32_t k = q < 0 ? -q : q;
      sum_sk[r] += q;  // s * k == q
      sum_k[r] += k;
      std::int8_t* sc = signed_c.data() + r * stride + 8 * j;
      std::int8_t* ac = abs_c.data() + r * stride + 8 * j;
      for (int b = 0; b < n_bits_; ++b) {
        // Byte b carries plane bit b, i.e. i = N - b: c_i(k) = round(k / 2^i).
        const int i = n_bits_ - b;
        const auto c = static_cast<std::int8_t>((k + (1 << (i - 1))) >> i);
        ac[b] = c;
        sc[b] = static_cast<std::int8_t>(q < 0 ? -c : c);
      }
    }
  }
}

std::span<const std::uint8_t> run(const Kernel& kernel, const Coefficients& coef,
                                  std::span<const std::int32_t> patches,
                                  std::size_t tile, std::int64_t lo, std::int64_t hi,
                                  std::span<std::int64_t> out) {
  thread_local Scratch scratch;
  const std::size_t rows = static_cast<std::size_t>(coef.rows);
  const std::size_t d = coef.d, stride = coef.stride;
  assert(patches.size() == tile * d);
  assert(out.size() == rows * tile);
  scratch.u.resize(tile * stride);
  scratch.f.resize(tile * stride);
  // All-non-negative blocks have u_f == u: the magnitude dots reuse U.
  const bool folded = kernel.expand(patches, d, tile, stride, coef.n_bits,
                                    scratch.u.data(), scratch.f.data());
  const std::uint8_t* f = folded ? scratch.f.data() : scratch.u.data();
  scratch.s.resize(rows * tile);
  scratch.a.resize(rows * tile);
  scratch.flags.resize(rows * tile);
  kernel.dots(coef.signed_c.data(), coef.abs_c.data(), rows, scratch.u.data(), f,
              tile, stride, scratch.s.data(), scratch.a.data());
  for (std::size_t m = 0; m < rows; ++m) {
    for (std::size_t t = 0; t < tile; ++t) {
      const std::size_t o = m * tile + t;
      // S = sum of products, A = sum of their magnitudes; 2 S+ = S + A and
      // 2 S- = S - A bound every prefix of the row.
      const std::int64_t s = 2 * std::int64_t{scratch.s[o]} - coef.sum_sk[m];
      const std::int64_t a = 2 * std::int64_t{scratch.a[o]} - coef.sum_k[m];
      const bool certified = s + a <= 2 * hi && s - a >= 2 * lo;
      scratch.flags[o] = certified ? 1 : 0;
      if (certified) out[o] = s;
    }
  }
  return scratch.flags;
}

}  // namespace scnn::nn::bitplane
