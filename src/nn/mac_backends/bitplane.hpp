// Certified bit-plane MAC stage for the proposed multiplier (Sec. 2.3).
//
// The closed form of the FSM-MUX multiplier is linear in the bits of the
// activation: with k = |qw|, s = sign(qw), u the offset-binary image of qx
// and c_i(k) = round(k / 2^i) (FsmMuxSequence::prefix_count),
//
//     p(qw, qx) = s * (2 * sum_i c_i(k) * b_i(u) - k),      b_i = bit N-i.
//
// A row of products is therefore an int8 x 0/1 dot product of length N*d —
// the software form of BISC-MVM (Sec. 3): no table, no gather. Each product
// also satisfies |p| = 2 * sum_i c_i(k) * b_i(u_f) - k, where u_f is the
// offset image of the one's-complement fold (x >= 0 ? x : ~x), so the same
// machinery yields A = sum_j |p_j| next to S = sum_j p_j. The positive and
// negative partial sums are S+ = (S + A) / 2 and S- = (S - A) / 2, and every
// prefix of the row lies in [S-, S+]. When S+ <= hi and S- >= lo no prefix
// ever reaches a rail, so the saturating LUT accumulation in increasing-j
// order equals S with zero clamp events: the output is *certified* and its
// dot products are its exact result. Outputs that fail the test are handed
// back to the caller, which runs them through the LUT kernel unchanged.
// docs/ALGORITHM.md carries the identities, the soundness proof and the
// reasons for the N <= 8 window.
//
// Layout: every code occupies 8 bytes, byte b holding plane bit b of its
// offset image (b >= N is always 0) on the activation side and the matching
// coefficient c_(N-b)(k) on the weight side. A row of d codes is padded
// with zero bytes to a multiple of kStepBytes, so the dot kernels never
// need a tail.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace scnn::nn::bitplane {

/// Largest precision the stage runs at: every coefficient c_i(k) <= 2^(N-2)
/// must fit an int8 (64 at N = 8) and every code's planes one 8-byte group.
inline constexpr int kMaxBits = 8;
/// Bytes per plane-row padding unit — one AVX2 vector.
inline constexpr std::size_t kStepBytes = 32;

/// Bytes of one plane row holding d codes (8 per code, padded).
[[nodiscard]] constexpr std::size_t row_stride(std::size_t d) {
  return (8 * d + kStepBytes - 1) / kStepBytes * kStepBytes;
}

/// The weight side of one layer generation: per filter row, the signed
/// coefficients s_j * c_i(k_j) and the magnitudes c_i(k_j) in plane layout,
/// plus the row constants sum_j s_j * k_j and sum_j k_j.
struct Coefficients {
  int n_bits = 0;
  int rows = 0;
  std::size_t d = 0;
  std::size_t stride = 0;
  std::vector<std::int8_t> signed_c;  ///< [rows][stride]
  std::vector<std::int8_t> abs_c;     ///< [rows][stride]
  std::vector<std::int32_t> sum_sk;   ///< [rows]
  std::vector<std::int32_t> sum_k;    ///< [rows]

  /// (Re)build from `rows` dense rows of d N-bit codes ([rows][d]), reusing
  /// this object's storage. Requires 2 <= n_bits <= kMaxBits.
  void assign(std::span<const std::int32_t> codes, int rows, std::size_t d,
              int n_bits);
};

/// s[m * tile + t] = <signed_c row m, u patch t> and
/// a[m * tile + t] = <abs_c row m, f patch t>, over `stride` bytes
/// (f may alias u).
using DotsFn = void (*)(const std::int8_t* signed_c, const std::int8_t* abs_c,
                        std::size_t rows, const std::uint8_t* u,
                        const std::uint8_t* f, std::size_t tile,
                        std::size_t stride, std::int32_t* s, std::int32_t* a);

/// Expand `tile` patches of d N-bit codes (layout [tile][d]) into plane rows
/// of `stride` bytes, padding included: U (offset images) into u and, when
/// the block holds a negative code, F (folded images) into f. Both buffers
/// hold tile * stride bytes. Returns whether F was written.
using ExpandFn = bool (*)(std::span<const std::int32_t> patches, std::size_t d,
                          std::size_t tile, std::size_t stride, int n_bits,
                          std::uint8_t* u, std::uint8_t* f);

/// One kernel of the stage.
struct Kernel {
  const char* name;  ///< "avx2"
  ExpandFn expand;
  DotsFn dots;
};

/// The AVX2 (vpmaddubsw) kernel, nullptr where it is not compiled or this
/// CPU lacks AVX2. There is no portable kernel: without a byte dot product
/// the stage costs more than the one table lookup per product it replaces.
[[nodiscard]] const Kernel* avx2_kernel();
[[nodiscard]] bool avx2_kernel_compiled();

/// Run the stage over a block: `coef.rows` filter rows against `tile`
/// patches of coef.d codes each (patches layout [tile][d]). Writes
/// out[m * tile + t] for every certified output and returns one flag per
/// output (1 = certified) in the same layout; the flags span lives in
/// per-thread scratch and stays valid until the calling thread's next run.
/// Certified outputs equal the saturating accumulation into
/// [lo, hi] in any product order, with zero clamp events.
[[nodiscard]] std::span<const std::uint8_t> run(
    const Kernel& kernel, const Coefficients& coef,
    std::span<const std::int32_t> patches, std::size_t tile, std::int64_t lo,
    std::int64_t hi, std::span<std::int64_t> out);

}  // namespace scnn::nn::bitplane
