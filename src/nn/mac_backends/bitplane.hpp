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
// Layout: every code occupies one 8-byte *plane group*, byte b holding plane
// bit b of its offset image (b >= N is always 0) on the activation side and
// the matching coefficient c_(N-b)(k) on the weight side. The activations
// are read in place from a plane image (ImageLayout): each pixel's group is
// written once, and output t's code j sits at offsets[j] + 8 t from the
// row's origin, so four adjacent outputs' groups of one code are a single
// 32-byte load.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace scnn::nn::bitplane {

/// Largest precision the stage runs at: every coefficient c_i(k) <= 2^(N-2)
/// must fit an int8 (64 at N = 8) and every code's planes one 8-byte group.
inline constexpr int kMaxBits = 8;

/// The plane group of an N-bit code q: byte b = bit b of u = q + 2^(N-1).
/// The low byte of u is copied into every byte, each byte keeps its own bit,
/// and adding 0x7f carries that bit into the byte's top bit (no byte
/// overflows, so no carry crosses bytes).
[[nodiscard]] constexpr std::uint64_t plane_group(std::int32_t q, int n_bits) {
  const auto u = static_cast<std::uint64_t>(q + (std::int32_t{1} << (n_bits - 1)));
  const std::uint64_t bits = (u * 0x0101010101010101ULL) & 0x8040201008040201ULL;
  return ((bits + 0x7f7f7f7f7f7f7f7fULL) >> 7) & 0x0101010101010101ULL;
}

/// The code whose plane group this is. Multiplying by sum_b 2^(56 - 7b)
/// moves byte b's bit to bit 56 + b; every other partial product lands
/// below bit 56 or above bit 63 at a distinct position, so nothing carries.
[[nodiscard]] constexpr std::int32_t plane_code(std::uint64_t group, int n_bits) {
  return static_cast<std::int32_t>((group * 0x0102040810204080ULL) >> 56) -
         (std::int32_t{1} << (n_bits - 1));
}

/// The folded image's group: a negative code (plane N-1 clear) folds to its
/// N-bit complement, u_f = 2^N - 1 - u, so its N low bytes flip.
[[nodiscard]] constexpr std::uint64_t folded_group(std::uint64_t group, int n_bits) {
  const std::uint64_t negative = ((group >> (8 * (n_bits - 1))) & 1) ^ 1;
  return group ^ (negative * (0x0101010101010101ULL >> (8 * (8 - n_bits))));
}

/// The weight side of one layer generation: per filter row, the signed
/// coefficients s_j * c_i(k_j) and the magnitudes c_i(k_j) as d plane groups,
/// plus the row constants sum_j s_j * k_j and sum_j k_j.
struct Coefficients {
  int n_bits = 0;
  int rows = 0;
  std::size_t d = 0;
  std::vector<std::int8_t> signed_c;  ///< [rows][d][8]
  std::vector<std::int8_t> abs_c;     ///< [rows][d][8]
  std::vector<std::int32_t> sum_sk;   ///< [rows]
  std::vector<std::int32_t> sum_k;    ///< [rows]

  /// (Re)build from `rows` dense rows of d N-bit codes ([rows][d]), reusing
  /// this object's storage. Requires 2 <= n_bits <= kMaxBits.
  void assign(std::span<const std::int32_t> codes, int rows, std::size_t d,
              int n_bits);
};

/// Where a convolution's input pixels sit in one image's plane image, and
/// where each patch code sits relative to an output's origin.
///
/// The image is [channels][height + 2 pad][stride][phase_width][8]: every
/// padded row is split into `stride` phases (padded column xp goes to phase
/// xp % stride, slot xp / stride), so output columns c .. c+3 of kernel tap
/// (z, i, j) read slots c + j / stride .. +3 of one phase — one contiguous
/// 32-byte load at every stride. Padding, and the slack that keeps the last
/// group of four outputs in bounds, hold plane_group(0).
struct ImageLayout {
  int channels = 0, height = 0, width = 0, kernel = 0, stride = 0, pad = 0;
  std::size_t phase_bytes = 0, row_bytes = 0, channel_bytes = 0, image_bytes = 0;
  /// Byte offset of patch code (z, i, j) from its output's origin, in the
  /// [z][i][j] order of the weight rows.
  std::vector<std::size_t> offsets;
  /// Byte offset of input column x within its padded row.
  std::vector<std::size_t> columns;

  /// Lay out `channels` x `height` x `width` inputs of a kernel x kernel,
  /// stride, pad convolution (the geometry Conv2D runs).
  void assign(int channels, int height, int width, int kernel, int stride, int pad);
  [[nodiscard]] bool matches(int channels_, int height_, int width_, int kernel_,
                             int stride_, int pad_) const {
    return channels == channels_ && height == height_ && width == width_ &&
           kernel == kernel_ && stride == stride_ && pad == pad_;
  }
  /// Byte offset of input pixel (z, y, x) (unpadded coordinates).
  [[nodiscard]] std::size_t pixel(int z, int y, int x) const {
    return static_cast<std::size_t>(z) * channel_bytes +
           static_cast<std::size_t>(y + pad) * row_bytes +
           columns[static_cast<std::size_t>(x)];
  }
  /// Byte offset of output row r's origin (its column 0).
  [[nodiscard]] std::size_t row_origin(int r) const {
    return static_cast<std::size_t>(stride) * static_cast<std::size_t>(r) * row_bytes;
  }
};

/// One block of outputs read in place: output t's code j is the plane group
/// at u + offsets[j] + 8 t, its folded group at the same place in f. The
/// 32 bytes from offsets[j] + 32 g must be readable for every group of four
/// outputs, g < ceil(tile / 4).
struct PlaneRow {
  const std::uint8_t* u = nullptr;
  const std::uint8_t* f = nullptr;  ///< == u when no code is negative
  std::span<const std::size_t> offsets;
  std::size_t tile = 0;
};

/// Decode outputs [t0, t1) of `x` back into their patch codes ([t1-t0][d]).
void gather(const PlaneRow& x, int n_bits, std::size_t t0, std::size_t t1,
            std::span<std::int32_t> codes);

/// s[m * pitch + t] = <signed_c row m, u patch t> and
/// a[m * pitch + t] = <abs_c row m, f patch t> for every t below
/// pitch = 4 * ceil(x.tile / 4).
using DotsFn = void (*)(const Coefficients& coef, const PlaneRow& x,
                        std::int32_t* s, std::int32_t* a);

/// One kernel of the stage.
struct Kernel {
  const char* name;  ///< "avx2" | "avx512vnni"
  DotsFn dots;
  /// The only mac_rows kernel (backends::Kernel::name) this stage kernel
  /// runs in front of; nullptr = any SIMD kernel.
  const char* lut = nullptr;
};

/// The AVX2 (vpmaddubsw) kernel, nullptr where it is not compiled or this
/// CPU lacks AVX2. There is no portable kernel: without a byte dot product
/// the stage costs more than the one table lookup per product it replaces.
[[nodiscard]] const Kernel* avx2_kernel();
[[nodiscard]] bool avx2_kernel_compiled();

/// The AVX-512 VNNI (vpdpbusd) kernel, in front of the avx512 LUT kernel
/// only; nullptr where it is not compiled or this CPU lacks the avx512 LUT
/// kernel's F/BW/VL tier or VNNI.
[[nodiscard]] const Kernel* avx512_kernel();
[[nodiscard]] bool avx512_kernel_compiled();

/// Every stage kernel runnable on this machine, in rising order of
/// preference: an engine runs the last one whose `lut` admits its mac_rows
/// kernel. Tests iterate this to pin each kernel on any host that has it.
[[nodiscard]] std::vector<const Kernel*> available_kernels();

/// Run the stage over a block: `coef.rows` filter rows against the x.tile
/// patches of `x`. Writes every out[m * tile + t] and returns one flag per
/// output (1 = certified) in the same layout; the flags span lives in
/// per-thread scratch and stays valid until the calling thread's next run.
/// Certified outputs equal the saturating accumulation into [lo, hi] in any
/// product order, with zero clamp events; the caller must overwrite the
/// others.
[[nodiscard]] std::span<const std::uint8_t> run(const Kernel& kernel,
                                                const Coefficients& coef,
                                                const PlaneRow& x, std::int64_t lo,
                                                std::int64_t hi,
                                                std::span<std::int64_t> out);

}  // namespace scnn::nn::bitplane
