// AVX2 dot kernel of the bit-plane stage: vpmaddubsw (u8 planes x s8
// coefficients) over a 2-filter x 3-patch register tile (2 x 2 when the
// block needs folded planes), each output carrying both the signed and the
// magnitude dot product — every coefficient vector is reused against all
// patches of the tile, BISC-MVM style.
//
// vpmaddubsw adds two adjacent byte products into an int16 lane. With 0/1
// planes and |coefficient| <= 2^(N-2) <= 64 one step adds at most 128 in
// magnitude, so int16 lanes absorb kChunkSteps = 255 steps (32640 <= 32767)
// before they are widened (vpmaddwd against ones) into exact int32 sums.
//
// Compiled via the function-level target attribute so no special flags are
// needed; runtime selection goes through cpu_features().avx2.
#include "nn/mac_backends/bitplane.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#define SCNN_HAVE_BITPLANE_AVX2 1

#include <immintrin.h>

#include "common/cpu_features.hpp"

namespace scnn::nn::bitplane {
namespace {

static_assert(kStepBytes == 32,
              "rows pad to whole ymm steps, so a tail expansion group ends the row");
constexpr std::size_t kChunkSteps = 255;
static_assert(kChunkSteps * 2 * (1 << (kMaxBits - 2)) <= 32767,
              "int16 chunk accumulators must not wrap");

// Horizontal sums of four int16 accumulators at once: widen to int32 pairs,
// then a hadd tree leaves [sum v0, sum v1, sum v2, sum v3] in one xmm.
__attribute__((target("avx2"))) inline __m128i hsum4_epi16(__m256i v0, __m256i v1,
                                                          __m256i v2, __m256i v3) {
  const __m256i one = _mm256_set1_epi16(1);
  const __m256i h = _mm256_hadd_epi32(
      _mm256_hadd_epi32(_mm256_madd_epi16(v0, one), _mm256_madd_epi16(v1, one)),
      _mm256_hadd_epi32(_mm256_madd_epi16(v2, one), _mm256_madd_epi16(v3, one)));
  return _mm_add_epi32(_mm256_castsi256_si128(h), _mm256_extracti128_si256(h, 1));
}

__attribute__((target("avx2"))) inline __m256i load(const void* p) {
  return _mm256_loadu_si256(static_cast<const __m256i*>(p));
}

// Four codes -> four 8-byte plane groups (one vector). The offset image's
// low byte is broadcast into each group, masked to one bit per byte and
// clamped to 0/1; bytes of lanes outside `valid` are zeroed (row padding).
// The folded image of a negative code is the N-bit complement of its offset
// image (u + u_f = 2^N - 1), so its planes are the U planes XOR 1 on the N
// low bytes — no second gather.
struct ExpandConsts {
  __m256i ctrl, bit, one, low_n;
  __m128i half;
};

__attribute__((target("avx2"))) inline void expand4(const ExpandConsts& k,
                                                    __m128i x, __m256i valid,
                                                    std::uint8_t* u,
                                                    std::uint8_t* f) {
  const __m256i rep = _mm256_shuffle_epi8(
      _mm256_broadcastsi128_si256(_mm_add_epi32(x, k.half)), k.ctrl);
  const __m256i planes = _mm256_and_si256(
      _mm256_min_epu8(_mm256_and_si256(rep, k.bit), k.one), valid);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(u), planes);
  if (f) {
    const __m256i neg = _mm256_shuffle_epi8(
        _mm256_broadcastsi128_si256(_mm_srai_epi32(x, 31)), k.ctrl);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(f),
        _mm256_xor_si256(planes, _mm256_and_si256(_mm256_and_si256(neg, k.low_n), valid)));
  }
}

__attribute__((target("avx2"))) bool avx2_expand(std::span<const std::int32_t> patches,
                                                 std::size_t d, std::size_t tile,
                                                 std::size_t stride, int n_bits,
                                                 std::uint8_t* u, std::uint8_t* f) {
  // Any negative code? (The OR of all codes has its sign bit set.)
  const std::int32_t* p = patches.data();
  const std::size_t n = patches.size();
  __m256i any = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    any = _mm256_or_si256(any, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i)));
  std::int32_t tail = 0;
  for (; i < n; ++i) tail |= p[i];
  const bool negative = _mm256_movemask_ps(_mm256_castsi256_ps(any)) != 0 || tail < 0;

  ExpandConsts k;
  k.ctrl = _mm256_setr_epi8(0, 0, 0, 0, 0, 0, 0, 0, 4, 4, 4, 4, 4, 4, 4, 4,  //
                            8, 8, 8, 8, 8, 8, 8, 8, 12, 12, 12, 12, 12, 12, 12, 12);
  k.bit = _mm256_set1_epi64x(0x8040201008040201LL);
  k.one = _mm256_set1_epi8(1);
  k.low_n = _mm256_set1_epi64x(
      static_cast<long long>(0x0101010101010101ULL >> (8 * (8 - n_bits))));
  k.half = _mm_set1_epi32(1 << (n_bits - 1));
  const __m256i all = _mm256_set1_epi8(-1);
  std::uint8_t* fo = negative ? f : nullptr;
  for (std::size_t t = 0; t < tile; ++t) {
    const std::int32_t* src = p + t * d;
    std::uint8_t* ur = u + t * stride;
    std::uint8_t* fr = fo ? fo + t * stride : nullptr;
    std::size_t j = 0;
    for (; j + 4 <= d; j += 4)
      expand4(k, _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + j)), all,
              ur + 8 * j, fr ? fr + 8 * j : nullptr);
    if (j < d) {
      // 1-3 codes left: masked load. Their group ends the padded row
      // (8 j + 32 == stride), so the zeroed lanes are its padding.
      const int r = static_cast<int>(d - j);
      const __m128i lanes = _mm_cmpgt_epi32(_mm_set1_epi32(r), _mm_setr_epi32(0, 1, 2, 3));
      const __m256i valid = _mm256_cmpgt_epi64(
          _mm256_set1_epi64x(r), _mm256_setr_epi64x(0, 1, 2, 3));
      expand4(k, _mm_maskload_epi32(src + j, lanes), valid, ur + 8 * j,
              fr ? fr + 8 * j : nullptr);
    }
  }
  return negative;
}

// MR filter rows x NR patches; s/a are the output rows' bases (pitch tile).
// kFolded: the magnitude dots read their own planes f; otherwise f == u and
// one plane load feeds both products of a patch.
template <int MR, int NR, bool kFolded>
__attribute__((target("avx2"))) void micro_tile(
    const std::int8_t* sc, const std::int8_t* ac, const std::uint8_t* u,
    const std::uint8_t* f, std::size_t stride, std::size_t tile,
    std::int32_t* s, std::int32_t* a) {
  // Exact int32 totals, [0, MR*NR) signed then [MR*NR, 2*MR*NR) magnitude,
  // padded to whole groups of four for the reduction.
  constexpr int kOut = 2 * MR * NR;
  constexpr int kGroups = (kOut + 3) / 4;
  alignas(16) std::int32_t total[4 * kGroups] = {};
  for (std::size_t c0 = 0; c0 < stride; c0 += kChunkSteps * kStepBytes) {
    const std::size_t c1 =
        stride - c0 < kChunkSteps * kStepBytes ? stride : c0 + kChunkSteps * kStepBytes;
    __m256i sacc[MR][NR], aacc[MR][NR];
#pragma GCC unroll 4
    for (int m = 0; m < MR; ++m)
#pragma GCC unroll 4
      for (int t = 0; t < NR; ++t) {
        sacc[m][t] = _mm256_setzero_si256();
        aacc[m][t] = _mm256_setzero_si256();
      }
    for (std::size_t o = c0; o < c1; o += kStepBytes) {
      __m256i sw[MR], aw[MR];
#pragma GCC unroll 4
      for (int m = 0; m < MR; ++m) {
        sw[m] = load(sc + static_cast<std::size_t>(m) * stride + o);
        aw[m] = load(ac + static_cast<std::size_t>(m) * stride + o);
      }
#pragma GCC unroll 4
      for (int t = 0; t < NR; ++t) {
        const __m256i uv = load(u + static_cast<std::size_t>(t) * stride + o);
        const __m256i fv = kFolded ? load(f + static_cast<std::size_t>(t) * stride + o) : uv;
#pragma GCC unroll 4
        for (int m = 0; m < MR; ++m) {
          sacc[m][t] = _mm256_add_epi16(sacc[m][t], _mm256_maddubs_epi16(uv, sw[m]));
          aacc[m][t] = _mm256_add_epi16(aacc[m][t], _mm256_maddubs_epi16(fv, aw[m]));
        }
      }
    }
    __m256i acc[4 * kGroups];
#pragma GCC unroll 4
    for (int m = 0; m < MR; ++m)
#pragma GCC unroll 4
      for (int t = 0; t < NR; ++t) {
        acc[m * NR + t] = sacc[m][t];
        acc[MR * NR + m * NR + t] = aacc[m][t];
      }
#pragma GCC unroll 4
    for (int i = kOut; i < 4 * kGroups; ++i) acc[i] = _mm256_setzero_si256();
#pragma GCC unroll 4
    for (int g = 0; g < kGroups; ++g) {
      __m128i* dst = reinterpret_cast<__m128i*>(total + 4 * g);
      _mm_store_si128(dst, _mm_add_epi32(_mm_load_si128(dst),
                                         hsum4_epi16(acc[4 * g], acc[4 * g + 1],
                                                     acc[4 * g + 2], acc[4 * g + 3])));
    }
  }
  for (int m = 0; m < MR; ++m)
    for (int t = 0; t < NR; ++t) {
      const std::size_t o = static_cast<std::size_t>(m) * tile + static_cast<std::size_t>(t);
      s[o] = total[m * NR + t];
      a[o] = total[MR * NR + m * NR + t];
    }
}

// One block of MR filter rows against every patch: full NR-patch tiles,
// then a narrower tile for the tail. The register file (16 ymm) holds
// 2 x 3 tiles with shared planes and 2 x 2 tiles with folded ones.
template <int MR, bool kFolded>
__attribute__((target("avx2"))) void filter_rows(
    const std::int8_t* sc, const std::int8_t* ac, const std::uint8_t* u,
    const std::uint8_t* f, std::size_t tile, std::size_t stride, std::int32_t* s,
    std::int32_t* a) {
  constexpr int kNR = kFolded ? 2 : 3;
  std::size_t t = 0;
  for (; t + kNR <= tile; t += kNR)
    micro_tile<MR, kNR, kFolded>(sc, ac, u + t * stride, f + t * stride, stride,
                                 tile, s + t, a + t);
  if (tile - t >= 2)
    micro_tile<MR, 2, kFolded>(sc, ac, u + t * stride, f + t * stride, stride,
                               tile, s + t, a + t);
  else if (tile - t == 1)
    micro_tile<MR, 1, kFolded>(sc, ac, u + t * stride, f + t * stride, stride,
                               tile, s + t, a + t);
}

template <bool kFolded>
__attribute__((target("avx2"))) void dots(const std::int8_t* signed_c,
                                          const std::int8_t* abs_c, std::size_t rows,
                                          const std::uint8_t* u, const std::uint8_t* f,
                                          std::size_t tile, std::size_t stride,
                                          std::int32_t* s, std::int32_t* a) {
  std::size_t m = 0;
  for (; m + 2 <= rows; m += 2)
    filter_rows<2, kFolded>(signed_c + m * stride, abs_c + m * stride, u, f, tile,
                            stride, s + m * tile, a + m * tile);
  if (m < rows)
    filter_rows<1, kFolded>(signed_c + m * stride, abs_c + m * stride, u, f, tile,
                            stride, s + m * tile, a + m * tile);
}

void avx2_dots(const std::int8_t* signed_c, const std::int8_t* abs_c,
               std::size_t rows, const std::uint8_t* u, const std::uint8_t* f,
               std::size_t tile, std::size_t stride, std::int32_t* s,
               std::int32_t* a) {
  if (f == u)
    dots<false>(signed_c, abs_c, rows, u, f, tile, stride, s, a);
  else
    dots<true>(signed_c, abs_c, rows, u, f, tile, stride, s, a);
}

}  // namespace
}  // namespace scnn::nn::bitplane

#endif  // x86 + gcc/clang

namespace scnn::nn::bitplane {

const Kernel* avx2_kernel() {
#ifdef SCNN_HAVE_BITPLANE_AVX2
  if (!common::cpu_features().avx2) return nullptr;
  static const Kernel k{"avx2", &avx2_expand, &avx2_dots};
  return &k;
#else
  return nullptr;
#endif
}

bool avx2_kernel_compiled() {
#ifdef SCNN_HAVE_BITPLANE_AVX2
  return true;
#else
  return false;
#endif
}

}  // namespace scnn::nn::bitplane
