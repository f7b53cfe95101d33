// AVX2 dot kernel of the bit-plane stage, reading patches in place from a
// plane image (bitplane.hpp): one vpmaddubsw multiplies a code's broadcast
// 8-byte coefficient group (vpbroadcastq) against the plane groups of four
// adjacent outputs (one 32-byte load at offsets[j] + 32 g). The register
// tile is 2 filter rows x 2 groups of four outputs, each output carrying
// both the signed and the magnitude dot product — every loaded plane vector
// is reused by both rows and every broadcast coefficient by both groups,
// BISC-MVM style. The 8 int16 accumulators, 2-4 plane vectors and one
// coefficient fit the 16 ymm registers; 2 x 3 tiles spilled accumulators
// under GCC 12 and were no faster on a 4-vCPU AVX-512 host.
//
// vpmaddubsw adds two adjacent byte products into an int16 lane. With 0/1
// planes and |coefficient| <= 2^(N-2) <= 64 one code adds at most 128 in
// magnitude to a lane, so int16 lanes absorb kChunkCodes = 255 codes
// (32640 <= 32767) before they are widened (vpmaddwd against ones) into
// exact int32 sums.
//
// Compiled via the function-level target attribute so no special flags are
// needed; runtime selection goes through cpu_features().avx2.
#include "nn/mac_backends/bitplane.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#define SCNN_HAVE_BITPLANE_AVX2 1

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "common/cpu_features.hpp"

namespace scnn::nn::bitplane {
namespace {

constexpr std::size_t kChunkCodes = 255;
static_assert(kChunkCodes * 2 * (1 << (kMaxBits - 2)) <= 32767,
              "int16 chunk accumulators must not wrap");

__attribute__((target("avx2"))) inline __m256i load(const void* p) {
  return _mm256_loadu_si256(static_cast<const __m256i*>(p));
}

// One 8-byte coefficient group in all four 64-bit lanes.
__attribute__((target("avx2"))) inline __m256i broadcast_group(const std::int8_t* p) {
  long long g;
  std::memcpy(&g, p, sizeof g);
  return _mm256_set1_epi64x(g);
}

// MR filter rows x NG groups of four outputs. sc/ac point at the rows'
// coefficients (pitch 8 d), u/f at the first group's origin, s/a at the
// first output of the first row (pitch `pitch`). kFolded: the magnitude
// dots read their own planes f; otherwise one plane load feeds both.
template <int MR, int NG, bool kFolded>
__attribute__((target("avx2"))) void micro_tile(const std::int8_t* sc,
                                                const std::int8_t* ac,
                                                const std::uint8_t* u,
                                                const std::uint8_t* f,
                                                const std::size_t* off, std::size_t d,
                                                std::int32_t* s, std::int32_t* a,
                                                std::size_t pitch) {
  const std::size_t rp = 8 * d;
  const __m256i ones = _mm256_set1_epi16(1);
  // Exact int32 totals: per output, two lanes (bytes 0-3 and 4-7).
  __m256i stot[MR][NG], atot[MR][NG];
#pragma GCC unroll 4
  for (int m = 0; m < MR; ++m)
#pragma GCC unroll 4
    for (int g = 0; g < NG; ++g) stot[m][g] = atot[m][g] = _mm256_setzero_si256();
  for (std::size_t j0 = 0; j0 < d; j0 += kChunkCodes) {
    const std::size_t j1 = std::min(d, j0 + kChunkCodes);
    __m256i sacc[MR][NG], aacc[MR][NG];
#pragma GCC unroll 4
    for (int m = 0; m < MR; ++m)
#pragma GCC unroll 4
      for (int g = 0; g < NG; ++g) sacc[m][g] = aacc[m][g] = _mm256_setzero_si256();
    for (std::size_t j = j0; j < j1; ++j) {
      const std::size_t o = off[j];
      __m256i uv[NG], fv[NG];
#pragma GCC unroll 4
      for (int g = 0; g < NG; ++g) {
        uv[g] = load(u + o + 32 * static_cast<std::size_t>(g));
        fv[g] = kFolded ? load(f + o + 32 * static_cast<std::size_t>(g)) : uv[g];
      }
#pragma GCC unroll 4
      for (int m = 0; m < MR; ++m) {
        const __m256i sw = broadcast_group(sc + static_cast<std::size_t>(m) * rp + 8 * j);
#pragma GCC unroll 4
        for (int g = 0; g < NG; ++g)
          sacc[m][g] = _mm256_add_epi16(sacc[m][g], _mm256_maddubs_epi16(uv[g], sw));
        const __m256i aw = broadcast_group(ac + static_cast<std::size_t>(m) * rp + 8 * j);
#pragma GCC unroll 4
        for (int g = 0; g < NG; ++g)
          aacc[m][g] = _mm256_add_epi16(aacc[m][g], _mm256_maddubs_epi16(fv[g], aw));
      }
    }
#pragma GCC unroll 4
    for (int m = 0; m < MR; ++m)
#pragma GCC unroll 4
      for (int g = 0; g < NG; ++g) {
        stot[m][g] = _mm256_add_epi32(stot[m][g], _mm256_madd_epi16(sacc[m][g], ones));
        atot[m][g] = _mm256_add_epi32(atot[m][g], _mm256_madd_epi16(aacc[m][g], ones));
      }
  }
  // hadd leaves [s0 s1 a0 a1 | s2 s3 a2 a3]; the qword permute makes it
  // [s0 s1 s2 s3 | a0 a1 a2 a3].
#pragma GCC unroll 4
  for (int m = 0; m < MR; ++m)
#pragma GCC unroll 4
    for (int g = 0; g < NG; ++g) {
      const __m256i h = _mm256_permute4x64_epi64(_mm256_hadd_epi32(stot[m][g], atot[m][g]),
                                                 _MM_SHUFFLE(3, 1, 2, 0));
      const std::size_t o = static_cast<std::size_t>(m) * pitch + 4 * static_cast<std::size_t>(g);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(s + o), _mm256_castsi256_si128(h));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(a + o), _mm256_extracti128_si256(h, 1));
    }
}

// MR filter rows against every group of the block: pairs of groups, then
// a single group for an odd count.
template <int MR, bool kFolded>
__attribute__((target("avx2"))) void filter_rows(const std::int8_t* sc,
                                                 const std::int8_t* ac,
                                                 const PlaneRow& x, std::size_t d,
                                                 std::size_t groups, std::int32_t* s,
                                                 std::int32_t* a, std::size_t pitch) {
  const std::size_t* off = x.offsets.data();
  std::size_t g = 0;
  for (; g + 2 <= groups; g += 2)
    micro_tile<MR, 2, kFolded>(sc, ac, x.u + 32 * g, x.f + 32 * g, off, d, s + 4 * g,
                               a + 4 * g, pitch);
  if (g < groups)
    micro_tile<MR, 1, kFolded>(sc, ac, x.u + 32 * g, x.f + 32 * g, off, d, s + 4 * g,
                               a + 4 * g, pitch);
}

template <bool kFolded>
__attribute__((target("avx2"))) void dots(const Coefficients& coef, const PlaneRow& x,
                                          std::int32_t* s, std::int32_t* a) {
  const std::size_t rows = static_cast<std::size_t>(coef.rows), d = coef.d;
  const std::size_t groups = (x.tile + 3) / 4, pitch = 4 * groups;
  const std::int8_t* sc = coef.signed_c.data();
  const std::int8_t* ac = coef.abs_c.data();
  std::size_t m = 0;
  for (; m + 2 <= rows; m += 2)
    filter_rows<2, kFolded>(sc + m * 8 * d, ac + m * 8 * d, x, d, groups, s + m * pitch,
                            a + m * pitch, pitch);
  if (m < rows)
    filter_rows<1, kFolded>(sc + m * 8 * d, ac + m * 8 * d, x, d, groups, s + m * pitch,
                            a + m * pitch, pitch);
}

void avx2_dots(const Coefficients& coef, const PlaneRow& x, std::int32_t* s,
               std::int32_t* a) {
  if (x.f == x.u)
    dots<false>(coef, x, s, a);
  else
    dots<true>(coef, x, s, a);
}

}  // namespace
}  // namespace scnn::nn::bitplane

#endif  // x86 + gcc/clang

namespace scnn::nn::bitplane {

const Kernel* avx2_kernel() {
#ifdef SCNN_HAVE_BITPLANE_AVX2
  if (!common::cpu_features().avx2) return nullptr;
  static const Kernel k{"avx2", &avx2_dots};
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
