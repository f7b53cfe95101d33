// AVX-512 VNNI dot kernel of the bit-plane stage, on the same plane image,
// coefficients and s/a layout as the AVX2 kernel (bitplane_avx2.cpp). Per
// patch code it loads the plane groups of eight adjacent outputs (one
// 64-byte load at offsets[j] + 32 g), broadcasts the row's 8-byte signed and
// magnitude coefficient groups (vpbroadcastq), and vpdpbusd multiplies the
// 0/1 plane bytes (u8) by the coefficients (s8), adding four byte products
// at a time into int32 lanes: each output owns two dword lanes, bytes 0-3
// and 4-7 of its group. There is no int16 stage to widen, so the chunk loop
// of the AVX2 kernel and its vpmaddwd are gone — 2 vpdpbusd per 8 outputs
// where AVX2 needs 4 µops per 4.
//
// Register tile: 4 filter rows x 2 groups of eight outputs, each output
// carrying the signed and the magnitude dot (16 zmm accumulators), then 2-
// and 1-row blocks; across a row, pairs of zmm groups, then one zmm group,
// then one 4-output ymm group (vpdpbusd with AVX512VL) for an odd count of
// groups of four. Every load stays inside the ceil(tile / 4) groups of four
// the layout guarantees.
//
// The epilogue adds each output's two dword halves (vpsrldq by one dword +
// vpaddd leaves the sum in the low dword of its qword) and stores the
// qwords narrowed to int32 (vpmovqd). The shift is the byte form because
// GCC 12's vpsrlq and register-vpmovqd intrinsics trip -Wuninitialized on
// their undefined pass-through operand.
//
// The stage only runs in front of the avx512 LUT kernel (mac_engine.cpp),
// so an engine forced onto avx2 carries no zmm code. Compiled via the
// function-level target attribute; runtime selection goes through
// cpu_features() (the avx512 LUT kernel's F/BW/VL tier plus VNNI).
#include "nn/mac_backends/bitplane.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#define SCNN_HAVE_BITPLANE_AVX512 1

#include <immintrin.h>

#include <cassert>
#include <cstring>

#include "common/cpu_features.hpp"

#define SCNN_VNNI_TARGET __attribute__((target("avx512f,avx512bw,avx512vl,avx512vnni")))

namespace scnn::nn::bitplane {
namespace {

// |coefficient| <= 2^(N-2) <= 64, so one code adds at most 4 * 64 = 256 in
// magnitude to a dword lane: lanes are exact for d < kMaxCodes = 2^23 codes.
// The two halves of an output sum to at most sum_j k_j <= 128 d < 2^30
// (sum_i c_i(k) = k), so the epilogue's add is exact too.
constexpr std::size_t kMaxCodes = std::size_t{1} << 23;
static_assert((kMaxCodes - 1) * 4 * (1 << (kMaxBits - 2)) <= 2147483647u,
              "int32 vpdpbusd accumulators must not wrap");

// acc += planes (u8) . coef (s8), four bytes per dword lane. vpdpbusd is
// issued through inline asm: around each _mm512_dpbusd_epi32 of the
// unrolled 4 x 2 tile GCC 12 copied the accumulator out and back (and
// spilled two), and the kernel took 0.69 ms instead of 0.56 ms per 16-image
// CIFAR-quick conv1 (1 thread, Sapphire Rapids); the "+v" operand keeps
// each accumulator in place.

// Eight outputs per vector: two dword lanes each.
struct Zmm {
  using V = __m512i;
  static constexpr std::size_t kOutputs = 8;
  SCNN_VNNI_TARGET static V zero() { return _mm512_setzero_si512(); }
  SCNN_VNNI_TARGET static V load(const std::uint8_t* p) { return _mm512_loadu_si512(p); }
  SCNN_VNNI_TARGET static V broadcast(const std::int8_t* p) {
    long long g;
    std::memcpy(&g, p, sizeof g);
    return _mm512_set1_epi64(g);
  }
  SCNN_VNNI_TARGET static V dot(V acc, V planes, V coef) {
    asm("vpdpbusd %2, %1, %0" : "+v"(acc) : "v"(planes), "v"(coef));
    return acc;
  }
  SCNN_VNNI_TARGET static void store(std::int32_t* p, V acc) {
    const V sum = _mm512_add_epi32(acc, _mm512_bsrli_epi128(acc, 4));
    _mm512_mask_cvtepi64_storeu_epi32(p, 0xff, sum);
  }
};

// The 4-output tail group.
struct Ymm {
  using V = __m256i;
  static constexpr std::size_t kOutputs = 4;
  SCNN_VNNI_TARGET static V zero() { return _mm256_setzero_si256(); }
  SCNN_VNNI_TARGET static V load(const std::uint8_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  SCNN_VNNI_TARGET static V broadcast(const std::int8_t* p) {
    long long g;
    std::memcpy(&g, p, sizeof g);
    return _mm256_set1_epi64x(g);
  }
  SCNN_VNNI_TARGET static V dot(V acc, V planes, V coef) {
    asm("vpdpbusd %2, %1, %0" : "+v"(acc) : "v"(planes), "v"(coef));
    return acc;
  }
  SCNN_VNNI_TARGET static void store(std::int32_t* p, V acc) {
    const V sum = _mm256_add_epi32(acc, _mm256_bsrli_epi128(acc, 4));
    _mm256_mask_cvtepi64_storeu_epi32(p, 0xf, sum);
  }
};

// MR filter rows x NG vectors of W::kOutputs outputs. sc/ac point at the
// rows' coefficients (pitch 8 d), u/f at the first output's origin, s/a at
// the first output of the first row (pitch `pitch`). kFolded: the magnitude
// dots read their own planes f; otherwise one plane load feeds both.
template <class W, int MR, int NG, bool kFolded>
SCNN_VNNI_TARGET void micro_tile(const std::int8_t* sc, const std::int8_t* ac,
                                 const std::uint8_t* u, const std::uint8_t* f,
                                 const std::size_t* off, std::size_t d, std::int32_t* s,
                                 std::int32_t* a, std::size_t pitch) {
  constexpr std::size_t kBytes = 8 * W::kOutputs;
  const std::size_t rp = 8 * d;
  typename W::V sacc[MR][NG], aacc[MR][NG];
#pragma GCC unroll 4
  for (int m = 0; m < MR; ++m)
#pragma GCC unroll 2
    for (int g = 0; g < NG; ++g) sacc[m][g] = aacc[m][g] = W::zero();
  for (std::size_t j = 0; j < d; ++j) {
    const std::size_t o = off[j];
    typename W::V uv[NG], fv[NG];
#pragma GCC unroll 2
    for (int g = 0; g < NG; ++g) {
      uv[g] = W::load(u + o + kBytes * static_cast<std::size_t>(g));
      fv[g] = kFolded ? W::load(f + o + kBytes * static_cast<std::size_t>(g)) : uv[g];
    }
#pragma GCC unroll 4
    for (int m = 0; m < MR; ++m) {
      const typename W::V sw = W::broadcast(sc + static_cast<std::size_t>(m) * rp + 8 * j);
#pragma GCC unroll 2
      for (int g = 0; g < NG; ++g) sacc[m][g] = W::dot(sacc[m][g], uv[g], sw);
      const typename W::V aw = W::broadcast(ac + static_cast<std::size_t>(m) * rp + 8 * j);
#pragma GCC unroll 2
      for (int g = 0; g < NG; ++g) aacc[m][g] = W::dot(aacc[m][g], fv[g], aw);
    }
  }
#pragma GCC unroll 4
  for (int m = 0; m < MR; ++m)
#pragma GCC unroll 2
    for (int g = 0; g < NG; ++g) {
      const std::size_t o = static_cast<std::size_t>(m) * pitch + W::kOutputs * g;
      W::store(s + o, sacc[m][g]);
      W::store(a + o, aacc[m][g]);
    }
}

// MR filter rows against every group of four outputs of the block: pairs
// of zmm groups (16 outputs), then one zmm group (8), then one ymm group (4).
template <int MR, bool kFolded>
SCNN_VNNI_TARGET void filter_rows(const std::int8_t* sc, const std::int8_t* ac,
                                  const PlaneRow& x, std::size_t d, std::size_t groups,
                                  std::int32_t* s, std::int32_t* a, std::size_t pitch) {
  const std::size_t* off = x.offsets.data();
  std::size_t g = 0;
  for (; g + 4 <= groups; g += 4)
    micro_tile<Zmm, MR, 2, kFolded>(sc, ac, x.u + 32 * g, x.f + 32 * g, off, d, s + 4 * g,
                                    a + 4 * g, pitch);
  if (g + 2 <= groups) {
    micro_tile<Zmm, MR, 1, kFolded>(sc, ac, x.u + 32 * g, x.f + 32 * g, off, d, s + 4 * g,
                                    a + 4 * g, pitch);
    g += 2;
  }
  if (g < groups)
    micro_tile<Ymm, MR, 1, kFolded>(sc, ac, x.u + 32 * g, x.f + 32 * g, off, d, s + 4 * g,
                                    a + 4 * g, pitch);
}

template <bool kFolded>
SCNN_VNNI_TARGET void dots(const Coefficients& coef, const PlaneRow& x, std::int32_t* s,
                           std::int32_t* a) {
  const std::size_t rows = static_cast<std::size_t>(coef.rows), d = coef.d;
  const std::size_t groups = (x.tile + 3) / 4, pitch = 4 * groups;
  const std::int8_t* sc = coef.signed_c.data();
  const std::int8_t* ac = coef.abs_c.data();
  std::size_t m = 0;
  for (; m + 4 <= rows; m += 4)
    filter_rows<4, kFolded>(sc + m * 8 * d, ac + m * 8 * d, x, d, groups, s + m * pitch,
                            a + m * pitch, pitch);
  if (m + 2 <= rows) {
    filter_rows<2, kFolded>(sc + m * 8 * d, ac + m * 8 * d, x, d, groups, s + m * pitch,
                            a + m * pitch, pitch);
    m += 2;
  }
  if (m < rows)
    filter_rows<1, kFolded>(sc + m * 8 * d, ac + m * 8 * d, x, d, groups, s + m * pitch,
                            a + m * pitch, pitch);
}

void avx512_dots(const Coefficients& coef, const PlaneRow& x, std::int32_t* s,
                 std::int32_t* a) {
  assert(coef.d < kMaxCodes);
  if (x.f == x.u)
    dots<false>(coef, x, s, a);
  else
    dots<true>(coef, x, s, a);
}

}  // namespace
}  // namespace scnn::nn::bitplane

#endif  // x86 + gcc/clang

namespace scnn::nn::bitplane {

const Kernel* avx512_kernel() {
#ifdef SCNN_HAVE_BITPLANE_AVX512
  const common::CpuFeatures& f = common::cpu_features();
  if (!f.avx512_mac_tier() || !f.avx512vnni) return nullptr;
  static const Kernel k{"avx512vnni", &avx512_dots, "avx512"};
  return &k;
#else
  return nullptr;
#endif
}

bool avx512_kernel_compiled() {
#ifdef SCNN_HAVE_BITPLANE_AVX512
  return true;
#else
  return false;
#endif
}

}  // namespace scnn::nn::bitplane
