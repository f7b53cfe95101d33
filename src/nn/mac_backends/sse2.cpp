// SSE2 mac_rows kernel: 4 output lanes per step, scalar gathers feeding a
// vector accumulate/clamp/saturation-count pipeline.
//
// SSE2 has no gather and no epi32 min/max (those are SSE4.1), so the LUT
// loads stay scalar and the clamp is a compare+blend — the win over the
// scalar kernel is modest and this backend exists mainly to make the
// dispatch ladder complete on pre-AVX2 x86. Per-lane semantics are the
// scalar kernel's exactly: increasing-j product order, clamp after every
// add, one saturation count per clamp event.
#include "nn/mac_backends/mac_backends.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#define SCNN_HAVE_SSE2_KERNEL 1

#include <emmintrin.h>

#include "common/cpu_features.hpp"
#include "nn/mac_backends/scalar_impl.hpp"

namespace scnn::nn::backends {
namespace {

// min/max are synthesized from the compare mask (SSE2 predates pmin/maxsd).
__attribute__((target("sse2"))) inline __m128i select_epi32(__m128i mask,
                                                            __m128i a,
                                                            __m128i b) {
  return _mm_or_si128(_mm_and_si128(mask, a), _mm_andnot_si128(mask, b));
}

__attribute__((target("sse2"))) std::uint64_t sse2_narrow(
    const sc::ProductLut& lut, std::span<const std::int32_t> w,
    std::span<const std::int32_t> patches, std::span<std::int64_t> out,
    std::int64_t lo64, std::int64_t hi64) {
  const std::size_t d = w.size();
  const std::size_t tile = out.size();
  const std::int32_t lo = static_cast<std::int32_t>(lo64);
  const std::int32_t hi = static_cast<std::int32_t>(hi64);
  const __m128i lov = _mm_set1_epi32(lo);
  const __m128i hiv = _mm_set1_epi32(hi);
  std::uint64_t sat = 0;
  std::size_t t0 = 0;
  for (; t0 + 4 <= tile; t0 += 4) {
    const std::int32_t* px = patches.data() + t0 * d;
    __m128i acc = _mm_setzero_si128();
    __m128i satv = _mm_setzero_si128();
    for (std::size_t j = 0; j < d; ++j) {
      const std::int16_t* row = lut.row(w[j]);
      const __m128i pr = _mm_setr_epi32(row[px[j]], row[px[d + j]],
                                        row[px[2 * d + j]], row[px[3 * d + j]]);
      const __m128i v = _mm_add_epi32(acc, pr);
      const __m128i below = _mm_cmplt_epi32(v, lov);
      const __m128i above = _mm_cmpgt_epi32(v, hiv);
      satv = _mm_sub_epi32(satv, below);
      satv = _mm_sub_epi32(satv, above);
      acc = select_epi32(above, hiv, select_epi32(below, lov, v));
    }
    alignas(16) std::int32_t lanes[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(lanes), acc);
    for (int t = 0; t < 4; ++t) out[t0 + static_cast<std::size_t>(t)] = lanes[t];
    alignas(16) std::uint32_t sats[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(sats), satv);
    sat += sats[0] + sats[1] + sats[2] + sats[3];
  }
  if (t0 < tile)
    sat += detail::mac_rows_blocked<std::int32_t>(
        lut, w, patches.subspan(t0 * d), out.subspan(t0), lo, hi);
  return sat;
}

}  // namespace
}  // namespace scnn::nn::backends

#endif  // x86 + gcc/clang

namespace scnn::nn::backends {

const Kernel* sse2_kernel() {
#ifdef SCNN_HAVE_SSE2_KERNEL
  if (!common::cpu_features().sse2) return nullptr;
  // Zero-skip runs the shared scalar sparse kernel: SSE2's scalar LUT loads
  // give its dense kernel only a modest edge, and the sparse win (skipped
  // products) is lane-width independent.
  static const Kernel k{"sse2", 4, &sse2_narrow, &detail::mac_rows_wide,
                        /*wide_lanes=*/8, &detail::mac_rows_sparse_narrow,
                        &detail::mac_rows_sparse_wide};
  return &k;
#else
  return nullptr;
#endif
}

bool sse2_kernel_compiled() {
#ifdef SCNN_HAVE_SSE2_KERNEL
  return true;
#else
  return false;
#endif
}

}  // namespace scnn::nn::backends
