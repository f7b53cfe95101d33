// AVX2 mac_rows kernel: 8 output lanes per step, LUT fetch vectorized.
//
// For a fixed product index j the 8 lanes need patches[t*d + j] (stride d)
// and then ProductLut row[code]. Only the LUT fetch uses vpgatherdd: the
// strided patch codes are cheaper as eight scalar loads folded into vector
// inserts (measured 3-4x the all-gather variant on server Xeons — the index
// gather's latency serializes against the dependent LUT gather, while
// scalar loads issue on the load ports alongside it). The int16 LUT entries
// are fetched as 32-bit gathers and sign-extended with a shift pair;
// ProductLut pads its table so the 2-byte overread of the very last entry
// stays inside the allocation.
//
// Accumulate/clamp are the same branchless min/max sequence as the scalar
// kernel, so per-lane semantics (increasing-j product order, clamp after
// every add) are bit-identical. Saturation events are counted as
// d - |{j : v == clamp(v)}| per lane — one compare per step instead of two,
// exact because at most one rail can clamp any given add.
//
// Compiled via the function-level target attribute so no special flags are
// needed; runtime selection goes through cpu_features().avx2.
#include "nn/mac_backends/mac_backends.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#define SCNN_HAVE_AVX2_KERNEL 1

#include <immintrin.h>

#include "common/cpu_features.hpp"
#include "nn/mac_backends/scalar_impl.hpp"

namespace scnn::nn::backends {
namespace {

// The 32-bit gather at byte offset 2*i reads entry i and entry i+1, so the
// top-corner lookup needs one whole spare entry plus the second half of the
// 4-byte read — exactly ProductLut's two back-pad entries. If the pad ever
// shrinks, this kernel overreads the allocation.
static_assert(sc::ProductLut::kBackPadEntries >= 2,
              "avx2 low-half LUT gathers need 2 int16 pad entries (one "
              "32-bit gather unit) behind the table");

__attribute__((target("avx2"))) std::uint64_t avx2_narrow(
    const sc::ProductLut& lut, std::span<const std::int32_t> w,
    std::span<const std::int32_t> patches, std::span<std::int64_t> out,
    std::int64_t lo64, std::int64_t hi64) {
  const std::size_t d = w.size();
  const std::size_t tile = out.size();
  const std::int32_t lo = static_cast<std::int32_t>(lo64);
  const std::int32_t hi = static_cast<std::int32_t>(hi64);
  const __m256i lov = _mm256_set1_epi32(lo);
  const __m256i hiv = _mm256_set1_epi32(hi);
  std::uint64_t sat = 0;
  std::size_t t0 = 0;
  for (; t0 + 8 <= tile; t0 += 8) {
    const std::int32_t* px = patches.data() + t0 * d;
    __m256i acc = _mm256_setzero_si256();
    __m256i eqv = _mm256_setzero_si256();
    for (std::size_t j = 0; j < d; ++j) {
      const std::int16_t* row = lut.row(w[j]);
      // Lane t's activation code px[t*d + j], via scalar loads (see above).
      const __m256i xi = _mm256_setr_epi32(px[j], px[d + j], px[2 * d + j],
                                           px[3 * d + j], px[4 * d + j],
                                           px[5 * d + j], px[6 * d + j],
                                           px[7 * d + j]);
      // row[code] as the low 16 bits of a 32-bit gather, sign-extended.
      __m256i pr =
          _mm256_i32gather_epi32(reinterpret_cast<const int*>(row), xi, 2);
      pr = _mm256_srai_epi32(_mm256_slli_epi32(pr, 16), 16);
      const __m256i v = _mm256_add_epi32(acc, pr);
      acc = _mm256_min_epi32(_mm256_max_epi32(v, lov), hiv);
      // cmpeq mask is 0/-1; subtracting counts the NON-clamped steps.
      eqv = _mm256_sub_epi32(eqv, _mm256_cmpeq_epi32(v, acc));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(&out[t0]),
                        _mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(&out[t0 + 4]),
                        _mm256_cvtepi32_epi64(_mm256_extracti128_si256(acc, 1)));
    const __m128i s = _mm_add_epi32(_mm256_castsi256_si128(eqv),
                                    _mm256_extracti128_si256(eqv, 1));
    const __m128i s2 = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
    const __m128i s3 =
        _mm_add_epi32(s2, _mm_shuffle_epi32(s2, _MM_SHUFFLE(2, 3, 0, 1)));
    sat += 8 * d - static_cast<std::uint32_t>(_mm_cvtsi128_si32(s3));
  }
  if (t0 < tile)
    sat += detail::mac_rows_blocked<std::int32_t>(
        lut, w, patches.subspan(t0 * d), out.subspan(t0), lo, hi);
  return sat;
}

// Zero-skip variant: identical per-step body, but the product loop walks the
// row's nonzeros (j = cols[i], row = lut.row(codes[i])) instead of every
// column — the cols load is a sequential int32 read, so the step cost
// matches the dense kernel's and the win is exactly the skipped products.
// Saturations count as nnz - |non-clamped| per lane, same identity as above.
__attribute__((target("avx2"))) std::uint64_t avx2_sparse_narrow(
    const sc::ProductLut& lut, std::span<const std::int32_t> cols,
    std::span<const std::int32_t> codes, std::size_t d,
    std::span<const std::int32_t> patches, std::span<std::int64_t> out,
    std::int64_t lo64, std::int64_t hi64) {
  const std::size_t nnz = codes.size();
  const std::size_t tile = out.size();
  const std::int32_t lo = static_cast<std::int32_t>(lo64);
  const std::int32_t hi = static_cast<std::int32_t>(hi64);
  const __m256i lov = _mm256_set1_epi32(lo);
  const __m256i hiv = _mm256_set1_epi32(hi);
  std::uint64_t sat = 0;
  std::size_t t0 = 0;
  for (; t0 + 8 <= tile; t0 += 8) {
    const std::int32_t* px = patches.data() + t0 * d;
    __m256i acc = _mm256_setzero_si256();
    __m256i eqv = _mm256_setzero_si256();
    for (std::size_t i = 0; i < nnz; ++i) {
      const std::int16_t* row = lut.row(codes[i]);
      const std::size_t j = static_cast<std::size_t>(cols[i]);
      const __m256i xi = _mm256_setr_epi32(px[j], px[d + j], px[2 * d + j],
                                           px[3 * d + j], px[4 * d + j],
                                           px[5 * d + j], px[6 * d + j],
                                           px[7 * d + j]);
      __m256i pr =
          _mm256_i32gather_epi32(reinterpret_cast<const int*>(row), xi, 2);
      pr = _mm256_srai_epi32(_mm256_slli_epi32(pr, 16), 16);
      const __m256i v = _mm256_add_epi32(acc, pr);
      acc = _mm256_min_epi32(_mm256_max_epi32(v, lov), hiv);
      eqv = _mm256_sub_epi32(eqv, _mm256_cmpeq_epi32(v, acc));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(&out[t0]),
                        _mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(&out[t0 + 4]),
                        _mm256_cvtepi32_epi64(_mm256_extracti128_si256(acc, 1)));
    const __m128i s = _mm_add_epi32(_mm256_castsi256_si128(eqv),
                                    _mm256_extracti128_si256(eqv, 1));
    const __m128i s2 = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
    const __m128i s3 =
        _mm_add_epi32(s2, _mm_shuffle_epi32(s2, _MM_SHUFFLE(2, 3, 0, 1)));
    sat += 8 * nnz - static_cast<std::uint32_t>(_mm_cvtsi128_si32(s3));
  }
  if (t0 < tile)
    sat += detail::mac_rows_sparse_blocked<std::int32_t>(
        lut, cols, codes, d, patches.subspan(t0 * d), out.subspan(t0), lo, hi);
  return sat;
}

}  // namespace
}  // namespace scnn::nn::backends

#endif  // x86 + gcc/clang

namespace scnn::nn::backends {

const Kernel* avx2_kernel() {
#ifdef SCNN_HAVE_AVX2_KERNEL
  if (!common::cpu_features().avx2) return nullptr;
  static const Kernel k{"avx2", 8, &avx2_narrow, &detail::mac_rows_wide,
                        /*wide_lanes=*/8, &avx2_sparse_narrow,
                        &detail::mac_rows_sparse_wide};
  return &k;
#else
  return nullptr;
#endif
}

bool avx2_kernel_compiled() {
#ifdef SCNN_HAVE_AVX2_KERNEL
  return true;
#else
  return false;
#endif
}

}  // namespace scnn::nn::backends
