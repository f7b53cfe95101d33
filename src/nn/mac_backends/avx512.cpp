// AVX-512 mac_rows kernels: 16 output lanes per step (8 for the native
// int64 wide variant), LUT fetch vectorized with "high-half" gathers.
//
// The AVX2 kernel fetches the int16 LUT entry as the LOW half of a 32-bit
// gather, which reads 2 bytes past the addressed entry and therefore leans
// on ProductLut's back padding. Here the gather is aimed one entry lower
// (base pointer row - 1), so the target entry lands in the HIGH half of the
// 32-bit load: a single arithmetic right shift both extracts and
// sign-extends it, and the read never extends past the target entry — no
// back padding needed. The one boundary case runs the other way: the
// bottom-corner entry (qw = qx = -2^(N-1)) reads 2 bytes *before* the
// table, which ProductLut's front pad entry absorbs (static_assert below).
//
// The full-block (16-lane) fast path deliberately issues the LUT fetch as
// TWO 256-bit gathers and keeps only the accumulate/clamp chain at 512
// bits. This workload is gather-throughput-bound, and on every current x86
// core the gather unit retires a fixed number of *lanes* per cycle — a
// 16-lane zmm gather costs two ymm gathers, plus extra µops on parts that
// split 512-bit gathers (measured ~2x slower end to end than the pair of
// ymm gathers on Sapphire Rapids). The patch codes are strided scalar loads
// folded into vector inserts, which issue on the load ports alongside the
// gathers instead of competing with them. Consequence worth knowing: the
// per-lane gather rate bounds this kernel to roughly AVX2 parity on
// gather-bound hosts.
//
// Tails (tile % lanes != 0) do not fall back to the scalar kernel: the
// patch codes are fetched with a masked strided gather and the LUT lookup
// either with a masked gather (N > 8) or a vpermi2w in-register ladder over
// the whole 2^N-entry row (N <= 8, maskz row loads), so masked-off lanes
// touch no memory and the ASan leg genuinely exercises the masked loads.
// Accumulate/clamp are the same branchless min/max sequence as every other
// backend (increasing-j product order, clamp after every add —
// bit-identical per-lane semantics), with clamp events counted through
// compare masks: per step, lanes where the clamped value still equals the
// raw sum did not saturate.
//
// Compiled via function-level target attributes so the default build
// carries it; runtime selection goes through cpu_features().avx512_mac_tier
// (F for 512-bit gathers/masks, BW for 16-bit lane handling, VL for the
// masked 256-bit forms the wide variant uses).
#include "nn/mac_backends/mac_backends.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#define SCNN_HAVE_AVX512_KERNEL 1

#include <immintrin.h>

#include "common/cpu_features.hpp"
#include "nn/mac_backends/scalar_impl.hpp"

#define SCNN_AVX512_TARGET __attribute__((target("avx512f,avx512bw,avx512vl")))

namespace scnn::nn::backends {
namespace {

// High-half gathers read 2 bytes before the bottom-corner entry; the front
// pad absorbs exactly that. (No back-pad dependence — see file comment.)
static_assert(sc::ProductLut::kFrontPadEntries >= 1,
              "avx512 high-half LUT gathers need 1 int16 pad entry in front "
              "of the table");

// row[xi] sign-extended into 16 int32 lanes, via a masked 32-bit gather at
// base (row - 1): the target entry is the high half of each 4-byte load.
SCNN_AVX512_TARGET inline __m512i lut_gather16(const std::int16_t* row,
                                               __m512i xi, __mmask16 active) {
  const __m512i g = _mm512_mask_i32gather_epi32(
      _mm512_setzero_si512(), active, xi,
      reinterpret_cast<const int*>(row - 1), 2);
  return _mm512_srai_epi32(g, 16);
}

// 8-lane (256-bit) variant for the int64 wide kernel.
SCNN_AVX512_TARGET inline __m256i lut_gather8(const std::int16_t* row,
                                              __m256i xi, __mmask8 active) {
  const __m256i g = _mm256_mmask_i32gather_epi32(
      _mm256_setzero_si256(), active, xi,
      reinterpret_cast<const int*>(row - 1), 2);
  return _mm256_srai_epi32(g, 16);
}


// --- In-register LUT lookup (N <= 8) -------------------------------------
//
// A whole LUT row is 2^N int16 entries; for N <= 8 that is at most 512
// bytes = 8 zmm registers. Loading the row once per product column and
// looking entries up with a vpermi2w ladder (4 two-register permutes
// selected by index bits [7:6]) turns the second, *dependent* gather of the
// N > 8 path into pure shuffle traffic — the only gather left per column is
// the independent patch-code fetch, so the memory pipes stop serializing.
// Rows shorter than a register are brought in with maskz loads, which touch
// no memory past the row (the ASan leg exercises this).
struct LutRowRegs {
  __m512i r[8];
};

SCNN_AVX512_TARGET inline LutRowRegs load_lut_row(const std::int16_t* row,
                                                  int n_bits) {
  // row() is biased so row[qx] works for signed qx; the register file wants
  // the unbiased row start.
  const std::int16_t* rs = row - (1 << (n_bits - 1));
  const std::size_t entries = std::size_t{1} << n_bits;
  LutRowRegs regs;
  for (int k = 0; k < 8; ++k) {
    const std::size_t base = static_cast<std::size_t>(k) * 32;
    if (base + 32 <= entries) {
      regs.r[k] = _mm512_loadu_si512(rs + base);
    } else if (base < entries) {
      regs.r[k] = _mm512_maskz_loadu_epi16(
          static_cast<__mmask32>((std::uint32_t{1} << (entries - base)) - 1),
          rs + base);
    } else {
      regs.r[k] = _mm512_setzero_si512();
    }
  }
  return regs;
}

// 16 products from the register-file row: xi holds signed codes (int32
// lanes); bias to [0, 2^N) and select through the permute ladder. Inactive
// lanes carry a masked-gather zero -> index = half, an in-range lookup that
// touches no memory by construction.
SCNN_AVX512_TARGET inline __m512i lut_perm16(const LutRowRegs& regs,
                                             __m512i xi, __m512i halfv) {
  const __m512i idx = _mm512_castsi256_si512(
      _mm512_cvtepi32_epi16(_mm512_add_epi32(xi, halfv)));
  const __m512i t01 = _mm512_permutex2var_epi16(regs.r[0], idx, regs.r[1]);
  const __m512i t23 = _mm512_permutex2var_epi16(regs.r[2], idx, regs.r[3]);
  const __m512i t45 = _mm512_permutex2var_epi16(regs.r[4], idx, regs.r[5]);
  const __m512i t67 = _mm512_permutex2var_epi16(regs.r[6], idx, regs.r[7]);
  const __mmask32 b6 =
      _mm512_test_epi16_mask(idx, _mm512_set1_epi16(64));
  const __mmask32 b7 =
      _mm512_test_epi16_mask(idx, _mm512_set1_epi16(128));
  const __m512i lo = _mm512_mask_blend_epi16(b6, t01, t23);
  const __m512i hi = _mm512_mask_blend_epi16(b6, t45, t67);
  const __m512i sel = _mm512_mask_blend_epi16(b7, lo, hi);
  return _mm512_cvtepi16_epi32(_mm512_castsi512_si256(sel));
}

SCNN_AVX512_TARGET std::uint64_t avx512_narrow(
    const sc::ProductLut& lut, std::span<const std::int32_t> w,
    std::span<const std::int32_t> patches, std::span<std::int64_t> out,
    std::int64_t lo64, std::int64_t hi64) {
  const std::size_t d = w.size();
  const std::size_t tile = out.size();
  const bool row_in_regs = lut.bits() <= 8;
  const __m512i halfv = _mm512_set1_epi32(1 << (lut.bits() - 1));
  const __m512i lov = _mm512_set1_epi32(static_cast<std::int32_t>(lo64));
  const __m512i hiv = _mm512_set1_epi32(static_cast<std::int32_t>(hi64));
  const __m512i onev = _mm512_set1_epi32(1);
  // Lane t's patch row starts t*d past lane 0's — the patch gather's stride.
  const __m512i stridev = _mm512_mullo_epi32(
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
      _mm512_set1_epi32(static_cast<std::int32_t>(d)));
  std::uint64_t sat = 0;
  for (std::size_t t0 = 0; t0 < tile; t0 += 16) {
    const std::size_t rem = tile - t0 < 16 ? tile - t0 : 16;
    const __mmask16 active =
        static_cast<__mmask16>((std::uint32_t{1} << rem) - 1);
    const std::int32_t* px = patches.data() + t0 * d;
    __m512i acc = _mm512_setzero_si512();
    __m512i eqv = _mm512_setzero_si512();
    if (rem == 16) {
      for (std::size_t j = 0; j < d; ++j) {
        const std::int16_t* row = lut.row(w[j]);
        const __m256i xi0 = _mm256_setr_epi32(
            px[j], px[d + j], px[2 * d + j], px[3 * d + j], px[4 * d + j],
            px[5 * d + j], px[6 * d + j], px[7 * d + j]);
        const __m256i xi1 = _mm256_setr_epi32(
            px[8 * d + j], px[9 * d + j], px[10 * d + j], px[11 * d + j],
            px[12 * d + j], px[13 * d + j], px[14 * d + j], px[15 * d + j]);
        const __m256i g0 =
            _mm256_i32gather_epi32(reinterpret_cast<const int*>(row - 1), xi0, 2);
        const __m256i g1 =
            _mm256_i32gather_epi32(reinterpret_cast<const int*>(row - 1), xi1, 2);
        const __m512i pr = _mm512_srai_epi32(
            _mm512_inserti64x4(_mm512_castsi256_si512(g0), g1, 1), 16);
        const __m512i v = _mm512_add_epi32(acc, pr);
        acc = _mm512_min_epi32(_mm512_max_epi32(v, lov), hiv);
        eqv = _mm512_mask_add_epi32(eqv, _mm512_cmpeq_epi32_mask(v, acc), eqv,
                                    onev);
      }
    } else {
      for (std::size_t j = 0; j < d; ++j) {
        const std::int16_t* row = lut.row(w[j]);
        const __m512i idx = _mm512_add_epi32(
            stridev, _mm512_set1_epi32(static_cast<std::int32_t>(j)));
        const __m512i xi = _mm512_mask_i32gather_epi32(
            _mm512_setzero_si512(), active, idx, px, 4);
        const __m512i pr = row_in_regs
                               ? lut_perm16(load_lut_row(row, lut.bits()), xi, halfv)
                               : lut_gather16(row, xi, active);
        const __m512i v = _mm512_add_epi32(acc, pr);
        acc = _mm512_min_epi32(_mm512_max_epi32(v, lov), hiv);
        // Lanes where the clamped value equals the raw sum did not saturate.
        eqv = _mm512_mask_add_epi32(
            eqv, _mm512_mask_cmpeq_epi32_mask(active, v, acc), eqv, onev);
      }
    }
    const __m512i lo8 =
        _mm512_cvtepi32_epi64(_mm512_castsi512_si256(acc));
    const __m512i hi8 =
        _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(acc, 1));
    _mm512_mask_storeu_epi64(&out[t0], static_cast<__mmask8>(active), lo8);
    if (rem > 8)
      _mm512_mask_storeu_epi64(&out[t0 + 8],
                               static_cast<__mmask8>(active >> 8), hi8);
    sat += rem * d - static_cast<std::uint64_t>(_mm512_reduce_add_epi32(eqv));
  }
  return sat;
}

// Zero-skip variant: identical per-step body, but the product loop walks the
// row's nonzeros (j = cols[i], row = lut.row(codes[i])) instead of every
// column. Saturations count as nnz - |non-clamped| per lane.
SCNN_AVX512_TARGET std::uint64_t avx512_sparse_narrow(
    const sc::ProductLut& lut, std::span<const std::int32_t> cols,
    std::span<const std::int32_t> codes, std::size_t d,
    std::span<const std::int32_t> patches, std::span<std::int64_t> out,
    std::int64_t lo64, std::int64_t hi64) {
  const std::size_t nnz = codes.size();
  const std::size_t tile = out.size();
  const bool row_in_regs = lut.bits() <= 8;
  const __m512i halfv = _mm512_set1_epi32(1 << (lut.bits() - 1));
  const __m512i lov = _mm512_set1_epi32(static_cast<std::int32_t>(lo64));
  const __m512i hiv = _mm512_set1_epi32(static_cast<std::int32_t>(hi64));
  const __m512i onev = _mm512_set1_epi32(1);
  const __m512i stridev = _mm512_mullo_epi32(
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
      _mm512_set1_epi32(static_cast<std::int32_t>(d)));
  std::uint64_t sat = 0;
  for (std::size_t t0 = 0; t0 < tile; t0 += 16) {
    const std::size_t rem = tile - t0 < 16 ? tile - t0 : 16;
    const __mmask16 active =
        static_cast<__mmask16>((std::uint32_t{1} << rem) - 1);
    const std::int32_t* px = patches.data() + t0 * d;
    __m512i acc = _mm512_setzero_si512();
    __m512i eqv = _mm512_setzero_si512();
    if (rem == 16) {
      for (std::size_t i = 0; i < nnz; ++i) {
        const std::int16_t* row = lut.row(codes[i]);
        const std::size_t j = static_cast<std::size_t>(cols[i]);
        const __m256i xi0 = _mm256_setr_epi32(
            px[j], px[d + j], px[2 * d + j], px[3 * d + j], px[4 * d + j],
            px[5 * d + j], px[6 * d + j], px[7 * d + j]);
        const __m256i xi1 = _mm256_setr_epi32(
            px[8 * d + j], px[9 * d + j], px[10 * d + j], px[11 * d + j],
            px[12 * d + j], px[13 * d + j], px[14 * d + j], px[15 * d + j]);
        const __m256i g0 =
            _mm256_i32gather_epi32(reinterpret_cast<const int*>(row - 1), xi0, 2);
        const __m256i g1 =
            _mm256_i32gather_epi32(reinterpret_cast<const int*>(row - 1), xi1, 2);
        const __m512i pr = _mm512_srai_epi32(
            _mm512_inserti64x4(_mm512_castsi256_si512(g0), g1, 1), 16);
        const __m512i v = _mm512_add_epi32(acc, pr);
        acc = _mm512_min_epi32(_mm512_max_epi32(v, lov), hiv);
        eqv = _mm512_mask_add_epi32(eqv, _mm512_cmpeq_epi32_mask(v, acc), eqv,
                                    onev);
      }
    } else {
      for (std::size_t i = 0; i < nnz; ++i) {
        const std::int16_t* row = lut.row(codes[i]);
        const __m512i idx =
            _mm512_add_epi32(stridev, _mm512_set1_epi32(cols[i]));
        const __m512i xi = _mm512_mask_i32gather_epi32(
            _mm512_setzero_si512(), active, idx, px, 4);
        const __m512i pr = row_in_regs
                               ? lut_perm16(load_lut_row(row, lut.bits()), xi, halfv)
                               : lut_gather16(row, xi, active);
        const __m512i v = _mm512_add_epi32(acc, pr);
        acc = _mm512_min_epi32(_mm512_max_epi32(v, lov), hiv);
        eqv = _mm512_mask_add_epi32(
            eqv, _mm512_mask_cmpeq_epi32_mask(active, v, acc), eqv, onev);
      }
    }
    const __m512i lo8 =
        _mm512_cvtepi32_epi64(_mm512_castsi512_si256(acc));
    const __m512i hi8 =
        _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(acc, 1));
    _mm512_mask_storeu_epi64(&out[t0], static_cast<__mmask8>(active), lo8);
    if (rem > 8)
      _mm512_mask_storeu_epi64(&out[t0 + 8],
                               static_cast<__mmask8>(active >> 8), hi8);
    sat += rem * nnz - static_cast<std::uint64_t>(_mm512_reduce_add_epi32(eqv));
  }
  return sat;
}

// Native int64 wide kernel: 8 lanes, for n_bits + accum_bits > 30 where the
// int32 rails no longer fit. One masked loop serves full blocks and tails
// alike (wide configs are cold enough that the patch-code gather is fine).
SCNN_AVX512_TARGET std::uint64_t avx512_wide(
    const sc::ProductLut& lut, std::span<const std::int32_t> w,
    std::span<const std::int32_t> patches, std::span<std::int64_t> out,
    std::int64_t lo64, std::int64_t hi64) {
  const std::size_t d = w.size();
  const std::size_t tile = out.size();
  const __m512i lov = _mm512_set1_epi64(lo64);
  const __m512i hiv = _mm512_set1_epi64(hi64);
  const __m512i onev = _mm512_set1_epi64(1);
  const __m256i stridev = _mm256_mullo_epi32(
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
      _mm256_set1_epi32(static_cast<std::int32_t>(d)));
  std::uint64_t sat = 0;
  for (std::size_t t0 = 0; t0 < tile; t0 += 8) {
    const std::size_t rem = tile - t0 < 8 ? tile - t0 : 8;
    const __mmask8 active =
        static_cast<__mmask8>((std::uint32_t{1} << rem) - 1);
    const std::int32_t* px = patches.data() + t0 * d;
    __m512i acc = _mm512_setzero_si512();
    __m512i eqv = _mm512_setzero_si512();
    for (std::size_t j = 0; j < d; ++j) {
      const std::int16_t* row = lut.row(w[j]);
      const __m256i idx = _mm256_add_epi32(
          stridev, _mm256_set1_epi32(static_cast<std::int32_t>(j)));
      const __m256i xi = _mm256_mmask_i32gather_epi32(
          _mm256_setzero_si256(), active, idx, px, 4);
      const __m512i pr = _mm512_cvtepi32_epi64(lut_gather8(row, xi, active));
      const __m512i v = _mm512_add_epi64(acc, pr);
      acc = _mm512_min_epi64(_mm512_max_epi64(v, lov), hiv);
      eqv = _mm512_mask_add_epi64(
          eqv, _mm512_mask_cmpeq_epi64_mask(active, v, acc), eqv, onev);
    }
    _mm512_mask_storeu_epi64(&out[t0], active, acc);
    sat += rem * d - static_cast<std::uint64_t>(_mm512_reduce_add_epi64(eqv));
  }
  return sat;
}

SCNN_AVX512_TARGET std::uint64_t avx512_sparse_wide(
    const sc::ProductLut& lut, std::span<const std::int32_t> cols,
    std::span<const std::int32_t> codes, std::size_t d,
    std::span<const std::int32_t> patches, std::span<std::int64_t> out,
    std::int64_t lo64, std::int64_t hi64) {
  const std::size_t nnz = codes.size();
  const std::size_t tile = out.size();
  const __m512i lov = _mm512_set1_epi64(lo64);
  const __m512i hiv = _mm512_set1_epi64(hi64);
  const __m512i onev = _mm512_set1_epi64(1);
  const __m256i stridev = _mm256_mullo_epi32(
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
      _mm256_set1_epi32(static_cast<std::int32_t>(d)));
  std::uint64_t sat = 0;
  for (std::size_t t0 = 0; t0 < tile; t0 += 8) {
    const std::size_t rem = tile - t0 < 8 ? tile - t0 : 8;
    const __mmask8 active =
        static_cast<__mmask8>((std::uint32_t{1} << rem) - 1);
    const std::int32_t* px = patches.data() + t0 * d;
    __m512i acc = _mm512_setzero_si512();
    __m512i eqv = _mm512_setzero_si512();
    for (std::size_t i = 0; i < nnz; ++i) {
      const std::int16_t* row = lut.row(codes[i]);
      const __m256i idx = _mm256_add_epi32(stridev, _mm256_set1_epi32(cols[i]));
      const __m256i xi = _mm256_mmask_i32gather_epi32(
          _mm256_setzero_si256(), active, idx, px, 4);
      const __m512i pr = _mm512_cvtepi32_epi64(lut_gather8(row, xi, active));
      const __m512i v = _mm512_add_epi64(acc, pr);
      acc = _mm512_min_epi64(_mm512_max_epi64(v, lov), hiv);
      eqv = _mm512_mask_add_epi64(
          eqv, _mm512_mask_cmpeq_epi64_mask(active, v, acc), eqv, onev);
    }
    _mm512_mask_storeu_epi64(&out[t0], active, acc);
    sat += rem * nnz - static_cast<std::uint64_t>(_mm512_reduce_add_epi64(eqv));
  }
  return sat;
}

}  // namespace
}  // namespace scnn::nn::backends

#endif  // x86 + gcc/clang

namespace scnn::nn::backends {

const Kernel* avx512_kernel() {
#ifdef SCNN_HAVE_AVX512_KERNEL
  if (!common::cpu_features().avx512_mac_tier()) return nullptr;
  static const Kernel k{"avx512", 16, &avx512_narrow, &avx512_wide,
                        /*wide_lanes=*/8, &avx512_sparse_narrow,
                        &avx512_sparse_wide};
  return &k;
#else
  return nullptr;
#endif
}

bool avx512_kernel_compiled() {
#ifdef SCNN_HAVE_AVX512_KERNEL
  return true;
#else
  return false;
#endif
}

}  // namespace scnn::nn::backends
