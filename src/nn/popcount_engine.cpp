#include "nn/popcount_engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/cpu_features.hpp"
#include "common/fixed_point.hpp"
#include "core/ld_sequence.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#define SCNN_HAVE_POPCNT_SIMD 1
#include <immintrin.h>
#define SCNN_POPCNT_TARGET \
  __attribute__((target("avx2,avx512f,avx512vpopcntdq")))
#endif

namespace scnn::nn {

namespace {

constexpr std::uint64_t chunk_mask(std::uint32_t nbits) {
  return nbits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << nbits) - 1;
}

/// Scalar lanes of the mac_rows loop: per lane, issue the listed products in
/// increasing order with the clamp after every add; returns clamp events.
/// `cols == nullptr` walks a dense row (j = i); otherwise j = cols[i].
std::uint64_t scalar_lanes(const std::uint64_t* streams, std::size_t words,
                           std::uint32_t half, int b,
                           const std::int32_t* codes, const std::int32_t* cols,
                           std::size_t count, std::size_t d,
                           const std::int32_t* px, std::size_t lanes,
                           std::int64_t* outp, std::int64_t lo,
                           std::int64_t hi) {
  std::uint64_t sat = 0;
  for (std::size_t t = 0; t < lanes; ++t) {
    const std::int32_t* patch = px + t * d;
    std::int64_t acc = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::int32_t qw = codes[i];
      const auto k = static_cast<std::uint32_t>(qw < 0 ? -qw : qw);
      if (k == 0) continue;  // +0 to an in-range accumulator: no-op, no clamp
      const std::size_t j = cols ? static_cast<std::size_t>(cols[i]) : i;
      const std::uint64_t* row =
          streams + static_cast<std::size_t>(
                        static_cast<std::uint32_t>(patch[j]) + half) *
                        words;
      std::uint64_t p = 0;
      for (std::uint32_t off = 0; off < k; off += static_cast<std::uint32_t>(b)) {
        const std::uint32_t nbits =
            k - off < static_cast<std::uint32_t>(b) ? k - off
                                                    : static_cast<std::uint32_t>(b);
        p += static_cast<std::uint64_t>(__builtin_popcountll(
            (row[off >> 6] >> (off & 63)) & chunk_mask(nbits)));
      }
      std::int64_t prod = 2 * static_cast<std::int64_t>(p) - k;
      if (qw < 0) prod = -prod;
      acc += prod;
      if (acc < lo) {
        acc = lo;
        ++sat;
      } else if (acc > hi) {
        acc = hi;
        ++sat;
      }
    }
    outp[t] = acc;
  }
  return sat;
}

#ifdef SCNN_HAVE_POPCNT_SIMD

/// 8-lane vpopcntdq block: lanes are 8 consecutive output elements sharing
/// the product list; each product is ceil(k/b) gathered-word popcounts.
/// Saturations count as 8*issued - |non-clamped steps| (at most one rail can
/// clamp a given add), exactly like the LUT kernels.
SCNN_POPCNT_TARGET std::uint64_t simd_block(
    const std::uint64_t* streams, std::size_t words, std::uint32_t half, int b,
    const std::int32_t* codes, const std::int32_t* cols, std::size_t count,
    std::size_t d, const std::int32_t* px, std::int64_t* out8, std::int64_t lo,
    std::int64_t hi) {
  const __m512i lov = _mm512_set1_epi64(lo);
  const __m512i hiv = _mm512_set1_epi64(hi);
  const __m512i onev = _mm512_set1_epi64(1);
  const __m256i halfv = _mm256_set1_epi32(static_cast<std::int32_t>(half));
  const __m256i wordsv = _mm256_set1_epi32(static_cast<std::int32_t>(words));
  __m512i acc = _mm512_setzero_si512();
  __m512i eqv = _mm512_setzero_si512();
  std::uint64_t issued = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::int32_t qw = codes[i];
    const auto k = static_cast<std::uint32_t>(qw < 0 ? -qw : qw);
    if (k == 0) continue;
    const std::size_t j = cols ? static_cast<std::size_t>(cols[i]) : i;
    // Offset-binary images u = qx + half of the 8 lanes' activation codes,
    // then each lane's packed-stream row starts at u * words.
    const __m256i xi = _mm256_setr_epi32(
        static_cast<std::int32_t>(px[j]), static_cast<std::int32_t>(px[d + j]),
        static_cast<std::int32_t>(px[2 * d + j]),
        static_cast<std::int32_t>(px[3 * d + j]),
        static_cast<std::int32_t>(px[4 * d + j]),
        static_cast<std::int32_t>(px[5 * d + j]),
        static_cast<std::int32_t>(px[6 * d + j]),
        static_cast<std::int32_t>(px[7 * d + j]));
    const __m256i base =
        _mm256_mullo_epi32(_mm256_add_epi32(xi, halfv), wordsv);
    __m512i p = _mm512_setzero_si512();
    for (std::uint32_t off = 0; off < k; off += static_cast<std::uint32_t>(b)) {
      const std::uint32_t nbits =
          k - off < static_cast<std::uint32_t>(b) ? k - off
                                                  : static_cast<std::uint32_t>(b);
      const __m256i idx = _mm256_add_epi32(
          base, _mm256_set1_epi32(static_cast<std::int32_t>(off >> 6)));
      const __m512i wv = _mm512_i32gather_epi64(
          idx, reinterpret_cast<const long long*>(streams), 8);
      const __m512i mv =
          _mm512_and_si512(_mm512_srli_epi64(wv, off & 63),
                           _mm512_set1_epi64(
                               static_cast<std::int64_t>(chunk_mask(nbits))));
      p = _mm512_add_epi64(p, _mm512_popcnt_epi64(mv));
    }
    __m512i prod = _mm512_sub_epi64(_mm512_add_epi64(p, p),
                                    _mm512_set1_epi64(k));
    if (qw < 0) prod = _mm512_sub_epi64(_mm512_setzero_si512(), prod);
    const __m512i v = _mm512_add_epi64(acc, prod);
    acc = _mm512_min_epi64(_mm512_max_epi64(v, lov), hiv);
    eqv = _mm512_mask_add_epi64(eqv, _mm512_cmpeq_epi64_mask(v, acc), eqv,
                                onev);
    ++issued;
  }
  _mm512_storeu_si512(out8, acc);
  return 8 * issued -
         static_cast<std::uint64_t>(_mm512_reduce_add_epi64(eqv));
}

#endif  // SCNN_HAVE_POPCNT_SIMD

void account_enable_cycles(std::span<const std::int32_t> w, std::uint64_t times,
                           obs::Pow2Hist& k_hist) {
  for (const std::int32_t q : w)
    k_hist.record(static_cast<std::uint64_t>(std::abs(q)), times);
}

}  // namespace

bool popcount_bit_parallel_ok(int n_bits, int b) {
  return b >= 1 && b <= 64 && (b & (b - 1)) == 0 &&
         b <= (1 << (n_bits - 1));
}

bool backends::popcount_simd_compiled() {
#ifdef SCNN_HAVE_POPCNT_SIMD
  return true;
#else
  return false;
#endif
}

namespace {

bool popcount_simd_supported() {
  // SCNN_POPCOUNT_SCALAR=1 pins the scalar __builtin_popcountll path even
  // where vpopcntdq is available — the honest baseline for the bit-parallel
  // speedup benches, and the way tests cover the scalar datapath on AVX-512
  // machines. Results are bit-identical either way.
  if (const char* env = std::getenv("SCNN_POPCOUNT_SCALAR"); env && *env &&
      std::string_view{env} != "0")
    return false;
  const common::CpuFeatures& f = common::cpu_features();
  return backends::popcount_simd_compiled() && f.avx2 && f.avx512f &&
         f.avx512vpopcntdq;
}

}  // namespace

const char* popcount_backend_name() {
  return popcount_simd_supported() ? "popcount-avx512" : "popcount";
}

int popcount_backend_lanes() { return popcount_simd_supported() ? 8 : 1; }

PopcountEngine::PopcountEngine(int n_bits, int accum_bits, int bit_parallel,
                               Sparsity sparsity)
    : MacEngine(n_bits, accum_bits),
      b_(bit_parallel),
      half_(std::uint32_t{1} << (n_bits - 1)),
      words_((half_ + 63) / 64),
      simd_(popcount_simd_supported()),
      zero_skip_(resolve_zero_skip(sparsity, /*annihilates=*/true, "proposed")) {
  if (n_bits < 2 || n_bits > 12)
    throw std::invalid_argument(
        "PopcountEngine: n_bits out of supported range [2,12]");
  if (!popcount_bit_parallel_ok(n_bits, b_))
    throw std::invalid_argument(
        "PopcountEngine: bit_parallel = " + std::to_string(b_) +
        " must be a power of two in [1, min(64, 2^(n_bits-1))] = [1, " +
        std::to_string(std::min<std::uint32_t>(64, half_)) +
        "] (the packed-stream popcount datapath counts whole b-bit columns "
        "inside one 64-bit word)");
  // Pack every offset-binary code's stream prefix: bit t-1 of row u is the
  // FSM-MUX stream bit of u at (1-based) cycle t. k never exceeds 2^(N-1),
  // so 2^(N-1) bits per row suffice.
  const core::FsmMuxSequence seq(n_bits);
  const std::size_t codes = std::size_t{1} << n_bits;
  streams_.assign(codes * words_, 0);
  for (std::size_t u = 0; u < codes; ++u)
    for (std::uint32_t t = 1; t <= half_; ++t)
      if (seq.stream_bit(static_cast<std::uint32_t>(u), t))
        streams_[u * words_ + ((t - 1) >> 6)] |= std::uint64_t{1}
                                                 << ((t - 1) & 63);
}

std::int64_t PopcountEngine::product(std::int32_t qx, std::int32_t qw) const {
  const auto k = static_cast<std::uint32_t>(qw < 0 ? -qw : qw);
  if (k == 0) return 0;
  const std::uint64_t* row =
      streams_.data() +
      static_cast<std::size_t>(static_cast<std::uint32_t>(qx) + half_) * words_;
  std::uint64_t p = 0;
  for (std::uint32_t off = 0; off < k; off += static_cast<std::uint32_t>(b_)) {
    const std::uint32_t nbits =
        k - off < static_cast<std::uint32_t>(b_) ? k - off
                                                 : static_cast<std::uint32_t>(b_);
    p += static_cast<std::uint64_t>(__builtin_popcountll(
        (row[off >> 6] >> (off & 63)) & chunk_mask(nbits)));
  }
  const std::int64_t prod = 2 * static_cast<std::int64_t>(p) - k;
  return qw < 0 ? -prod : prod;
}

std::int64_t PopcountEngine::mac_impl_(std::span<const std::int32_t> w,
                                       std::span<const std::int32_t> x,
                                       MacStats* stats) const {
  assert(w.size() == x.size());
  const int bits = n_ + a_;
  const std::int64_t lo = common::int_min_of(bits), hi = common::int_max_of(bits);
  std::int64_t acc = 0;
  std::uint64_t sat = 0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    acc += product(x[i], w[i]);
    if (acc < lo) {
      acc = lo;
      ++sat;
    } else if (acc > hi) {
      acc = hi;
      ++sat;
    }
  }
  if (stats) {
    ++stats->macs;
    stats->products += w.size();
    stats->saturations += sat;
    if (stats->detail) account_enable_cycles(w, 1, stats->k_hist);
  }
  return acc;
}

std::int64_t PopcountEngine::mac(std::span<const std::int32_t> w,
                                 std::span<const std::int32_t> x) const {
  return mac_impl_(w, x, nullptr);
}

std::int64_t PopcountEngine::mac(std::span<const std::int32_t> w,
                                 std::span<const std::int32_t> x,
                                 MacStats& stats) const {
  return mac_impl_(w, x, &stats);
}

void PopcountEngine::mac_rows(const WeightCodeView& w,
                              std::span<const std::int32_t> patches,
                              std::span<std::int64_t> out,
                              MacStats& stats) const {
  const std::size_t d = w.size();
  const std::size_t tile = out.size();
  assert(patches.size() == d * tile);
  const int bits = n_ + a_;
  const std::int64_t lo = common::int_min_of(bits), hi = common::int_max_of(bits);
  const bool sparse = zero_skip_ && w.packed() && w.nnz() < d;
  const std::int32_t* codes = sparse ? w.codes().data() : w.dense().data();
  const std::int32_t* cols = sparse ? w.cols().data() : nullptr;
  const std::size_t count = sparse ? w.nnz() : d;
  std::uint64_t sat = 0;
  std::size_t t0 = 0;
#ifdef SCNN_HAVE_POPCNT_SIMD
  if (simd_)
    for (; t0 + 8 <= tile; t0 += 8)
      sat += simd_block(streams_.data(), words_, half_, b_, codes, cols, count,
                        d, patches.data() + t0 * d, &out[t0], lo, hi);
#endif
  if (t0 < tile)
    sat += scalar_lanes(streams_.data(), words_, half_, b_, codes, cols, count,
                        d, patches.data() + t0 * d, tile - t0, &out[t0], lo, hi);
  if (sparse) stats.skipped_products += (d - w.nnz()) * tile;
  stats.macs += tile;
  stats.products += tile * d;
  stats.saturations += sat;
  // k accounting always walks the dense row (zeros land in bucket 0), so
  // detail-mode histograms are identical across scheduling modes.
  if (stats.detail && tile > 0)
    account_enable_cycles(w.dense(), tile, stats.k_hist);
}

MacEngine::Description PopcountEngine::describe() const {
  return {.backend = popcount_backend_name(),
          .lanes = popcount_backend_lanes(),
          .sparsity = zero_skip_ ? "zero-skip" : "dense"};
}

}  // namespace scnn::nn
