// NEON mac_rows kernel: 4 output lanes per step, scalar gathers (NEON has
// no gather) feeding vector accumulate/clamp/saturation-count — the arm
// counterpart of the SSE2 backend, with native vmin/vmaxq_s32 for the
// clamp. Per-lane semantics are the scalar kernel's exactly.
#include "nn/mac_backends/mac_backends.hpp"

#if defined(__ARM_NEON) || defined(__aarch64__)
#define SCNN_HAVE_NEON_KERNEL 1

#include <arm_neon.h>

#include "common/cpu_features.hpp"
#include "nn/mac_backends/scalar_impl.hpp"

namespace scnn::nn::backends {
namespace {

std::uint64_t neon_narrow(const sc::ProductLut& lut,
                          std::span<const std::int32_t> w,
                          std::span<const std::int32_t> patches,
                          std::span<std::int64_t> out, std::int64_t lo64,
                          std::int64_t hi64) {
  const std::size_t d = w.size();
  const std::size_t tile = out.size();
  const std::int32_t lo = static_cast<std::int32_t>(lo64);
  const std::int32_t hi = static_cast<std::int32_t>(hi64);
  const int32x4_t lov = vdupq_n_s32(lo);
  const int32x4_t hiv = vdupq_n_s32(hi);
  std::uint64_t sat = 0;
  std::size_t t0 = 0;
  for (; t0 + 4 <= tile; t0 += 4) {
    const std::int32_t* px = patches.data() + t0 * d;
    int32x4_t acc = vdupq_n_s32(0);
    uint32x4_t satv = vdupq_n_u32(0);
    for (std::size_t j = 0; j < d; ++j) {
      const std::int16_t* row = lut.row(w[j]);
      const std::int32_t pl[4] = {row[px[j]], row[px[d + j]],
                                  row[px[2 * d + j]], row[px[3 * d + j]]};
      const int32x4_t v = vaddq_s32(acc, vld1q_s32(pl));
      // Comparison masks are all-ones; shifting right by 31 leaves one
      // count per clamp event per lane.
      satv = vaddq_u32(satv, vshrq_n_u32(vcltq_s32(v, lov), 31));
      satv = vaddq_u32(satv, vshrq_n_u32(vcgtq_s32(v, hiv), 31));
      acc = vminq_s32(vmaxq_s32(v, lov), hiv);
    }
    std::int32_t lanes[4];
    vst1q_s32(lanes, acc);
    for (int t = 0; t < 4; ++t) out[t0 + static_cast<std::size_t>(t)] = lanes[t];
    std::uint32_t sats[4];
    vst1q_u32(sats, satv);
    sat += static_cast<std::uint64_t>(sats[0]) + sats[1] + sats[2] + sats[3];
  }
  if (t0 < tile)
    sat += detail::mac_rows_blocked<std::int32_t>(
        lut, w, patches.subspan(t0 * d), out.subspan(t0), lo, hi);
  return sat;
}

}  // namespace
}  // namespace scnn::nn::backends

#endif  // arm neon

namespace scnn::nn::backends {

const Kernel* neon_kernel() {
#ifdef SCNN_HAVE_NEON_KERNEL
  if (!common::cpu_features().neon) return nullptr;
  // Zero-skip runs the shared scalar sparse kernel (NEON has no gather; the
  // sparse win is the skipped products, not lane width).
  static const Kernel k{"neon", 4, &neon_narrow, &detail::mac_rows_wide,
                        /*wide_lanes=*/8, &detail::mac_rows_sparse_narrow,
                        &detail::mac_rows_sparse_wide};
  return &k;
#else
  return nullptr;
#endif
}

bool neon_kernel_compiled() {
#ifdef SCNN_HAVE_NEON_KERNEL
  return true;
#else
  return false;
#endif
}

}  // namespace scnn::nn::backends
