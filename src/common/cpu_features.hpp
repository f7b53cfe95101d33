// Runtime CPU capability probe for kernel dispatch.
//
// The SIMD MAC backends (src/nn/mac_backends/) are compiled whenever the
// compiler can target them, but executing one on a machine without the ISA
// is illegal-instruction territory — so selection is keyed on this probe,
// taken once per process. Compile-time support (was the kernel built at
// all?) is a separate question answered by the backend registry itself.
#pragma once

#include <string>

namespace scnn::common {

/// What the *current machine* can execute. All fields are false on
/// architectures the corresponding ISA does not exist for.
struct CpuFeatures {
  bool sse2 = false;  ///< x86 SSE2 (baseline on x86-64)
  bool avx2 = false;  ///< x86 AVX2 (the gather-capable tier the LUT-MAC wants)
  bool neon = false;  ///< arm NEON / AdvSIMD (baseline on aarch64)
  bool avx512f = false;   ///< x86 AVX-512 Foundation (512-bit gathers, masks)
  bool avx512bw = false;  ///< x86 AVX-512 BW (16-bit lane ops, vpermw)
  bool avx512vl = false;  ///< x86 AVX-512 VL (masked 128/256-bit forms)
  bool avx512vbmi = false;       ///< x86 AVX-512 VBMI (vpermb byte shuffles)
  bool avx512vpopcntdq = false;  ///< x86 AVX-512 VPOPCNTDQ (vpopcntq)
  bool avx512vnni = false;       ///< x86 AVX-512 VNNI (vpdpbusd byte dots)

  /// The tier the AVX-512 LUT kernels need (F for gathers + BW for 16-bit
  /// lanes + VL for the 256-bit masked forms the wide variant uses).
  [[nodiscard]] bool avx512_mac_tier() const {
    return avx512f && avx512bw && avx512vl;
  }
};

/// The probe result, taken once on first call and cached (thread-safe via
/// static-init; the answer cannot change while the process runs).
[[nodiscard]] const CpuFeatures& cpu_features();

/// Human-readable summary, e.g. "sse2 avx2" or "none" — for `scnn_cli info`
/// and bench banners.
[[nodiscard]] std::string cpu_features_summary();

}  // namespace scnn::common
