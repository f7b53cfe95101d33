#include <cstdlib>
#include <stdexcept>

#include "common/cpu_features.hpp"
#include "nn/mac_backends/bitplane.hpp"
#include "nn/mac_backends/mac_backends.hpp"

namespace scnn::nn {

std::string to_string(MacBackend backend) {
  switch (backend) {
    case MacBackend::kAuto: return "auto";
    case MacBackend::kScalar: return "scalar";
    case MacBackend::kSimd: return "simd";
  }
  throw std::invalid_argument("to_string: invalid MacBackend");
}

MacBackend mac_backend_from_string(std::string_view s) {
  if (s == "auto") return MacBackend::kAuto;
  if (s == "scalar") return MacBackend::kScalar;
  if (s == "simd") return MacBackend::kSimd;
  throw std::invalid_argument("unknown mac backend '" + std::string(s) +
                              "' (expected auto, scalar, or simd)");
}

namespace backends {

const Kernel* best_simd_kernel() {
  if (const Kernel* k = avx512_kernel()) return k;
  if (const Kernel* k = avx2_kernel()) return k;
  if (const Kernel* k = neon_kernel()) return k;
  if (const Kernel* k = sse2_kernel()) return k;
  return nullptr;
}

const Kernel* kernel_by_name(std::string_view name) {
  for (const Kernel* k : available_kernels())
    if (name == k->name) return k;
  return nullptr;
}

const Kernel& select_kernel(MacBackend backend) {
  if (backend == MacBackend::kAuto) {
    // Global override hook for CI and A/B runs: force every kAuto engine in
    // the process onto one backend without touching any call site.
    // Explicitly-requested backends (kScalar/kSimd) are never overridden.
    // The env accepts concrete kernel names too ("avx2", "avx512", ...) —
    // those must name a runnable kernel or we throw, since a
    // silently-ignored forced backend would invalidate an A/B run.
    if (const char* env = std::getenv("SCNN_BACKEND"); env && *env) {
      const std::string_view name{env};
      if (const Kernel* k = kernel_by_name(name)) return *k;
      backend = mac_backend_from_string(name);
    }
  }
  switch (backend) {
    case MacBackend::kScalar:
      return scalar_kernel();
    case MacBackend::kSimd:
      if (const Kernel* k = best_simd_kernel()) return *k;
      {
        std::string names;
        for (const Kernel* k : available_kernels())
          names += std::string(names.empty() ? "" : ", ") + k->name;
        throw std::invalid_argument(
            "backend = simd, but no SIMD mac_rows kernel is compiled and "
            "supported on this machine (available: " + names + ")");
      }
    case MacBackend::kAuto: {
      const Kernel* k = best_simd_kernel();
      return k ? *k : scalar_kernel();
    }
  }
  throw std::invalid_argument("select_kernel: invalid MacBackend");
}

std::vector<const Kernel*> available_kernels() {
  std::vector<const Kernel*> ks{&scalar_kernel()};
  if (const Kernel* k = sse2_kernel()) ks.push_back(k);
  if (const Kernel* k = neon_kernel()) ks.push_back(k);
  if (const Kernel* k = avx2_kernel()) ks.push_back(k);
  if (const Kernel* k = avx512_kernel()) ks.push_back(k);
  return ks;
}

std::vector<KernelSupport> kernel_support() {
  const common::CpuFeatures& f = common::cpu_features();
  return {
      {"scalar", true, true},
      {"sse2", sse2_kernel_compiled(), f.sse2},
      {"neon", neon_kernel_compiled(), f.neon},
      {"avx2", avx2_kernel_compiled(), f.avx2},
      {"avx512", avx512_kernel_compiled(), f.avx512_mac_tier()},
      // The proposed engine's certified bit-plane stage kernels, which run
      // in front of the SIMD kernels above (see bitplane.hpp).
      {"bitplane-avx2", bitplane::avx2_kernel_compiled(), f.avx2},
      {"bitplane-avx512vnni", bitplane::avx512_kernel_compiled(),
       f.avx512_mac_tier() && f.avx512vnni},
  };
}

}  // namespace backends
}  // namespace scnn::nn
