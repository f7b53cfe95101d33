// SIMD-dispatched MAC backends for the batched mac_rows contract.
//
// The paper's multiplier is deterministic and bit-parallel-exact (Sec. 2.5),
// so the software MAC can be vectorized without changing a single output
// bit: every backend here implements the same contract — per output lane,
// products arrive in increasing-j order with the saturating clamp applied
// after every add — and differs only in how many lanes one kernel step
// carries. The scalar kernel is the reference; SSE2/AVX2 (x86) and NEON
// (arm) are compiled when the compiler can target them and selected at
// runtime via the common::cpu_features probe, never by #ifdef alone.
//
// Selection is public API through EngineConfig::backend (kAuto | kScalar |
// kSimd); this header is the registry the engine layer (and tests, which
// exercise *every* compiled kernel, not just the auto pick) dispatches
// through.
//
// For the proposed multiplier these LUT kernels are the fallback of a
// certified bit-plane stage (bitplane.hpp): at N <= 8 with narrow
// accumulators, every output whose partial sums provably stay inside the
// rails is computed as integer dot products over activation bit planes, and
// only the rest reach a kernel here. The scalar kernel never gets the stage
// in front of it — backend = scalar stays the LUT-only reference.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sc/mult_lut.hpp"

namespace scnn::nn {

/// mac_rows kernel selection, carried by EngineConfig::backend. kAuto picks
/// the widest kernel this machine supports (overridable via the
/// SCNN_BACKEND environment variable, which also accepts a concrete kernel
/// name like "avx2" — explicit requests are never overridden); kScalar
/// forces the reference kernel; kSimd requires a SIMD kernel and makes
/// engine construction throw where none is compiled or supported.
enum class MacBackend { kAuto, kScalar, kSimd };

/// Canonical spelling: "auto" | "scalar" | "simd".
[[nodiscard]] std::string to_string(MacBackend backend);
/// Parse the canonical spelling; throws std::invalid_argument listing the
/// accepted names otherwise. Concrete kernel names ("avx2", "avx512", ...)
/// are *not* MacBackend values — they are accepted only by the SCNN_BACKEND
/// environment variable, which steers kAuto resolution.
[[nodiscard]] MacBackend mac_backend_from_string(std::string_view s);

namespace backends {

/// One mac_rows kernel: out[t] = saturating MAC of `w` against patch t of
/// `patches` (layout [tile][d], d = w.size()), clamped to [lo, hi] after
/// every product, products in increasing-j order per lane; returns the
/// total number of clamp events. Exactly LutEngine's serial mac() semantics
/// — the bit-exactness contract every backend is tested against.
using MacRowsFn = std::uint64_t (*)(const sc::ProductLut& lut,
                                    std::span<const std::int32_t> w,
                                    std::span<const std::int32_t> patches,
                                    std::span<std::int64_t> out,
                                    std::int64_t lo, std::int64_t hi);

/// Zero-skip variant of MacRowsFn: only the nonzero codes of the weight row
/// are issued. `cols[i]` / `codes[i]` give the column and code of nonzero i
/// (increasing-column order, the same order the dense kernels walk j in);
/// `d` is the dense row length, i.e. the patch stride. A skipped product is
/// one whose code is zero — for product tables that annihilate zero (see
/// nn::lut_annihilates_zero) it would add an exact 0 to an in-range
/// accumulator, changing neither the value nor the saturation count, so the
/// sparse kernel's outputs, clamp events and clamp order are bit-identical
/// to the dense kernel's.
using MacRowsSparseFn = std::uint64_t (*)(const sc::ProductLut& lut,
                                          std::span<const std::int32_t> cols,
                                          std::span<const std::int32_t> codes,
                                          std::size_t d,
                                          std::span<const std::int32_t> patches,
                                          std::span<std::int64_t> out,
                                          std::int64_t lo, std::int64_t hi);

struct Kernel {
  const char* name;  ///< "scalar" | "sse2" | "avx2" | "avx512" | "neon"
  int lanes;         ///< output elements per kernel step (32-bit accum lanes)
  /// Fast path: 32-bit accumulators, exact while n_bits + accum_bits <= 30
  /// (rails fit and one int16 product cannot overflow before the clamp).
  MacRowsFn narrow;
  /// Any accumulator width. Wider-than-30-bit configurations are outside
  /// the SIMD kernels' int32 lanes; most backends share the scalar int64
  /// implementation here (LutEngine::describe reports that), while AVX-512
  /// carries a native 8x int64 wide kernel.
  MacRowsFn wide;
  int wide_lanes;  ///< int64 lanes of `wide` (8 for the shared scalar block)
  /// Zero-skip counterparts, never null. AVX2/AVX-512 carry their own sparse
  /// kernels; SSE2/NEON currently fall back to the shared scalar sparse
  /// implementation (the zero-skip win is dropped work, not lane width, so
  /// the fallback still beats their dense kernels on sparse rows).
  MacRowsSparseFn sparse_narrow;
  MacRowsSparseFn sparse_wide;
};

/// The reference kernel — always available, the equivalence baseline.
[[nodiscard]] const Kernel& scalar_kernel();

/// Compiled-and-supported SIMD kernels, nullptr otherwise. "Compiled" is a
/// compiler/arch question, "supported" a cpu_features() one; both must hold.
[[nodiscard]] const Kernel* sse2_kernel();
[[nodiscard]] const Kernel* avx2_kernel();
[[nodiscard]] const Kernel* avx512_kernel();
[[nodiscard]] const Kernel* neon_kernel();

/// True when `k.wide` is the kernel's own SIMD implementation rather than
/// the shared scalar int64 block — LutEngine::describe() uses this to report
/// "scalar" honestly for wide-accumulator configs on kernels without one.
[[nodiscard]] bool kernel_has_native_wide(const Kernel& k);

/// The widest supported SIMD kernel (avx512 > avx2 > neon > sse2), or
/// nullptr when this build/machine has none.
[[nodiscard]] const Kernel* best_simd_kernel();

/// Case-sensitive lookup of a *runnable* kernel by name ("scalar", "sse2",
/// "avx2", "avx512", "neon"); nullptr when that kernel is not compiled or
/// not supported on this machine. This is how the SCNN_BACKEND environment
/// variable names concrete kernels.
[[nodiscard]] const Kernel* kernel_by_name(std::string_view name);

/// Resolve a backend request to a kernel. kAuto consults the SCNN_BACKEND
/// environment variable first (auto | scalar | simd | a concrete kernel
/// name; anything else throws), then falls back to best_simd_kernel() or
/// scalar. kSimd throws std::invalid_argument naming the available kernels
/// when no SIMD kernel is compiled+supported — a requested backend never
/// degrades silently.
[[nodiscard]] const Kernel& select_kernel(MacBackend backend);

/// Every kernel runnable on this machine, scalar first. Tests iterate this
/// to pin each compiled backend against the scalar reference.
[[nodiscard]] std::vector<const Kernel*> available_kernels();

/// Compiled-vs-supported inventory of every kernel family this build knows
/// about, plus the bit-plane stage — `scnn_cli info` prints this so bench
/// logs explain why a kernel was skipped (e.g. CPU has avx512 but the
/// compiler was too old to build the kernel, or vice versa).
struct KernelSupport {
  const char* name;     ///< kernel family ("avx512", ...) or "bitplane-avx2"
  bool compiled;        ///< the build carries the kernel
  bool supported;       ///< cpu_features() says this machine can run it
};
[[nodiscard]] std::vector<KernelSupport> kernel_support();

/// Compile-time answers per TU (independent of the running CPU).
[[nodiscard]] bool sse2_kernel_compiled();
[[nodiscard]] bool avx2_kernel_compiled();
[[nodiscard]] bool avx512_kernel_compiled();
[[nodiscard]] bool neon_kernel_compiled();

}  // namespace backends
}  // namespace scnn::nn
