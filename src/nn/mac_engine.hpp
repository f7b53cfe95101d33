// Pluggable MAC arithmetic for the convolution layer — the seam where the
// CNN meets the hardware (the paper's "convolution layer is extended for
// fixed-point and SC" in Caffe, Sec. 4.2).
//
// An engine consumes two equal-length spans of N-bit signed codes and
// returns the (N+A)-bit saturating accumulation of their products, in units
// of 2^-(N-1). All three of the paper's arithmetic variants are deterministic
// given their generator phases, so each is realized as a ProductLut plus a
// saturating accumulator (bit-exact w.r.t. product-level saturation; see
// DESIGN.md for the tick-level caveat).
//
// Engines are selected through the typed EngineConfig below — one struct
// carries the arithmetic (kind, n_bits, accum_bits), the runtime sizing
// (threads, bit_parallel, instrument), the mac_rows kernel backend
// (auto | scalar | simd, dispatched at runtime on the CPU's actual
// capabilities), and the zero-skip scheduling mode (dense | zero-skip |
// auto; see nn/weight_codes.hpp). The pre-1.1 stringly make_engine(kind,
// ...) shim has been removed; build an EngineConfig instead. The pre-1.2
// raw-span mac_rows overload is gone too: batched calls hand the engine a
// typed WeightCodeView (dense or packed), the one contract both the dense
// and the zero-skip kernels implement.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "nn/mac_backends/bitplane.hpp"
#include "nn/mac_backends/mac_backends.hpp"
#include "nn/weight_codes.hpp"
#include "obs/metrics.hpp"
#include "sc/mult_lut.hpp"

namespace scnn::obs {
class JsonReport;
}

namespace scnn::nn {

/// The three arithmetic back-ends of the paper. kFixed = truncating binary;
/// kScLfsr = conventional SC with LFSR SNGs; kProposed = the paper's SC-MAC
/// (also exact for its bit-parallel and BISC-MVM forms).
enum class EngineKind { kFixed, kScLfsr, kProposed };

/// Canonical spelling: "fixed" | "sc-lfsr" | "proposed".
[[nodiscard]] std::string to_string(EngineKind kind);
/// Parse the canonical spelling; throws std::invalid_argument listing the
/// accepted names otherwise.
[[nodiscard]] EngineKind engine_kind_from_string(std::string_view s);

/// One arithmetic + runtime configuration. This is the single source of
/// truth for building engines and sizing the inference runtime.
struct EngineConfig {
  EngineKind kind = EngineKind::kProposed;
  int n_bits = 8;        ///< multiplier precision, sign bit included
  int accum_bits = 2;    ///< accumulator headroom A (paper default: 2)
  int bit_parallel = 1;  ///< bit-parallel column degree b (Sec. 2.5); the LUT
                         ///< engine is exact for any b, schedulers use it
  int threads = 1;       ///< inference worker threads; 0 = one per hw thread
  bool instrument = false;  ///< per-layer traces + SC-cycle accounting; the
                            ///< session applies this on set_engine() (and
                            ///< set_instrumentation() toggles it afterwards)
  MacBackend backend = MacBackend::kAuto;  ///< mac_rows kernel: kAuto picks
                                           ///< the widest SIMD kernel this
                                           ///< machine supports (the
                                           ///< SCNN_BACKEND env steers it),
                                           ///< kScalar forces the reference
                                           ///< kernel, kSimd fails loudly
                                           ///< when no SIMD kernel is
                                           ///< available. Logits and
                                           ///< MacStats are bit-identical
                                           ///< across all of them.
  Sparsity sparsity = Sparsity::kAuto;  ///< zero-skip scheduling: kAuto skips
                                        ///< k = 0 products exactly when the
                                        ///< engine's product table annihilates
                                        ///< zero (SCNN_SPARSITY env overrides),
                                        ///< kDense always issues every product,
                                        ///< kZeroSkip fails loudly where
                                        ///< skipping would change results.
                                        ///< Logits and MacStats arithmetic are
                                        ///< bit-identical either way.

  /// Supported precision window. The LUT is 2^(2N) int16 entries, so N = 12
  /// (32 MiB) is the practical ceiling; N = 2 is sign + one magnitude bit.
  static constexpr int kMinBits = 2;
  static constexpr int kMaxBits = 12;
  static constexpr int kMaxAccumBits = 20;
  static constexpr int kMaxBitParallel = 256;
  static constexpr int kMaxThreads = 256;

  /// Throws std::invalid_argument with a field-naming message if any value
  /// is out of range (instead of silently building an out-of-range LUT).
  void validate() const;

  /// Sweep label, e.g. "proposed/N=8" — a non-default backend
  /// ("proposed/N=8/scalar") and a non-default sparsity
  /// ("proposed/N=8/zero-skip") are appended since each selects a
  /// different kernel path.
  [[nodiscard]] std::string label() const;
  /// `threads` with 0 resolved to the machine's hardware concurrency.
  [[nodiscard]] int resolved_threads() const;

  /// Flat JSON object carrying every field, e.g.
  ///   {"kind":"proposed","backend":"auto","sparsity":"auto","n_bits":8,
  ///    "accum_bits":2,"bit_parallel":1,"threads":1,"instrument":false}
  /// — the round-trippable form --metrics-out snapshots stamp and
  /// `scnn_cli serve --engine-config=` accepts.
  [[nodiscard]] std::string to_json() const;
  /// Inverse of to_json(): accepts the same flat object with any key order
  /// and whitespace; absent keys keep their defaults. Throws
  /// std::invalid_argument naming the offending token on anything
  /// malformed or unknown. Does not range-check — call validate().
  [[nodiscard]] static EngineConfig from_json(std::string_view json);

  bool operator==(const EngineConfig&) const = default;
};

/// Per-engine work counters for one forward pass. Per-thread instances are
/// merged in shard order, so totals are independent of scheduling.
///
/// SC-cycle accounting (the paper's data-dependent latency, Sec. 3.2): each
/// product of the proposed multiplier takes k = |2^(N-1) w| = |qw| enable
/// cycles. When `detail` is set before handing the stats to an engine, the
/// engine bins every product's k into `k_hist` — so k_hist.sum is the summed
/// per-product cycle count, k_hist.max the worst single product, and the
/// power-of-two buckets give the distribution Fig. 7 argues from. With
/// `detail` false (the default) engines skip the extra per-row pass and the
/// hot path stays exactly as fast as before.
struct MacStats {
  std::uint64_t macs = 0;         ///< mac() calls (output elements)
  std::uint64_t products = 0;     ///< code pairs multiplied (dense count —
                                  ///< zero-skip does not change this, see
                                  ///< skipped_products)
  std::uint64_t saturations = 0;  ///< accumulator clamp events

  bool detail = false;     ///< request k accounting below (set by the caller)
  obs::Pow2Hist k_hist;    ///< per-product enable counts k (detail mode only)

  // Scheduling telemetry — what the zero-skip path and the k-aware
  // partitioner actually did, as opposed to what was computed. Deliberately
  // excluded from operator== : the bit-exactness contract compares the
  // arithmetic above, while a dense and a zero-skip run of the same model
  // legitimately differ here (that difference IS the savings report).
  std::uint64_t skipped_products = 0;  ///< k = 0 products never issued (each
                                       ///< would have cost one SC issue slot)
  std::uint64_t uncertified = 0;  ///< outputs the bit-plane stage could not
                                  ///< certify and handed to the LUT kernel
  std::uint64_t sched_budget_total = 0;      ///< summed shard-plan budget
  std::uint64_t sched_budget_max_shard = 0;  ///< heaviest shard's budget (the
                                             ///< imbalance numerator; perfect
                                             ///< balance = total / shards)
  std::uint32_t sched_shards = 0;            ///< shards the partitioner planned

  MacStats& operator+=(const MacStats& o) {
    macs += o.macs;
    products += o.products;
    saturations += o.saturations;
    detail = detail || o.detail;
    k_hist += o.k_hist;
    skipped_products += o.skipped_products;
    uncertified += o.uncertified;
    sched_budget_total += o.sched_budget_total;
    if (o.sched_budget_max_shard > sched_budget_max_shard)
      sched_budget_max_shard = o.sched_budget_max_shard;
    if (o.sched_shards > sched_shards) sched_shards = o.sched_shards;
    return *this;
  }

  /// Arithmetic-only equality (macs, products, saturations, detail, k_hist);
  /// the scheduling telemetry above is intentionally not compared.
  bool operator==(const MacStats& o) const {
    return macs == o.macs && products == o.products &&
           saturations == o.saturations && detail == o.detail &&
           k_hist == o.k_hist;
  }
};

/// Estimated MAC-array cycles to stream `sum_k` total enable cycles at
/// bit-parallel column degree b (Sec. 2.5): ceil(sum_k / b). Exact for
/// b = 1; for b > 1 a lower bound that ignores per-product ceil rounding.
[[nodiscard]] constexpr std::uint64_t estimated_sc_cycles(std::uint64_t sum_k,
                                                          int bit_parallel) {
  const auto b = static_cast<std::uint64_t>(bit_parallel < 1 ? 1 : bit_parallel);
  return (sum_k + b - 1) / b;
}

/// Stamp the full engine configuration into a JSON report (engine, n_bits,
/// accum_bits, bit_parallel, threads, backend + its machine resolution, and
/// the round-trippable engine_config JSON) — the provenance every
/// BENCH_*.json and --metrics-out snapshot carries alongside
/// obs::stamped_report()'s git SHA and hardware thread count.
void stamp_engine_meta(obs::JsonReport& report, const EngineConfig& cfg);

/// Same, but the resolved backend comes from the live engine's describe()
/// (authoritative: it reflects e.g. the wide-accumulator scalar fallback).
class MacEngine;
void stamp_engine_meta(obs::JsonReport& report, const EngineConfig& cfg,
                       const MacEngine& engine);

class MacEngine {
 public:
  /// Capability report: which mac_rows kernel this engine dispatches to and
  /// how many output lanes one kernel step carries. Stamped into every
  /// BENCH_*.json / --metrics-out snapshot so perf numbers always say what
  /// code produced them.
  struct Description {
    std::string backend;  ///< "serial" | "scalar" | "sse2" | "avx2" |
                          ///< "avx512" | "neon", or
                          ///< "bitplane-<stage>+<LUT kernel>" when the
                          ///< bit-plane stage runs in front of a LUT kernel
                          ///< (e.g. "bitplane-avx512vnni+avx512")
    int lanes = 1;        ///< output elements per LUT kernel step
    std::string sparsity = "dense";  ///< resolved scheduling: "dense" |
                                     ///< "zero-skip"

    bool operator==(const Description&) const = default;
  };

  virtual ~MacEngine() = default;

  /// Saturating MAC over d = w.size() == x.size() code pairs.
  [[nodiscard]] virtual std::int64_t mac(std::span<const std::int32_t> w,
                                         std::span<const std::int32_t> x) const = 0;

  /// Same result as mac(w, x), additionally accumulating work counters into
  /// `stats` (and, in stats.detail mode, the per-product enable counts
  /// k = |qw| — a property of the weight codes alone, so the base class can
  /// account them for any engine).
  virtual std::int64_t mac(std::span<const std::int32_t> w,
                           std::span<const std::int32_t> x, MacStats& stats) const {
    ++stats.macs;
    stats.products += w.size();
    if (stats.detail)
      for (const std::int32_t q : w)
        stats.k_hist.record(static_cast<std::uint64_t>(q < 0 ? -static_cast<std::int64_t>(q)
                                                             : q));
    return mac(w, x);
  }

  /// Batched MAC: a tile of out.size() output elements against ONE weight
  /// row, handed over as a typed WeightCodeView. `patches` holds out.size()
  /// contiguous d-code patches back to back (layout [tile][d], d = w.size());
  /// out[t] receives exactly mac(w.dense(), patches[t*d .. t*d+d)).
  /// Semantics — including the per-product saturation order and the MacStats
  /// arithmetic totals — are identical to calling mac() per element for BOTH
  /// view variants: a packed view only entitles a zero-skip engine to not
  /// issue the k = 0 products, which is invisible to the accumulator (see
  /// nn/weight_codes.hpp). Engines override to restructure the loops for
  /// throughput; the im2col convolution path feeds every output row through
  /// this entry point. (The raw-span overload was removed with this
  /// redesign — wrap the row: WeightCodeView(row) or
  /// WeightCodeView::packed_row(row, packed, m).)
  virtual void mac_rows(const WeightCodeView& w,
                        std::span<const std::int32_t> patches,
                        std::span<std::int64_t> out, MacStats& stats) const {
    const std::size_t d = w.size();
    for (std::size_t t = 0; t < out.size(); ++t)
      out[t] = mac(w.dense(), patches.subspan(t * d, d), stats);
  }

  /// Block MAC over a plane image: every filter row of `w` against the
  /// x.tile patches `x` reads in place (nn/mac_backends/bitplane.hpp);
  /// out[m * tile + t] receives exactly what mac_rows(w.row(m), patches, ...)
  /// would write to its out[t] for the decoded patch codes, with the same
  /// MacStats arithmetic. The im2col convolution's entry point for engines
  /// with bitplane_stage(), one call per output row; the default decodes the
  /// patches and loops mac_rows over the rows.
  virtual void mac_block(const WeightRows& w, const bitplane::PlaneRow& x,
                         std::span<std::int64_t> out, MacStats& stats) const;

  [[nodiscard]] virtual std::string name() const = 0;
  /// Base engines run mac_rows as a serial mac() loop.
  [[nodiscard]] virtual Description describe() const {
    return {.backend = "serial", .lanes = 1};
  }
  /// True when this engine's mac_rows skips k = 0 products given a packed
  /// view. Layers use this to decide whether building the PackedRowCodes
  /// cache is worth anything.
  [[nodiscard]] virtual bool zero_skip() const { return false; }
  /// The certified bit-plane stage kernel mac_block runs given
  /// WeightRows::planes, or nullptr for none.
  [[nodiscard]] virtual const bitplane::Kernel* bitplane_kernel() const { return nullptr; }
  /// True when mac_block runs the stage — layers build the coefficient
  /// cache and the plane image only then, and otherwise feed mac_rows int32
  /// patches.
  [[nodiscard]] bool bitplane_stage() const { return bitplane_kernel() != nullptr; }
  [[nodiscard]] int bits() const { return n_; }
  [[nodiscard]] int accum_bits() const { return a_; }

 protected:
  MacEngine(int n_bits, int accum_bits) : n_(n_bits), a_(accum_bits) {}
  int n_;
  int a_;
};

/// LUT-backed engine: covers fixed-point, conventional LFSR-SC, and the
/// proposed SC multiplier (they differ only in the product table).
class LutEngine final : public MacEngine {
 public:
  /// `backend` selects the mac_rows kernel through the dispatch rules of
  /// MacBackend; `sparsity` the zero-skip mode through resolve_zero_skip()
  /// (both resolved once here, at construction — never per call).
  LutEngine(sc::ProductLut lut, int accum_bits,
            MacBackend backend = MacBackend::kAuto,
            Sparsity sparsity = Sparsity::kAuto);

  [[nodiscard]] std::int64_t mac(std::span<const std::int32_t> w,
                                 std::span<const std::int32_t> x) const override;
  std::int64_t mac(std::span<const std::int32_t> w, std::span<const std::int32_t> x,
                   MacStats& stats) const override;
  /// Batched kernel, dispatched to the selected backend (scalar blocked /
  /// SSE2 / AVX2 / NEON — see src/nn/mac_backends/). Every backend hoists
  /// the LUT row per product index, keeps per-lane products in increasing-j
  /// order, and counts saturations branchlessly, so the result is
  /// bit-identical to the per-element path — values, saturation order and
  /// MacStats included. A zero-skip engine handed a packed view with at
  /// least one zero routes to the backend's sparse kernel and books the
  /// skipped products; k_hist is always accounted from the dense row, so
  /// detail-mode histograms are identical across scheduling modes too.
  void mac_rows(const WeightCodeView& w, std::span<const std::int32_t> patches,
                std::span<std::int64_t> out, MacStats& stats) const override;
  /// Block form. For the proposed table at N <= 8 with narrow accumulators,
  /// and any kernel choice but the scalar reference, a certified bit-plane
  /// stage (nn/mac_backends/bitplane.hpp) runs over WeightRows::planes:
  /// outputs it certifies come from integer dot products, the rest gather
  /// their own patch codes and take mac_rows' kernel unchanged, in
  /// increasing-j order — values and MacStats arithmetic stay identical.
  /// Without the stage or the coefficients it is the default.
  void mac_block(const WeightRows& w, const bitplane::PlaneRow& x,
                 std::span<std::int64_t> out, MacStats& stats) const override;
  [[nodiscard]] std::string name() const override { return lut_.name(); }
  [[nodiscard]] Description describe() const override;
  [[nodiscard]] bool zero_skip() const override { return zero_skip_; }
  [[nodiscard]] const bitplane::Kernel* bitplane_kernel() const override { return bitplane_; }

  [[nodiscard]] const sc::ProductLut& lut() const { return lut_; }

 private:
  std::int64_t mac_impl_(std::span<const std::int32_t> w,
                         std::span<const std::int32_t> x, MacStats* stats) const;
  sc::ProductLut lut_;
  const backends::Kernel* kernel_;
  bool zero_skip_;
  const bitplane::Kernel* bitplane_;  ///< nullptr = LUT only
};

/// Build the engine described by a validated configuration (validate() is
/// called on entry; bad ranges throw std::invalid_argument, as does
/// backend = kSimd on a machine with no SIMD kernel).
std::unique_ptr<MacEngine> make_engine(const EngineConfig& cfg);

/// Description of the kernels an engine built from `cfg` would dispatch to
/// on this machine (same resolution rules as construction, including the
/// SCNN_BACKEND override, the bit-plane stage and the kSimd-unavailable
/// throw). Sparsity is not resolved here and reads "dense".
[[nodiscard]] MacEngine::Description resolved_backend(const EngineConfig& cfg);

/// True when `lut` maps a zero weight code to a zero product for every
/// activation code — the property that makes skipping k = 0 products
/// bit-exact. Holds by construction for the fixed-point and proposed tables
/// (their product functions annihilate zero); conventional SC correlates
/// two bipolar streams, so its zero row is generally NOT all zero.
[[nodiscard]] bool lut_annihilates_zero(const sc::ProductLut& lut);

/// Resolve a sparsity request against a product table (the engine
/// constructor's rule, exposed for tests and reporting): kDense never
/// skips; kZeroSkip skips, throwing std::invalid_argument when the table
/// does not annihilate zero — an explicitly requested mode never degrades
/// silently; kAuto consults the SCNN_SPARSITY environment variable first
/// (auto | dense | zero-skip, anything else throws; explicit requests are
/// never overridden), then skips exactly when the table annihilates zero.
[[nodiscard]] bool resolve_zero_skip(Sparsity sparsity, const sc::ProductLut& lut);

}  // namespace scnn::nn
