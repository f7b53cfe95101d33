#include "nn/mac_engine.hpp"

#include <cassert>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <vector>

#include "common/fixed_point.hpp"
#include "core/scmac.hpp"
#include "obs/report.hpp"

namespace scnn::nn {

namespace {

/// Bin each weight code's enable count k = |qw| into the stats histogram,
/// `times` products per code (one weight row drives `times` output lanes in
/// mac_rows). O(d) per call — amortized over the tile it accounts for.
void account_enable_cycles(std::span<const std::int32_t> w, std::uint64_t times,
                           obs::Pow2Hist& k_hist) {
  for (const std::int32_t q : w)
    k_hist.record(static_cast<std::uint64_t>(std::abs(q)), times);
}

// Certified outputs are exact against int32 rails, and the fallback for the
// rest is the narrow LUT kernel, so every stage configuration must be narrow.
static_assert(bitplane::kMaxBits + EngineConfig::kMaxAccumBits <= 30,
              "the bit-plane stage needs narrow accumulators at every A");

/// The bit-plane stage an engine over `lut` with `kernel` runs: the proposed
/// table only (the closed form is its product function), at N <= 8, and
/// never in front of the scalar reference kernel — backend = scalar (and
/// SCNN_BACKEND=scalar) stays the pure LUT path that bit-exactness checks
/// compare against. Otherwise the most preferred stage kernel that admits
/// `kernel`: avx512vnni in front of avx512 on a VNNI CPU, avx2 everywhere
/// else, so an engine forced onto avx2 carries no zmm code.
const bitplane::Kernel* select_bitplane(bool proposed_table, int n_bits,
                                        const backends::Kernel& kernel) {
  if (!proposed_table || n_bits > bitplane::kMaxBits ||
      &kernel == &backends::scalar_kernel())
    return nullptr;
  const bitplane::Kernel* stage = nullptr;
  for (const bitplane::Kernel* k : bitplane::available_kernels())
    if (!k->lut || std::string_view(k->lut) == kernel.name) stage = k;
  return stage;
}

/// What an engine over `kernel`, with `stage` in front (or none), runs at
/// n + a = `bits`. Past 30 bits mac_rows takes Kernel::wide — the kernel's
/// own int64 lanes where it has a native wide variant (avx512), the shared
/// scalar block otherwise; the stage only exists for narrow configurations.
MacEngine::Description describe_kernels(const backends::Kernel& kernel,
                                        const bitplane::Kernel* stage, int bits) {
  if (stage)
    return {.backend = std::string("bitplane-") + stage->name + "+" + kernel.name,
            .lanes = kernel.lanes};
  if (bits <= 30) return {.backend = kernel.name, .lanes = kernel.lanes};
  if (!backends::kernel_has_native_wide(kernel)) return {.backend = "scalar", .lanes = 8};
  return {.backend = kernel.name, .lanes = kernel.wide_lanes};
}

}  // namespace

void MacEngine::mac_block(const WeightRows& w, const bitplane::PlaneRow& x,
                          std::span<std::int64_t> out, MacStats& stats) const {
  std::vector<std::int32_t> patches(x.tile * w.d);
  bitplane::gather(x, n_, 0, x.tile, patches);
  for (int m = 0; m < w.rows; ++m)
    mac_rows(w.row(m), patches, out.subspan(static_cast<std::size_t>(m) * x.tile, x.tile),
             stats);
}

std::string to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kFixed: return "fixed";
    case EngineKind::kScLfsr: return "sc-lfsr";
    case EngineKind::kProposed: return "proposed";
  }
  throw std::invalid_argument("to_string: invalid EngineKind");
}

EngineKind engine_kind_from_string(std::string_view s) {
  if (s == "fixed") return EngineKind::kFixed;
  if (s == "sc-lfsr") return EngineKind::kScLfsr;
  if (s == "proposed") return EngineKind::kProposed;
  throw std::invalid_argument("unknown engine kind '" + std::string(s) +
                              "' (expected fixed, sc-lfsr, or proposed)");
}

void EngineConfig::validate() const {
  auto fail = [](const std::string& msg) { throw std::invalid_argument("EngineConfig: " + msg); };
  if (kind != EngineKind::kFixed && kind != EngineKind::kScLfsr &&
      kind != EngineKind::kProposed)
    fail("invalid kind enum value " + std::to_string(static_cast<int>(kind)));
  if (backend != MacBackend::kAuto && backend != MacBackend::kScalar &&
      backend != MacBackend::kSimd)
    fail("invalid backend enum value " + std::to_string(static_cast<int>(backend)));
  if (sparsity != Sparsity::kDense && sparsity != Sparsity::kZeroSkip &&
      sparsity != Sparsity::kAuto)
    fail("invalid sparsity enum value " + std::to_string(static_cast<int>(sparsity)));
  if (n_bits < kMinBits || n_bits > kMaxBits)
    fail("n_bits = " + std::to_string(n_bits) + " out of range [" +
         std::to_string(kMinBits) + ", " + std::to_string(kMaxBits) + "]");
  if (accum_bits < 0 || accum_bits > kMaxAccumBits)
    fail("accum_bits = " + std::to_string(accum_bits) + " out of range [0, " +
         std::to_string(kMaxAccumBits) + "]");
  if (bit_parallel < 1 || bit_parallel > kMaxBitParallel)
    fail("bit_parallel = " + std::to_string(bit_parallel) + " out of range [1, " +
         std::to_string(kMaxBitParallel) + "]");
  if (threads < 0 || threads > kMaxThreads)
    fail("threads = " + std::to_string(threads) + " out of range [0, " +
         std::to_string(kMaxThreads) + "] (0 = auto)");
}

std::string EngineConfig::label() const {
  std::string l = to_string(kind) + "/N=" + std::to_string(n_bits);
  // Only a non-default backend/sparsity changes which kernel path runs, so
  // only those earn a label segment (sweep labels stay stable for existing
  // configs).
  if (backend != MacBackend::kAuto) l += "/" + to_string(backend);
  if (sparsity != Sparsity::kAuto) l += "/" + to_string(sparsity);
  return l;
}

int EngineConfig::resolved_threads() const {
  if (threads > 0) return threads;
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

std::string EngineConfig::to_json() const {
  return "{\"kind\":\"" + to_string(kind) + "\",\"backend\":\"" + to_string(backend) +
         "\",\"sparsity\":\"" + to_string(sparsity) +
         "\",\"n_bits\":" + std::to_string(n_bits) +
         ",\"accum_bits\":" + std::to_string(accum_bits) +
         ",\"bit_parallel\":" + std::to_string(bit_parallel) +
         ",\"threads\":" + std::to_string(threads) +
         ",\"instrument\":" + (instrument ? "true" : "false") + "}";
}

namespace {

/// Minimal scanner for the flat EngineConfig object — string, integer and
/// boolean values only, no nesting, no escapes (no key or value here needs
/// them). Errors always name the offending token.
struct FlatJsonScanner {
  std::string_view s;
  std::size_t i = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("EngineConfig::from_json: " + what);
  }
  void skip_ws() {
    while (i < s.size() &&
           (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r'))
      ++i;
  }
  char peek() {
    skip_ws();
    if (i >= s.size()) fail("unexpected end of input");
    return s[i];
  }
  void expect(char c) {
    if (peek() != c)
      fail(std::string("expected '") + c + "', got '" + s[i] + "' at offset " +
           std::to_string(i));
    ++i;
  }
  std::string parse_string() {
    expect('"');
    const std::size_t start = i;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') fail("escape sequences are not supported");
      ++i;
    }
    if (i >= s.size()) fail("unterminated string");
    return std::string(s.substr(start, i++ - start));
  }
  int parse_int() {
    skip_ws();
    const std::size_t start = i;
    if (i < s.size() && s[i] == '-') ++i;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    const std::string_view tok = s.substr(start, i - start);
    if (tok.empty() || tok == "-")
      fail("expected an integer at offset " + std::to_string(start));
    try {
      return std::stoi(std::string(tok));
    } catch (const std::out_of_range&) {
      fail("integer '" + std::string(tok) + "' out of int range");
    }
  }
  bool parse_bool() {
    skip_ws();
    if (s.substr(i, 4) == "true") {
      i += 4;
      return true;
    }
    if (s.substr(i, 5) == "false") {
      i += 5;
      return false;
    }
    fail("expected true or false at offset " + std::to_string(i));
  }
};

}  // namespace

EngineConfig EngineConfig::from_json(std::string_view json) {
  EngineConfig cfg;
  FlatJsonScanner in{json};
  in.expect('{');
  if (in.peek() != '}') {
    while (true) {
      const std::string key = in.parse_string();
      in.expect(':');
      if (key == "kind") {
        cfg.kind = engine_kind_from_string(in.parse_string());
      } else if (key == "backend") {
        cfg.backend = mac_backend_from_string(in.parse_string());
      } else if (key == "sparsity") {
        cfg.sparsity = sparsity_from_string(in.parse_string());
      } else if (key == "n_bits") {
        cfg.n_bits = in.parse_int();
      } else if (key == "accum_bits") {
        cfg.accum_bits = in.parse_int();
      } else if (key == "bit_parallel") {
        cfg.bit_parallel = in.parse_int();
      } else if (key == "threads") {
        cfg.threads = in.parse_int();
      } else if (key == "instrument") {
        cfg.instrument = in.parse_bool();
      } else {
        in.fail("unknown key \"" + key + "\"");
      }
      const char c = in.peek();
      if (c == ',') {
        ++in.i;
        continue;
      }
      if (c == '}') break;
      in.fail(std::string("expected ',' or '}', got '") + c + "' at offset " +
              std::to_string(in.i));
    }
  }
  in.expect('}');
  in.skip_ws();
  if (in.i != json.size())
    in.fail("trailing characters after object: '" +
            std::string(json.substr(in.i)) + "'");
  return cfg;
}

bool lut_annihilates_zero(const sc::ProductLut& lut) {
  const std::int32_t half = 1 << (lut.bits() - 1);
  for (std::int32_t qx = -half; qx < half; ++qx)
    if (lut.at(0, qx) != 0) return false;
  return true;
}

bool resolve_zero_skip(Sparsity sparsity, const sc::ProductLut& lut) {
  switch (sparsity) {
    case Sparsity::kDense:
      return false;
    case Sparsity::kZeroSkip:
      if (!lut_annihilates_zero(lut))
        throw std::invalid_argument(
            "sparsity = zero-skip, but the " + lut.name() +
            " product table does not annihilate zero weight codes "
            "(product(0, qx) != 0 for some qx), so skipping k = 0 products "
            "would change results — use sparsity = dense or auto");
      return true;
    case Sparsity::kAuto:
      // Global override hook for CI and A/B runs, mirroring SCNN_BACKEND:
      // steers every kAuto engine in the process, never an explicit request.
      // The env value only steers which way auto leans — unlike an explicit
      // kZeroSkip request it cannot make an illegal schedule legal, so
      // SCNN_SPARSITY=zero_skip on a non-annihilating table (sc-lfsr) stays
      // dense instead of throwing. That is what lets a CI leg pin the whole
      // suite to zero-skip without breaking conventional-SC tests.
      if (const char* env = std::getenv("SCNN_SPARSITY"); env && *env)
        if (sparsity_from_string(env) == Sparsity::kDense)  // throws on typos
          return false;
      return lut_annihilates_zero(lut);
  }
  throw std::invalid_argument("resolve_zero_skip: invalid Sparsity");
}

LutEngine::LutEngine(sc::ProductLut lut, int accum_bits, MacBackend backend,
                     Sparsity sparsity)
    : MacEngine(lut.bits(), accum_bits),
      lut_(std::move(lut)),
      kernel_(&backends::select_kernel(backend)),
      zero_skip_(resolve_zero_skip(sparsity, lut_)),
      // core::make_proposed_lut is the one producer of "proposed" tables.
      bitplane_(select_bitplane(lut_.name() == "proposed", n_, *kernel_)) {}

std::int64_t LutEngine::mac_impl_(std::span<const std::int32_t> w,
                                  std::span<const std::int32_t> x,
                                  MacStats* stats) const {
  assert(w.size() == x.size());
  const int bits = n_ + a_;
  const std::int64_t lo = common::int_min_of(bits), hi = common::int_max_of(bits);
  std::int64_t acc = 0;
  std::uint64_t sat = 0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    acc += lut_.at(w[i], x[i]);
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

std::int64_t LutEngine::mac(std::span<const std::int32_t> w,
                            std::span<const std::int32_t> x) const {
  return mac_impl_(w, x, nullptr);
}

std::int64_t LutEngine::mac(std::span<const std::int32_t> w,
                            std::span<const std::int32_t> x, MacStats& stats) const {
  return mac_impl_(w, x, &stats);
}

void LutEngine::mac_rows(const WeightCodeView& w,
                         std::span<const std::int32_t> patches,
                         std::span<std::int64_t> out, MacStats& stats) const {
  const std::size_t d = w.size();
  const std::size_t tile = out.size();
  assert(patches.size() == d * tile);
  const int bits = n_ + a_;
  const std::int64_t lo = common::int_min_of(bits), hi = common::int_max_of(bits);
  // The narrow (int32-accumulator) kernels are exact while |rail| + |product|
  // fits: rails need `bits` <= 31 and a product adds at most 2^15 before the
  // clamp. Wider configurations fall back to the shared int64 path.
  std::uint64_t sat;
  if (zero_skip_ && w.packed() && w.nnz() < d) {
    // The sparse kernel issues only the nonzeros (in the same increasing-j
    // order), which is bit-exact because this engine's table annihilates
    // zero — enforced at construction. Rows with no zeros take the dense
    // kernel: same results, no indirection.
    sat = bits <= 30 ? kernel_->sparse_narrow(lut_, w.cols(), w.codes(), d,
                                              patches, out, lo, hi)
                     : kernel_->sparse_wide(lut_, w.cols(), w.codes(), d,
                                            patches, out, lo, hi);
    stats.skipped_products += (d - w.nnz()) * tile;
  } else {
    sat = bits <= 30 ? kernel_->narrow(lut_, w.dense(), patches, out, lo, hi)
                     : kernel_->wide(lut_, w.dense(), patches, out, lo, hi);
  }
  stats.macs += tile;
  stats.products += tile * d;
  stats.saturations += sat;
  // k accounting always walks the dense row (zeros land in bucket 0), so
  // detail-mode histograms are identical across scheduling modes.
  if (stats.detail && tile > 0) account_enable_cycles(w.dense(), tile, stats.k_hist);
}

void LutEngine::mac_block(const WeightRows& w, const bitplane::PlaneRow& x,
                          std::span<std::int64_t> out, MacStats& stats) const {
  const bitplane::Coefficients* coef = w.planes;
  if (!bitplane_ || !coef || coef->n_bits != n_ || coef->rows != w.rows ||
      coef->d != w.d) {
    MacEngine::mac_block(w, x, out, stats);
    return;
  }
  const std::size_t rows = static_cast<std::size_t>(w.rows);
  const std::size_t tile = x.tile;
  const int bits = n_ + a_;
  const std::span<const std::uint8_t> certified = bitplane::run(
      *bitplane_, *coef, x, common::int_min_of(bits), common::int_max_of(bits), out);
  // Certified outputs are final: every prefix stayed inside the rails, so
  // they carry no clamp events and no skipped products (the stage issues no
  // columns at all). Runs of uncertified outputs gather their own patch
  // codes and take the LUT kernel, which books their macs/products/
  // saturations/skips; the certified share of the arithmetic counters is
  // booked here, so totals match mac_rows.
  thread_local std::vector<std::int32_t> patches;
  for (std::size_t m = 0; m < rows; ++m) {
    const WeightCodeView row = w.row(static_cast<int>(m));
    const std::uint8_t* flags = certified.data() + m * tile;
    std::size_t done = 0;
    for (std::size_t t = 0; t < tile;) {
      const void* hole = std::memchr(flags + t, 0, tile - t);
      const std::size_t t0 =
          hole ? static_cast<std::size_t>(static_cast<const std::uint8_t*>(hole) - flags) : tile;
      done += t0 - t;
      if (t0 == tile) break;
      std::size_t t1 = t0 + 1;
      while (t1 < tile && !flags[t1]) ++t1;
      patches.resize((t1 - t0) * w.d);
      bitplane::gather(x, n_, t0, t1, patches);
      mac_rows(row, patches, out.subspan(m * tile + t0, t1 - t0), stats);
      stats.uncertified += t1 - t0;
      t = t1;
    }
    stats.macs += done;
    stats.products += done * w.d;
    if (stats.detail && done > 0) account_enable_cycles(row.dense(), done, stats.k_hist);
  }
}

MacEngine::Description LutEngine::describe() const {
  MacEngine::Description d = describe_kernels(*kernel_, bitplane_, n_ + a_);
  d.sparsity = zero_skip_ ? "zero-skip" : "dense";
  return d;
}

namespace {

sc::ProductLut make_lut_for(EngineKind kind, int n_bits) {
  switch (kind) {
    case EngineKind::kFixed: return sc::make_fixed_point_lut(n_bits);
    case EngineKind::kScLfsr: return sc::make_lfsr_sc_lut(n_bits);
    case EngineKind::kProposed: return core::make_proposed_lut(n_bits);
  }
  throw std::invalid_argument("make_lut_for: invalid EngineKind");
}

}  // namespace

std::unique_ptr<MacEngine> make_engine(const EngineConfig& cfg) {
  cfg.validate();
  return std::make_unique<LutEngine>(make_lut_for(cfg.kind, cfg.n_bits),
                                     cfg.accum_bits, cfg.backend, cfg.sparsity);
}

MacEngine::Description resolved_backend(const EngineConfig& cfg) {
  const backends::Kernel& k = backends::select_kernel(cfg.backend);
  return describe_kernels(
      k, select_bitplane(cfg.kind == EngineKind::kProposed, cfg.n_bits, k),
      cfg.n_bits + cfg.accum_bits);
}

namespace {

void stamp_engine_meta_impl(obs::JsonReport& report, const EngineConfig& cfg,
                            const MacEngine::Description& resolved) {
  report.set_meta("engine", to_string(cfg.kind));
  report.set_meta("n_bits", static_cast<double>(cfg.n_bits));
  report.set_meta("accum_bits", static_cast<double>(cfg.accum_bits));
  report.set_meta("bit_parallel", static_cast<double>(cfg.bit_parallel));
  report.set_meta("threads", static_cast<double>(cfg.resolved_threads()));
  report.set_meta("backend", to_string(cfg.backend));
  report.set_meta("backend_resolved", resolved.backend);
  report.set_meta("backend_lanes", static_cast<double>(resolved.lanes));
  report.set_meta("sparsity", to_string(cfg.sparsity));
  report.set_meta("sparsity_resolved", resolved.sparsity);
  report.set_meta_json("engine_config", cfg.to_json());
}

}  // namespace

void stamp_engine_meta(obs::JsonReport& report, const EngineConfig& cfg) {
  MacEngine::Description resolved{.backend = "unavailable", .lanes = 0,
                                  .sparsity = "unavailable"};
  try {
    const std::string sparsity = resolved.sparsity;
    resolved = resolved_backend(cfg);
    resolved.sparsity = sparsity;
  } catch (const std::exception&) {
    // kSimd on a machine with no SIMD kernel: stamp the fact, don't throw
    // from a reporting path.
  }
  try {
    if (cfg.n_bits >= EngineConfig::kMinBits && cfg.n_bits <= EngineConfig::kMaxBits)
      resolved.sparsity = resolve_zero_skip(cfg.sparsity,
                                            make_lut_for(cfg.kind, cfg.n_bits))
                              ? "zero-skip"
                              : "dense";
  } catch (const std::exception&) {
    // kZeroSkip on a non-annihilating table (or a bad SCNN_SPARSITY value):
    // stamp the fact, don't throw from a reporting path.
  }
  stamp_engine_meta_impl(report, cfg, resolved);
}

void stamp_engine_meta(obs::JsonReport& report, const EngineConfig& cfg,
                       const MacEngine& engine) {
  stamp_engine_meta_impl(report, cfg, engine.describe());
}

}  // namespace scnn::nn
