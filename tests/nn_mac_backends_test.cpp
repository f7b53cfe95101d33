// Cross-backend equivalence for the SIMD-dispatched mac_rows kernels: every
// kernel compiled and supported on this machine must reproduce the scalar
// reference bit-exactly — output values, saturation counts, MacStats and
// k-histograms — at the kernel, engine, and whole-network levels. Lives in
// the `parallel`-labeled binary so the TSan build exercises the kernels
// under the threaded inference runtime, and the ASan/UBSan CI leg covers
// their gathers and stores.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "core/scmac.hpp"
#include "data/synthetic_digits.hpp"
#include "nn/inference_session.hpp"
#include "nn/mac_backends/bitplane.hpp"
#include "nn/mac_backends/mac_backends.hpp"
#include "nn/mac_engine.hpp"
#include "nn/network.hpp"
#include "plane_block.hpp"
#include "scoped_env.hpp"

namespace scnn {
namespace {

using nn::EngineConfig;
using nn::EngineKind;
using nn::MacBackend;
using nn::MacStats;
using nn::backends::Kernel;

std::vector<std::int32_t> random_codes(std::size_t count, int n_bits,
                                       std::uint64_t seed) {
  const std::int32_t half = 1 << (n_bits - 1);
  std::vector<std::int32_t> codes(count);
  common::SplitMix64 rng(seed);
  for (auto& c : codes)
    c = static_cast<std::int32_t>(rng.next_below(2u * static_cast<unsigned>(half))) -
        half;
  return codes;
}

TEST(MacBackends, EveryAvailableKernelMatchesScalarReference) {
  const Kernel& scalar = nn::backends::scalar_kernel();
  const auto kernels = nn::backends::available_kernels();
  ASSERT_GE(kernels.size(), 1u);
  ASSERT_STREQ(kernels.front()->name, "scalar");

  for (const int n_bits : {4, 8}) {
    const sc::ProductLut lut = core::make_proposed_lut(n_bits);
    // A = 0 makes saturation common at N = 4; A = 2 is the paper default.
    for (const int accum_bits : {0, 2}) {
      const int bits = n_bits + accum_bits;
      const std::int64_t lo = common::int_min_of(bits);
      const std::int64_t hi = common::int_max_of(bits);
      for (const std::size_t d :
           {std::size_t{0}, std::size_t{1}, std::size_t{5}, std::size_t{27}}) {
        // Tiles straddling every vector width and its tails, including 0:
        // 1..17 covers every lane count below/at/above the 8- and 16-lane
        // widths, plus 2w-1/2w+1.
        std::vector<std::size_t> tiles;
        for (std::size_t t = 0; t <= 17; ++t) tiles.push_back(t);
        for (const std::size_t t : {31, 32, 33}) tiles.push_back(t);
        for (const std::size_t tile : tiles) {
          const std::uint64_t seed = 1000 * d + tile + static_cast<std::uint64_t>(
                                                           n_bits * 31 + accum_bits);
          const auto w = random_codes(d, n_bits, seed);
          const auto patches = random_codes(d * tile, n_bits, seed + 1);

          std::vector<std::int64_t> ref(tile, -1);
          const std::uint64_t ref_sat = scalar.narrow(lut, w, patches, ref, lo, hi);

          // Every bit-plane stage kernel in front of these kernels: each
          // output it certifies must equal the reference and carry no clamp
          // event.
          for (const nn::bitplane::Kernel* bp : nn::bitplane::available_kernels()) {
            nn::bitplane::Coefficients coef;
            coef.assign(w, 1, d, n_bits);
            std::vector<std::int64_t> out(tile, -4);
            const PlaneBlock block(patches, d, tile, n_bits);
            const auto certified = nn::bitplane::run(*bp, coef, block.row(), lo, hi, out);
            for (std::size_t t = 0; t < tile; ++t) {
              if (!certified[t]) continue;
              EXPECT_EQ(out[t], ref[t]) << "bitplane-" << bp->name << " d=" << d
                                        << " tile=" << tile << " t=" << t;
              std::int64_t one = 0;
              EXPECT_EQ(scalar.narrow(lut, w, std::span(patches).subspan(t * d, d),
                                      std::span(&one, 1), lo, hi),
                        0u);
            }
            if (d == 0) {
              EXPECT_EQ(std::count(certified.begin(), certified.end(), 1),
                        static_cast<std::ptrdiff_t>(tile));
            }
          }

          for (const Kernel* k : kernels) {
            std::vector<std::int64_t> out(tile, -2);
            const std::uint64_t sat = k->narrow(lut, w, patches, out, lo, hi);
            const std::string label = std::string(k->name) + " N=" +
                                      std::to_string(n_bits) + " A=" +
                                      std::to_string(accum_bits) + " d=" +
                                      std::to_string(d) + " tile=" +
                                      std::to_string(tile);
            EXPECT_EQ(out, ref) << label;
            EXPECT_EQ(sat, ref_sat) << label;
            if (d == 0) {
              // An empty row sums to 0 with no clamp event, on every kernel.
              EXPECT_EQ(out, std::vector<std::int64_t>(tile, 0)) << label;
              EXPECT_EQ(sat, 0u) << label;
            }

            // The shared wide (int64) path must agree wherever narrow is
            // exact — it is the fallback for accumulators beyond 30 bits.
            std::vector<std::int64_t> wide(tile, -3);
            EXPECT_EQ(k->wide(lut, w, patches, wide, lo, hi), ref_sat) << label;
            EXPECT_EQ(wide, ref) << label;
          }
        }
      }
    }
  }
}

TEST(MacBackends, SparseKernelsMatchDenseScalarAcrossDensities) {
  const Kernel& scalar = nn::backends::scalar_kernel();
  const auto kernels = nn::backends::available_kernels();

  for (const int n_bits : {4, 6, 8}) {
    const sc::ProductLut lut = core::make_proposed_lut(n_bits);
    const int bits = n_bits + 2;
    const std::int64_t lo = common::int_min_of(bits);
    const std::int64_t hi = common::int_max_of(bits);
    const std::size_t d = 27;
    // Nominal nonzero densities; 0% gives the all-skipped row, 100% the
    // fully dense one (modulo codes that randomly land on 0 anyway).
    for (const int density : {0, 10, 50, 100}) {
      for (const std::size_t tile :
           {std::size_t{1}, std::size_t{17}, std::size_t{33}}) {
        const std::uint64_t seed =
            9000 + 100 * static_cast<std::uint64_t>(n_bits) + density + tile;
        auto w = random_codes(d, n_bits, seed);
        common::SplitMix64 zrng(seed + 2);
        for (auto& c : w)
          if (static_cast<int>(zrng.next_below(100)) >= density) c = 0;
        const auto patches = random_codes(d * tile, n_bits, seed + 1);

        std::vector<std::int64_t> ref(tile, -1);
        const std::uint64_t ref_sat = scalar.narrow(lut, w, patches, ref, lo, hi);

        std::vector<std::int32_t> cols, codes;
        for (std::size_t j = 0; j < d; ++j)
          if (w[j] != 0) {
            cols.push_back(static_cast<std::int32_t>(j));
            codes.push_back(w[j]);
          }

        for (const Kernel* k : kernels) {
          const std::string label = std::string(k->name) + " N=" +
                                    std::to_string(n_bits) + " density=" +
                                    std::to_string(density) + "% tile=" +
                                    std::to_string(tile);
          std::vector<std::int64_t> out(tile, -2);
          EXPECT_EQ(k->sparse_narrow(lut, cols, codes, d, patches, out, lo, hi),
                    ref_sat)
              << label;
          EXPECT_EQ(out, ref) << label;

          std::vector<std::int64_t> wide(tile, -3);
          EXPECT_EQ(k->sparse_wide(lut, cols, codes, d, patches, wide, lo, hi),
                    ref_sat)
              << label;
          EXPECT_EQ(wide, ref) << label;
        }
      }
    }
  }
}

TEST(MacBackends, EngineMacRowsIdenticalAcrossBackendsIncludingKHist) {
  std::vector<MacBackend> reqs{MacBackend::kAuto, MacBackend::kScalar};
  if (nn::backends::best_simd_kernel()) reqs.push_back(MacBackend::kSimd);

  for (const int n_bits : {4, 8}) {
    const std::size_t d = 25, tile = 19;
    const auto w = random_codes(d, n_bits, 77);
    const auto patches = random_codes(d * tile, n_bits, 78);

    const auto ref_engine = nn::make_engine({.kind = EngineKind::kProposed,
                                             .n_bits = n_bits,
                                             .backend = MacBackend::kScalar});
    // Serial per-element reference through mac(): the ground truth the
    // batched contract is defined against.
    std::vector<std::int64_t> ref(tile);
    MacStats ref_stats;
    ref_stats.detail = true;
    for (std::size_t t = 0; t < tile; ++t)
      ref[t] = ref_engine->mac(w, std::span(patches).subspan(t * d, d), ref_stats);

    for (const MacBackend b : reqs) {
      const auto engine = nn::make_engine(
          {.kind = EngineKind::kProposed, .n_bits = n_bits, .backend = b});
      std::vector<std::int64_t> out(tile);
      MacStats stats;
      stats.detail = true;
      engine->mac_rows(nn::WeightCodeView(w), patches, out, stats);
      EXPECT_EQ(out, ref) << to_string(b);
      EXPECT_EQ(stats, ref_stats) << to_string(b);  // macs/products/sat/k_hist
      EXPECT_GT(engine->describe().lanes, 0) << to_string(b);
    }
  }
}

TEST(MacBackends, SessionForwardBitIdenticalScalarVsSimdAt1And4Threads) {
  if (!nn::backends::best_simd_kernel())
    GTEST_SKIP() << "no SIMD mac_rows kernel compiled+supported on this machine";

  const auto data = data::make_synthetic_digits({.count = 4, .seed = 5});
  nn::InferenceSession session(nn::make_mnist_net(data.images.h()), /*threads=*/1);
  session.calibrate(data.images);

  session.set_engine({.kind = EngineKind::kProposed, .n_bits = 8, .threads = 1,
                      .backend = MacBackend::kScalar});
  const nn::Tensor ref = session.forward(data.images);
  const MacStats ref_stats = session.last_forward_stats();
  ASSERT_GT(ref_stats.macs, 0u);

  for (const int threads : {1, 4}) {
    session.set_engine({.kind = EngineKind::kProposed, .n_bits = 8,
                        .threads = threads, .backend = MacBackend::kSimd});
    EXPECT_NE(session.backend().backend, "scalar");
    const nn::Tensor got = session.forward(data.images);
    ASSERT_TRUE(ref.same_shape(got));
    EXPECT_EQ(std::memcmp(ref.data().data(), got.data().data(),
                          ref.size() * sizeof(float)),
              0)
        << "logits differ at " << threads << " threads";
    EXPECT_EQ(session.last_forward_stats(), ref_stats) << threads << " threads";
  }
}

/// What an engine of `kind` built with `backend` would run here. The fixed
/// kind has no bit-plane stage, so this names the bare LUT kernel.
std::string resolved_kernel(MacBackend backend, EngineKind kind = EngineKind::kFixed) {
  return nn::resolved_backend(EngineConfig{.kind = kind, .n_bits = 8, .backend = backend})
      .backend;
}

TEST(MacBackends, EnvOverrideForcesAutoButNeverExplicitRequests) {
  ScopedUnsetEnv guard("SCNN_BACKEND");  // restores any ambient value for later tests
  ASSERT_EQ(setenv("SCNN_BACKEND", "scalar", /*overwrite=*/1), 0);
  EXPECT_EQ(resolved_kernel(MacBackend::kAuto), "scalar");
  // The scalar kernel is the LUT-only reference: no bit-plane stage even for
  // the proposed kind.
  EXPECT_EQ(resolved_kernel(MacBackend::kAuto, EngineKind::kProposed), "scalar");
  // An explicit request wins over the environment.
  EXPECT_EQ(resolved_kernel(MacBackend::kScalar), "scalar");
  const Kernel* simd = nn::backends::best_simd_kernel();
  if (simd) EXPECT_EQ(resolved_kernel(MacBackend::kSimd), simd->name);

  // The env's "simd" spelling forces kAuto onto the widest SIMD kernel, and
  // fails loudly where there is none, exactly like an explicit kSimd.
  ASSERT_EQ(setenv("SCNN_BACKEND", "simd", 1), 0);
  if (simd)
    EXPECT_EQ(resolved_kernel(MacBackend::kAuto), simd->name);
  else
    EXPECT_THROW((void)resolved_kernel(MacBackend::kAuto), std::invalid_argument);
  EXPECT_EQ(resolved_kernel(MacBackend::kScalar), "scalar");

  // The env channel also accepts concrete kernel names (A/B idiom).
  for (const Kernel* k : nn::backends::available_kernels()) {
    ASSERT_EQ(setenv("SCNN_BACKEND", k->name, 1), 0);
    EXPECT_EQ(resolved_kernel(MacBackend::kAuto), k->name);
  }

  ASSERT_EQ(setenv("SCNN_BACKEND", "bogus", 1), 0);
  EXPECT_THROW((void)resolved_kernel(MacBackend::kAuto), std::invalid_argument);
  EXPECT_NO_THROW((void)resolved_kernel(MacBackend::kScalar));

  ASSERT_EQ(unsetenv("SCNN_BACKEND"), 0);
  EXPECT_EQ(resolved_kernel(MacBackend::kAuto), simd ? simd->name : "scalar");
}

TEST(MacBackends, ResolvedBackendMatchesWhatMakeEngineBuildsUnderEveryEnv) {
  // Pool keys, `scnn_cli info` and report stamps all read resolved_backend;
  // it must name what construction actually builds — the bit-plane stage
  // included — under every value the SCNN_BACKEND env can take.
  ScopedUnsetEnv guard("SCNN_BACKEND");
  std::vector<std::string> envs{"", "auto", "scalar"};
  if (nn::backends::best_simd_kernel()) envs.push_back("simd");
  for (const Kernel* k : nn::backends::available_kernels()) envs.push_back(k->name);
  for (const std::string& env : envs) {
    if (env.empty())
      ASSERT_EQ(unsetenv("SCNN_BACKEND"), 0);
    else
      ASSERT_EQ(setenv("SCNN_BACKEND", env.c_str(), 1), 0);
    // Narrow and wide accumulators, with and without the bit-plane stage.
    for (EngineConfig cfg : {EngineConfig{.kind = EngineKind::kProposed, .n_bits = 8},
                             EngineConfig{.kind = EngineKind::kProposed, .n_bits = 10},
                             EngineConfig{.kind = EngineKind::kScLfsr, .n_bits = 6},
                             EngineConfig{.kind = EngineKind::kFixed, .n_bits = 8},
                             EngineConfig{.kind = EngineKind::kFixed, .n_bits = 12,
                                          .accum_bits = 20}}) {
      for (const MacBackend backend : {MacBackend::kAuto, MacBackend::kScalar}) {
        cfg.backend = backend;
        const nn::MacEngine::Description want = nn::make_engine(cfg)->describe();
        const nn::MacEngine::Description got = nn::resolved_backend(cfg);
        EXPECT_EQ(got.backend, want.backend) << "env='" << env << "' " << cfg.label();
        EXPECT_EQ(got.lanes, want.lanes) << "env='" << env << "' " << cfg.label();
      }
    }
  }
}

TEST(MacBackends, SimdRequestThrowsWhereUnavailable) {
  if (nn::backends::best_simd_kernel()) {
    // With a SIMD kernel present the request must build and self-describe.
    const auto engine = nn::make_engine(
        {.kind = EngineKind::kProposed, .n_bits = 8, .backend = MacBackend::kSimd});
    EXPECT_NE(engine->describe().backend, "scalar");
    // The proposed kind names its bit-plane stage and the LUT fallback.
    EXPECT_EQ(engine->describe().backend,
              expected_backend(nn::backends::best_simd_kernel()->name));
    EXPECT_EQ(engine->describe().lanes, nn::backends::best_simd_kernel()->lanes);
  } else {
    EXPECT_THROW(nn::make_engine({.kind = EngineKind::kProposed, .n_bits = 8,
                                  .backend = MacBackend::kSimd}),
                 std::invalid_argument);
  }
}

TEST(MacBackends, WideAccumulatorConfigReportsTheRealWidePath) {
  // N = 12, A = 20 -> 32-bit accumulator: outside every SIMD kernel's int32
  // narrow lanes. Kernels without a native wide path (sse2/avx2/neon) share
  // the scalar int64 block, and describe() must say "scalar" honestly;
  // AVX-512 carries its own 8x int64 wide kernel and keeps its name.
  ScopedUnsetEnv guard("SCNN_BACKEND");  // this asserts kAuto resolution
  const auto engine = nn::make_engine({.kind = EngineKind::kFixed, .n_bits = 12,
                                       .accum_bits = 20,
                                       .backend = MacBackend::kAuto});
  const Kernel* best = nn::backends::best_simd_kernel();
  if (best && nn::backends::kernel_has_native_wide(*best)) {
    EXPECT_EQ(engine->describe().backend, best->name);
    EXPECT_EQ(engine->describe().lanes, best->wide_lanes);
  } else {
    EXPECT_EQ(engine->describe().backend, "scalar");
  }

  // And the wide path is still bit-exact against the serial mac() loop.
  const std::size_t d = 9, tile = 11;
  const auto w = random_codes(d, 12, 91);
  const auto patches = random_codes(d * tile, 12, 92);
  std::vector<std::int64_t> out(tile);
  MacStats stats;
  engine->mac_rows(nn::WeightCodeView(w), patches, out, stats);
  for (std::size_t t = 0; t < tile; ++t)
    EXPECT_EQ(out[t], engine->mac(w, std::span(patches).subspan(t * d, d))) << t;
}

TEST(MacBackends, BackendStringsRoundTrip) {
  for (const MacBackend b : {MacBackend::kAuto, MacBackend::kScalar, MacBackend::kSimd})
    EXPECT_EQ(nn::mac_backend_from_string(to_string(b)), b);
  // Concrete kernel names are not MacBackend values — they belong to the
  // SCNN_BACKEND env channel (kernel_by_name), not the config.
  EXPECT_THROW(nn::mac_backend_from_string("avx512"), std::invalid_argument);
  // A config naming a backend this build lacks fails loudly, never silently.
  EXPECT_THROW(nn::mac_backend_from_string("popcount"), std::invalid_argument);
}

TEST(MacBackends, KernelByNameFindsExactlyTheRunnableKernels) {
  EXPECT_EQ(nn::backends::kernel_by_name("scalar"),
            &nn::backends::scalar_kernel());
  EXPECT_EQ(nn::backends::kernel_by_name("avx2"), nn::backends::avx2_kernel());
  EXPECT_EQ(nn::backends::kernel_by_name("avx512"),
            nn::backends::avx512_kernel());
  EXPECT_EQ(nn::backends::kernel_by_name("bogus"), nullptr);
  for (const Kernel* k : nn::backends::available_kernels())
    EXPECT_EQ(nn::backends::kernel_by_name(k->name), k) << k->name;
}

TEST(MacBackends, KernelSupportInventoryIsConsistent) {
  // The `scnn_cli info` inventory: every known kernel appears once, a
  // supported kernel is always compiled, and supported == runnable.
  const auto support = nn::backends::kernel_support();
  ASSERT_GE(support.size(), 5u);  // scalar, sse2, neon, avx2, avx512, ...
  bool saw_scalar = false;
  int stage_rows = 0;
  for (const auto& s : support) {
    const std::string_view name = s.name;
    if (s.supported) EXPECT_TRUE(s.compiled) << name;
    if (name == "scalar") {
      saw_scalar = true;
      EXPECT_TRUE(s.compiled);
      EXPECT_TRUE(s.supported);
    }
    // The proposed engine's bit-plane stage kernels, not mac_rows kernels:
    // runnable exactly when bitplane::available_kernels() lists them.
    if (name.starts_with("bitplane-")) {
      const auto stages = nn::bitplane::available_kernels();
      EXPECT_EQ(s.compiled && s.supported,
                std::any_of(stages.begin(), stages.end(),
                            [&](const nn::bitplane::Kernel* k) {
                              return name.substr(9) == k->name;
                            }))
          << name;
      ++stage_rows;
      continue;
    }
    EXPECT_EQ(s.compiled && s.supported,
              nn::backends::kernel_by_name(name) != nullptr)
        << name;
  }
  EXPECT_TRUE(saw_scalar);
  EXPECT_EQ(stage_rows, 2);  // bitplane-avx2, bitplane-avx512vnni
}

TEST(MacBackends, Avx2EnvResolvesToTheAvx2Stage) {
  // SCNN_BACKEND=avx2 is how A/B runs and tests reach the avx2 stage on
  // AVX-512 hosts: the avx512vnni stage never runs in front of avx2.
  if (!nn::backends::avx2_kernel() || !nn::bitplane::avx2_kernel())
    GTEST_SKIP() << "no avx2 kernel on this machine";
  ScopedUnsetEnv guard("SCNN_BACKEND");
  ASSERT_EQ(setenv("SCNN_BACKEND", "avx2", 1), 0);
  const EngineConfig cfg{.kind = EngineKind::kProposed, .n_bits = 8};
  EXPECT_EQ(nn::resolved_backend(cfg).backend, "bitplane-avx2+avx2");
  const auto engine = nn::make_engine(cfg);
  EXPECT_EQ(engine->describe().backend, "bitplane-avx2+avx2");
  EXPECT_EQ(engine->bitplane_kernel(), nn::bitplane::avx2_kernel());
}

}  // namespace
}  // namespace scnn
