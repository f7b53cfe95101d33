// The certified bit-plane stage of the proposed engine (Sec. 2.3 closed
// form; nn/mac_backends/bitplane.hpp): the identities it rests on, checked
// exhaustively, the stage against the scalar LUT reference on raw blocks,
// and whole networks driven into saturation, where the stage must hand
// exactly the outputs near the rails back to the LUT kernel. Lives in the
// `parallel`-labeled binary so the sanitizer legs cover the SIMD kernels
// under the threaded runtime.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/ld_sequence.hpp"
#include "core/scmac.hpp"
#include "data/synthetic_digits.hpp"
#include "nn/conv2d.hpp"
#include "nn/inference_session.hpp"
#include "nn/mac_backends/bitplane.hpp"
#include "nn/mac_backends/mac_backends.hpp"
#include "nn/mac_engine.hpp"
#include "nn/network.hpp"

namespace scnn {
namespace {

using nn::EngineKind;
using nn::MacBackend;
using nn::MacStats;
namespace bitplane = nn::bitplane;

std::int64_t c_i(int i, std::int64_t k) {
  return static_cast<std::int64_t>(
      core::FsmMuxSequence::prefix_count(i, static_cast<std::uint64_t>(k)));
}

/// sum_i c_i(k) * b_i(u), b_i = bit N-i of u.
std::int64_t plane_sum(int n_bits, std::int64_t k, std::uint32_t u) {
  std::int64_t p = 0;
  for (int i = 1; i <= n_bits; ++i)
    if ((u >> (n_bits - i)) & 1u) p += c_i(i, k);
  return p;
}

TEST(BitplaneIdentities, ExhaustiveForEveryPrecision) {
  for (int n = 2; n <= 12; ++n) {
    const std::int32_t half = std::int32_t{1} << (n - 1);
    std::int64_t max_c = 0;
    std::uint64_t sum_failures = 0;
    for (std::int64_t k = 0; k <= half; ++k) {
      std::int64_t sum = 0;
      for (int i = 1; i <= n; ++i) {
        sum += c_i(i, k);
        if (c_i(i, k) > max_c) max_c = c_i(i, k);
      }
      if (sum != k) ++sum_failures;
    }
    EXPECT_EQ(sum_failures, 0u) << "sum_i c_i(k) = k, N=" << n;
    EXPECT_EQ(max_c, std::int64_t{1} << (n - 2)) << "max c_i, N=" << n;

    std::uint64_t linear = 0, sign = 0, magnitude = 0;
    for (std::int32_t qw = -half; qw < half; ++qw) {
      const std::int64_t k = qw < 0 ? -std::int64_t{qw} : qw;
      const std::int64_t s = qw < 0 ? -1 : 1;
      for (std::int32_t qx = -half; qx < half; ++qx) {
        const std::int64_t p = core::multiply_signed(n, qx, qw);
        const auto u = static_cast<std::uint32_t>(qx + half);
        const auto u_f = static_cast<std::uint32_t>((qx >= 0 ? qx : ~qx) + half);
        if (p != s * (2 * plane_sum(n, k, u) - k)) ++linear;
        if (p * s * (qx >= 0 ? 1 : -1) < 0) ++sign;
        if ((p < 0 ? -p : p) != 2 * plane_sum(n, k, u_f) - k) ++magnitude;
      }
    }
    EXPECT_EQ(linear, 0u) << "p = s(2 sum c_i b_i(u) - k), N=" << n;
    EXPECT_EQ(sign, 0u) << "sign(p) = sign(w) sign(x) weakly, N=" << n;
    EXPECT_EQ(magnitude, 0u) << "|p| = 2 sum c_i b_i(u_f) - k, N=" << n;
  }
}

// Every (qw, qx) pair through the stage's own layout and kernel: one-code
// rows against one-code patches are single products, all certified at A = 2.
TEST(BitplaneStage, SingleProductsMatchTheTableExhaustively) {
  const bitplane::Kernel* kernel = bitplane::avx2_kernel();
  if (!kernel) GTEST_SKIP() << "no bit-plane kernel on this machine";
  for (int n = 2; n <= bitplane::kMaxBits; ++n) {
    const sc::ProductLut lut = core::make_proposed_lut(n);
    const std::int32_t half = std::int32_t{1} << (n - 1);
    std::vector<std::int32_t> codes;
    for (std::int32_t q = -half; q < half; ++q) codes.push_back(q);
    bitplane::Coefficients coef;
    coef.assign(codes, static_cast<int>(codes.size()), 1, n);
    std::vector<std::int64_t> out(codes.size() * codes.size(), -1);
    const auto flags = bitplane::run(*kernel, coef, codes, codes.size(),
                                     common::int_min_of(n + 2),
                                     common::int_max_of(n + 2), out);
    std::uint64_t failures = 0;
    for (std::size_t m = 0; m < codes.size(); ++m)
      for (std::size_t t = 0; t < codes.size(); ++t) {
        const std::size_t o = m * codes.size() + t;
        if (!flags[o] || out[o] != lut.at(codes[m], codes[t])) ++failures;
      }
    EXPECT_EQ(failures, 0u) << "N=" << n;
  }
}

std::vector<std::int32_t> random_codes(std::size_t count, int n_bits, bool signed_codes,
                                       std::uint64_t seed) {
  const std::int32_t half = 1 << (n_bits - 1);
  std::vector<std::int32_t> codes(count);
  common::SplitMix64 rng(seed);
  for (auto& c : codes)
    c = signed_codes ? static_cast<std::int32_t>(
                           rng.next_below(2u * static_cast<unsigned>(half))) -
                           half
                     : static_cast<std::int32_t>(rng.next_below(static_cast<unsigned>(half)));
  return codes;
}

// Raw blocks: every certified output equals the scalar LUT reference and has
// no clamp event there; the engine's block call, fallback included, equals
// the scalar engine's per-row loop in values and MacStats. Rows and tiles
// straddle the 2 x 3 / 2 x 2 register tiles, d straddles the 4-code
// expansion groups (d = 0 included), and both signed and all-non-negative
// patch blocks occur.
TEST(BitplaneStage, BlocksMatchScalarReferenceIncludingFallback) {
  const bitplane::Kernel* kernel = bitplane::avx2_kernel();
  if (!kernel) GTEST_SKIP() << "no bit-plane kernel on this machine";
  const nn::backends::Kernel& scalar = nn::backends::scalar_kernel();
  std::uint64_t certified = 0, uncertified = 0, mixed_blocks = 0;
  for (const int n_bits : {2, 4, 5, 8}) {
    const sc::ProductLut lut = core::make_proposed_lut(n_bits);
    for (const int accum_bits : {0, 2}) {
      const int bits = n_bits + accum_bits;
      const std::int64_t lo = common::int_min_of(bits), hi = common::int_max_of(bits);
      const auto ref_engine = nn::make_engine({.kind = EngineKind::kProposed,
                                               .n_bits = n_bits,
                                               .accum_bits = accum_bits,
                                               .backend = MacBackend::kScalar});
      const auto engine = nn::make_engine({.kind = EngineKind::kProposed,
                                           .n_bits = n_bits,
                                           .accum_bits = accum_bits,
                                           .backend = MacBackend::kSimd});
      ASSERT_TRUE(engine->bitplane_stage());
      ASSERT_FALSE(ref_engine->bitplane_stage());
      for (const std::size_t d : {0, 1, 5, 27, 75}) {
        for (const int rows : {1, 2, 3, 5}) {
          for (const std::size_t tile : {0, 1, 2, 3, 4, 5, 7, 8, 16, 17}) {
            for (const bool signed_patches : {false, true}) {
              const std::uint64_t seed = 7919 * d + 131 * tile +
                                         static_cast<std::uint64_t>(rows * 17 + bits) +
                                         (signed_patches ? 5 : 0);
              const auto w = random_codes(static_cast<std::size_t>(rows) * d, n_bits,
                                          true, seed);
              const auto patches = random_codes(tile * d, n_bits, signed_patches,
                                                seed + 1);
              const std::string label =
                  "N=" + std::to_string(n_bits) + " A=" + std::to_string(accum_bits) +
                  " d=" + std::to_string(d) + " rows=" + std::to_string(rows) +
                  " tile=" + std::to_string(tile) + (signed_patches ? " signed" : "");

              bitplane::Coefficients coef;
              coef.assign(w, rows, d, n_bits);
              std::vector<std::int64_t> out(static_cast<std::size_t>(rows) * tile, -7);
              const auto flags = bitplane::run(*kernel, coef, patches, tile, lo, hi, out);
              std::uint64_t block_cert = 0;
              for (int m = 0; m < rows; ++m) {
                const std::span<const std::int32_t> row =
                    std::span<const std::int32_t>(w).subspan(static_cast<std::size_t>(m) * d, d);
                for (std::size_t t = 0; t < tile; ++t) {
                  const std::size_t o = static_cast<std::size_t>(m) * tile + t;
                  if (!flags[o]) continue;
                  ++block_cert;
                  std::int64_t ref = -1;
                  const std::uint64_t sat = scalar.narrow(
                      lut, row, std::span<const std::int32_t>(patches).subspan(t * d, d),
                      std::span<std::int64_t>(&ref, 1), lo, hi);
                  EXPECT_EQ(out[o], ref) << label << " m=" << m << " t=" << t;
                  EXPECT_EQ(sat, 0u) << label << " m=" << m << " t=" << t;
                  if (d == 0) EXPECT_EQ(out[o], 0) << label;
                }
              }
              const std::uint64_t outputs = static_cast<std::uint64_t>(rows) * tile;
              if (d == 0) EXPECT_EQ(block_cert, outputs) << label;
              certified += block_cert;
              uncertified += outputs - block_cert;
              if (block_cert > 0 && block_cert < outputs) ++mixed_blocks;

              // Engine level: the block call with the stage against the
              // scalar engine's default per-row loop.
              const nn::WeightRows wr{.dense = w, .rows = rows, .d = d};
              nn::WeightRows staged = wr;
              staged.planes = &coef;
              std::vector<std::int64_t> ref_out(out.size(), -1), got(out.size(), -2);
              MacStats ref_stats, got_stats;
              ref_stats.detail = got_stats.detail = true;
              ref_engine->mac_block(wr, patches, ref_out, ref_stats);
              engine->mac_block(staged, patches, got, got_stats);
              EXPECT_EQ(got, ref_out) << label;
              EXPECT_EQ(got_stats, ref_stats) << label;
              EXPECT_EQ(got_stats.uncertified, outputs - block_cert) << label;
              EXPECT_EQ(ref_stats.uncertified, 0u) << label;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(certified, 0u);
  EXPECT_GT(uncertified, 0u);
  EXPECT_GT(mixed_blocks, 0u);
}

// Whole networks pushed into saturation: conv weights scaled up after
// calibration, so the quantized codes pile up at the rails and the scalar
// run clamps. kSimd (the stage in front of the widest SIMD kernel) must
// still reproduce the LUT-only references byte for byte — logits and the
// MacStats arithmetic — and report the outputs it handed back. MNIST conv1
// sees all-non-negative blocks (images in [0, 1]); conv2 has no ReLU in
// front of it, so its blocks are signed, and its 8-wide output rows leave a
// 2-patch tail after the 3-patch register tiles.
TEST(BitplaneStage, AdversarialConvMatchesLutReferences) {
  if (!bitplane::avx2_kernel() || !nn::backends::best_simd_kernel())
    GTEST_SKIP() << "no bit-plane kernel on this machine";
  const auto data = data::make_synthetic_digits({.count = 4, .seed = 11});
  for (const int n_bits : {5, 6, 8}) {
    nn::InferenceSession session(nn::make_mnist_net(data.images.h()), 1);
    session.calibrate(data.images);
    for (nn::Conv2D* conv : session.network().conv_layers())
      for (float& v : conv->mutable_weight().data()) v *= 3.0f;

    session.set_engine({.kind = EngineKind::kProposed, .n_bits = n_bits,
                        .backend = MacBackend::kScalar,
                        .sparsity = nn::Sparsity::kDense});
    const nn::Tensor ref = session.forward(data.images);
    const MacStats ref_stats = session.last_forward_stats();
    ASSERT_GT(ref_stats.saturations, 0u) << "N=" << n_bits;

    for (const nn::Sparsity sparsity : {nn::Sparsity::kDense, nn::Sparsity::kAuto}) {
      for (const int threads : {1, 4}) {
        session.set_engine({.kind = EngineKind::kProposed, .n_bits = n_bits,
                            .threads = threads, .backend = MacBackend::kSimd,
                            .sparsity = sparsity});
        const std::string ctx = "N=" + std::to_string(n_bits) + " " +
                                to_string(sparsity) + " threads=" + std::to_string(threads);
        EXPECT_EQ(session.backend().backend.rfind("bitplane-avx2+", 0), 0u) << ctx;
        const nn::Tensor got = session.forward(data.images);
        ASSERT_TRUE(ref.same_shape(got)) << ctx;
        EXPECT_EQ(std::memcmp(ref.data().data(), got.data().data(),
                              ref.size() * sizeof(float)),
                  0)
            << ctx;
        const MacStats& stats = session.last_forward_stats();
        EXPECT_EQ(stats, ref_stats) << ctx;
        EXPECT_GT(stats.uncertified, 0u) << ctx;
        EXPECT_LT(stats.uncertified, stats.macs) << ctx;
      }
    }
  }
}

// Conv2D hands the stage one block per output row, so the row width sets
// the patch tail: widths 5, 7 and 13 leave 2-, 1- and 1-patch tails after
// the 3-patch register tiles, and odd filter counts leave a 1-row tail after
// the 2-row tiles. Signed inputs and weights scaled past calibration put
// some outputs at the rails, so certified outputs and LUT fallbacks share
// every row; the layer must still match the LUT-only reference byte for
// byte, serial and sharded.
TEST(BitplaneStage, RaggedConvRowsMatchLutReference) {
  if (!bitplane::avx2_kernel() || !nn::backends::best_simd_kernel())
    GTEST_SKIP() << "no bit-plane kernel on this machine";
  struct Shape {
    int width, in_ch, out_ch;
  };
  common::ThreadPool pool(4);
  for (const Shape shape : {Shape{5, 2, 3}, Shape{7, 3, 5}, Shape{13, 1, 3}}) {
    nn::Conv2D conv(shape.in_ch, shape.out_ch, 3, 1, 1);
    conv.init_weights(static_cast<std::uint64_t>(shape.width));
    nn::Tensor x(2, shape.in_ch, 4, shape.width);
    common::SplitMix64 rng(static_cast<std::uint64_t>(100 + shape.width));
    for (float& v : x.data()) v = static_cast<float>(rng.next_in(-1.0, 1.0));
    conv.calibrate_scales(x);
    for (float& v : conv.mutable_weight().data()) v *= 3.0f;
    for (const int n_bits : {5, 8}) {
      const auto ref_engine = nn::make_engine({.kind = EngineKind::kProposed,
                                               .n_bits = n_bits,
                                               .backend = MacBackend::kScalar,
                                               .sparsity = nn::Sparsity::kDense});
      const auto engine = nn::make_engine(
          {.kind = EngineKind::kProposed, .n_bits = n_bits, .backend = MacBackend::kSimd});
      ASSERT_TRUE(engine->bitplane_stage());
      conv.set_thread_pool(nullptr);
      conv.set_engine(ref_engine.get());
      const nn::Tensor ref = conv.forward(x);
      const MacStats ref_stats = conv.last_forward_stats();
      conv.set_engine(engine.get());
      for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr), &pool}) {
        conv.set_thread_pool(p);
        const std::string ctx = "C=" + std::to_string(shape.width) +
                                " out_ch=" + std::to_string(shape.out_ch) +
                                " N=" + std::to_string(n_bits) +
                                (p ? " sharded" : " serial");
        const nn::Tensor got = conv.forward(x);
        ASSERT_TRUE(ref.same_shape(got)) << ctx;
        EXPECT_EQ(std::memcmp(ref.data().data(), got.data().data(),
                              ref.size() * sizeof(float)),
                  0)
            << ctx;
        const MacStats& stats = conv.last_forward_stats();
        EXPECT_EQ(stats, ref_stats) << ctx;
        EXPECT_GT(stats.uncertified, 0u) << ctx;
        EXPECT_LT(stats.uncertified, stats.macs) << ctx;
      }
    }
  }
}

TEST(BitplaneStage, ScalarBackendWideNAndOtherKindsStayLutOnly) {
  // backend = scalar is the LUT-only reference; N > 8 is outside the
  // stage's window; other kinds have no closed form.
  EXPECT_FALSE(nn::make_engine({.kind = EngineKind::kProposed, .n_bits = 8,
                                .backend = MacBackend::kScalar})
                   ->bitplane_stage());
  EXPECT_FALSE(nn::make_engine({.kind = EngineKind::kProposed, .n_bits = 9,
                                .backend = MacBackend::kSimd})
                   ->bitplane_stage());
  EXPECT_FALSE(nn::make_engine({.kind = EngineKind::kFixed, .n_bits = 8,
                                .backend = MacBackend::kSimd})
                   ->bitplane_stage());
  if (!bitplane::avx2_kernel() || !nn::backends::best_simd_kernel()) return;
  const nn::EngineConfig cfg{.kind = EngineKind::kProposed, .n_bits = 8,
                             .backend = MacBackend::kSimd};
  const auto engine = nn::make_engine(cfg);
  EXPECT_TRUE(engine->bitplane_stage());
  // Reports and pool keys resolve exactly what construction built.
  EXPECT_EQ(nn::resolved_backend(cfg).backend, engine->describe().backend);
  EXPECT_EQ(engine->describe().backend,
            std::string("bitplane-avx2+") + nn::backends::best_simd_kernel()->name);
}

}  // namespace
}  // namespace scnn
