// The certified bit-plane stage of the proposed engine (Sec. 2.3 closed
// form; nn/mac_backends/bitplane.hpp): the identities it rests on, checked
// exhaustively, the plane-group encoding, the stage against the scalar LUT
// reference on raw blocks, Conv2D's plane images over a sweep of
// geometries, and whole networks driven into saturation, where the stage
// must hand exactly the outputs near the rails back to the LUT kernel.
// Lives in the `parallel`-labeled binary so the sanitizer legs cover the
// SIMD kernels and the sharded plane-image build under the threaded
// runtime.
#include <gtest/gtest.h>

#include <algorithm>
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
#include "plane_block.hpp"
#include "scoped_env.hpp"

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

// The activation side's encoding: byte b of a code's plane group is bit b
// of its offset image, the folded group is the offset image of the
// one's-complement fold, and decoding recovers the code — for every code.
TEST(BitplaneLayout, PlaneGroupsRoundTripEveryCode) {
  for (int n = 2; n <= bitplane::kMaxBits; ++n) {
    const std::int32_t half = std::int32_t{1} << (n - 1);
    std::uint64_t failures = 0;
    for (std::int32_t q = -half; q < half; ++q) {
      const std::uint64_t g = bitplane::plane_group(q, n);
      const auto u = static_cast<std::uint32_t>(q + half);
      const auto u_f = static_cast<std::uint32_t>((q >= 0 ? q : ~q) + half);
      const std::uint64_t f = bitplane::folded_group(g, n);
      for (int b = 0; b < 8; ++b) {
        if (((g >> (8 * b)) & 0xff) != ((u >> b) & 1u)) ++failures;
        if (((f >> (8 * b)) & 0xff) != ((u_f >> b) & 1u)) ++failures;
      }
      if (bitplane::plane_code(g, n) != q) ++failures;
    }
    EXPECT_EQ(failures, 0u) << "N=" << n;
    // Padding is code 0: only plane N-1 is set, so p(qw, 0) = +-1 for odd k.
    EXPECT_EQ(bitplane::plane_group(0, n), std::uint64_t{1} << (8 * (n - 1))) << "N=" << n;
  }
}

// Every (qw, qx) pair through the stage's own layout and every stage kernel
// this machine runs: one-code rows against one-code patches are single
// products, all certified at A = 2.
TEST(BitplaneStage, SingleProductsMatchTheTableExhaustively) {
  const auto kernels = bitplane::available_kernels();
  if (kernels.empty()) GTEST_SKIP() << "no bit-plane kernel on this machine";
  for (int n = 2; n <= bitplane::kMaxBits; ++n) {
    const sc::ProductLut lut = core::make_proposed_lut(n);
    const std::int32_t half = std::int32_t{1} << (n - 1);
    std::vector<std::int32_t> codes;
    for (std::int32_t q = -half; q < half; ++q) codes.push_back(q);
    bitplane::Coefficients coef;
    coef.assign(codes, static_cast<int>(codes.size()), 1, n);
    const PlaneBlock block(codes, 1, codes.size(), n);
    for (const bitplane::Kernel* kernel : kernels) {
      std::vector<std::int64_t> out(codes.size() * codes.size(), -1);
      const auto flags = bitplane::run(*kernel, coef, block.row(),
                                       common::int_min_of(n + 2), common::int_max_of(n + 2),
                                       out);
      std::uint64_t failures = 0;
      for (std::size_t m = 0; m < codes.size(); ++m)
        for (std::size_t t = 0; t < codes.size(); ++t) {
          const std::size_t o = m * codes.size() + t;
          if (!flags[o] || out[o] != lut.at(codes[m], codes[t])) ++failures;
        }
      EXPECT_EQ(failures, 0u) << kernel->name << " N=" << n;
    }
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

// Raw blocks through every stage kernel this machine runs: every certified
// output equals the scalar LUT reference and has no clamp event there, and
// every kernel certifies the same outputs; the engine's block call, fallback
// included, equals the scalar engine's mac_rows per filter row in values and
// MacStats. Rows 1-9 straddle the 4-, 2- and 1-row register tiles; tiles
// straddle the groups of four outputs and cover the avx2 kernel's 2-group
// tile and the avx512vnni kernel's zmm pairs (16 outputs), single zmm group
// (8) and 4-output ymm tail; d = 0 is included, and both signed (folded) and
// all-non-negative patch blocks occur.
TEST(BitplaneStage, BlocksMatchScalarReferenceIncludingFallback) {
  const auto kernels = bitplane::available_kernels();
  if (kernels.empty()) GTEST_SKIP() << "no bit-plane kernel on this machine";
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
        for (int rows = 1; rows <= 9; ++rows) {
          for (const std::size_t tile :
               {0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 20, 24, 28, 33}) {
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
              const PlaneBlock block(patches, d, tile, n_bits);
              EXPECT_EQ(block.folded(),
                        std::any_of(patches.begin(), patches.end(),
                                    [](std::int32_t q) { return q < 0; }))
                  << label;
              const std::uint64_t outputs = static_cast<std::uint64_t>(rows) * tile;
              std::vector<std::uint8_t> first_flags;
              for (const bitplane::Kernel* kernel : kernels) {
                const std::string ctx = std::string(kernel->name) + " " + label;
                std::vector<std::int64_t> out(outputs, -7);
                const auto flags = bitplane::run(*kernel, coef, block.row(), lo, hi, out);
                if (kernel == kernels.front())
                  first_flags.assign(flags.begin(), flags.end());
                else
                  EXPECT_TRUE(std::equal(flags.begin(), flags.end(), first_flags.begin(),
                                         first_flags.end()))
                      << ctx;
                std::uint64_t block_cert = 0;
                for (int m = 0; m < rows; ++m) {
                  const std::span<const std::int32_t> row =
                      std::span<const std::int32_t>(w).subspan(static_cast<std::size_t>(m) * d,
                                                               d);
                  for (std::size_t t = 0; t < tile; ++t) {
                    const std::size_t o = static_cast<std::size_t>(m) * tile + t;
                    if (!flags[o]) continue;
                    ++block_cert;
                    std::int64_t ref = -1;
                    const std::uint64_t sat = scalar.narrow(
                        lut, row, std::span<const std::int32_t>(patches).subspan(t * d, d),
                        std::span<std::int64_t>(&ref, 1), lo, hi);
                    EXPECT_EQ(out[o], ref) << ctx << " m=" << m << " t=" << t;
                    EXPECT_EQ(sat, 0u) << ctx << " m=" << m << " t=" << t;
                    if (d == 0) {
                      EXPECT_EQ(out[o], 0) << ctx;
                    }
                  }
                }
                if (d == 0) {
                  EXPECT_EQ(block_cert, outputs) << ctx;
                }
                certified += block_cert;
                uncertified += outputs - block_cert;
                if (block_cert > 0 && block_cert < outputs) ++mixed_blocks;
              }

              // Engine level: the block call with the stage against the
              // scalar engine's mac_rows per filter row.
              const nn::WeightRows wr{.dense = w, .rows = rows, .d = d};
              nn::WeightRows staged = wr;
              staged.planes = &coef;
              std::vector<std::int64_t> ref_out(outputs, -1), got(outputs, -2);
              MacStats ref_stats, got_stats;
              ref_stats.detail = got_stats.detail = true;
              for (int m = 0; m < rows; ++m)
                ref_engine->mac_rows(wr.row(m), patches,
                                     std::span<std::int64_t>(ref_out).subspan(
                                         static_cast<std::size_t>(m) * tile, tile),
                                     ref_stats);
              engine->mac_block(staged, block.row(), got, got_stats);
              EXPECT_EQ(got, ref_out) << label;
              EXPECT_EQ(got_stats, ref_stats) << label;
              EXPECT_EQ(got_stats.uncertified,
                        outputs - static_cast<std::uint64_t>(std::count(
                                      first_flags.begin(), first_flags.end(), 1)))
                  << label;
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

// Each stage kernel's raw dot products on real conv plane images: for every
// output row of an ImageLayout, s and a of every filter row and output must
// equal a scalar dot over the codes decoded from the image, built from the
// closed form's c_i(k) (not from Coefficients), against the offset image
// (s) and the fold's offset image (a). Strides 1-3, pads 0-2, K 1/3/5 and
// output widths C in {5, 7, 8, 12, 13, 24, 32} cover every zmm/ymm group
// split; 1-9 filter rows every mix of the 4-, 2- and 1-row tiles;
// Z K^2 = 250/275/500/525 the avx2 kernel's int16 chunk edges and 4025 a
// long row, with random and full-scale codes. Signed images read a folded
// image, non-negative ones read their plane image twice. Every kernel writes
// into fresh buffers, so an output it skips cannot pass on a stale value.
struct LayoutCase {
  int in_ch, kernel, stride, pad, cols, n_bits, rows;
  bool full_scale = false;
};

void check_layout_case(const LayoutCase& k, std::span<const bitplane::Kernel* const> kernels) {
  const int height = std::max(1, k.kernel - 2 * k.pad + 2 * k.stride);
  const int width = (k.cols - 1) * k.stride + k.kernel - 2 * k.pad;
  if (width < 1) return;
  bitplane::ImageLayout layout;
  layout.assign(k.in_ch, height, width, k.kernel, k.stride, k.pad);
  const int out_rows = (height + 2 * k.pad - k.kernel) / k.stride + 1;
  const std::size_t d = layout.offsets.size();
  const int rows = k.rows;
  const int n = k.n_bits;
  const std::int32_t half = std::int32_t{1} << (n - 1);
  const std::size_t pitch = (static_cast<std::size_t>(k.cols) + 3) / 4 * 4;
  for (const bool folded : {false, true}) {
    const std::string ctx = "Z=" + std::to_string(k.in_ch) + " K=" + std::to_string(k.kernel) +
                            " S=" + std::to_string(k.stride) + " P=" + std::to_string(k.pad) +
                            " C=" + std::to_string(k.cols) + " N=" + std::to_string(n) +
                            " M=" + std::to_string(rows) + (k.full_scale ? " full" : "") + (folded ? " folded" : "");
    common::SplitMix64 rng(static_cast<std::uint64_t>(k.in_ch * 7919 + k.kernel * 131 +
                                                      k.stride * 17 + k.pad * 5 + k.cols +
                                                      n * 1009 + (folded ? 1 : 0)));
    // Pad groups everywhere, then every pixel's code.
    std::vector<std::uint8_t> u(layout.image_bytes), f;
    const std::uint64_t pad_group = bitplane::plane_group(0, n);
    for (std::size_t o = 0; o < u.size(); o += 8) std::memcpy(u.data() + o, &pad_group, 8);
    for (int z = 0; z < k.in_ch; ++z)
      for (int y = 0; y < height; ++y)
        for (int x = 0; x < width; ++x) {
          const std::int32_t q =
              k.full_scale ? (folded ? -half : half - 1)
                           : (folded ? static_cast<std::int32_t>(rng.next_below(2u * half)) - half
                                     : static_cast<std::int32_t>(rng.next_below(half)));
          const std::uint64_t g = bitplane::plane_group(q, n);
          std::memcpy(u.data() + layout.pixel(z, y, x), &g, 8);
        }
    if (folded) {
      f.resize(u.size());
      for (std::size_t o = 0; o < u.size(); o += 8) {
        std::uint64_t g;
        std::memcpy(&g, u.data() + o, 8);
        g = bitplane::folded_group(g, n);
        std::memcpy(f.data() + o, &g, 8);
      }
    }
    std::vector<std::int32_t> w(static_cast<std::size_t>(rows) * d);
    for (auto& q : w)
      q = k.full_scale ? -half : static_cast<std::int32_t>(rng.next_below(2u * half)) - half;
    bitplane::Coefficients coef;
    coef.assign(w, rows, d, n);

    for (int r = 0; r < out_rows; ++r) {
      const std::size_t origin = layout.row_origin(r);
      const bitplane::PlaneRow x{.u = u.data() + origin,
                                 .f = (folded ? f.data() : u.data()) + origin,
                                 .offsets = layout.offsets,
                                 .tile = static_cast<std::size_t>(k.cols)};
      // The reference from the decoded codes.
      std::vector<std::int64_t> s_ref(static_cast<std::size_t>(rows) * pitch, 0);
      std::vector<std::int64_t> a_ref(s_ref.size(), 0);
      for (std::size_t t = 0; t < x.tile; ++t)
        for (std::size_t j = 0; j < d; ++j) {
          std::uint64_t g;
          std::memcpy(&g, x.u + layout.offsets[j] + 8 * t, 8);
          const std::int32_t q = bitplane::plane_code(g, n);
          const auto uo = static_cast<std::uint32_t>(q + half);
          const auto uf = static_cast<std::uint32_t>((q >= 0 ? q : ~q) + half);
          for (int m = 0; m < rows; ++m) {
            const std::int32_t qw = w[static_cast<std::size_t>(m) * d + j];
            const std::int64_t kw = qw < 0 ? -std::int64_t{qw} : qw;
            const std::size_t o = static_cast<std::size_t>(m) * pitch + t;
            s_ref[o] += (qw < 0 ? -1 : 1) * plane_sum(n, kw, uo);
            a_ref[o] += plane_sum(n, kw, uf);
          }
        }
      for (const bitplane::Kernel* kernel : kernels) {
        std::vector<std::int32_t> sv(s_ref.size(), INT32_MIN), av(s_ref.size(), INT32_MIN);
        kernel->dots(coef, x, sv.data(), av.data());
        std::uint64_t failures = 0;
        for (int m = 0; m < rows; ++m)
          for (std::size_t t = 0; t < x.tile; ++t) {
            const std::size_t o = static_cast<std::size_t>(m) * pitch + t;
            failures += (sv[o] != s_ref[o]) + (av[o] != a_ref[o]);
          }
        EXPECT_EQ(failures, 0u) << kernel->name << " " << ctx << " row=" << r;
      }
    }
  }
}

TEST(BitplaneStage, KernelDotsMatchDecodedCodesOnConvLayouts) {
  const auto kernels = bitplane::available_kernels();
  if (kernels.empty()) GTEST_SKIP() << "no bit-plane kernel on this machine";
  int idx = 0;
  for (const int kernel : {1, 3, 5})
    for (const int stride : {1, 2, 3})
      for (const int pad : {0, 1, 2})
        for (const int cols : {5, 7, 8, 12, 13, 24, 32})
          check_layout_case({.in_ch = 2, .kernel = kernel, .stride = stride, .pad = pad,
                             .cols = cols, .n_bits = 2 + idx % 7, .rows = 1 + idx++ % 9},
                            kernels);
  for (const int in_ch : {10, 11, 20, 21, 161})
    for (const bool full_scale : {false, true})
      check_layout_case({.in_ch = in_ch, .kernel = 5, .stride = 1, .pad = 2, .cols = 13,
                         .n_bits = 8, .rows = 7, .full_scale = full_scale},
                        kernels);
}

// Whole networks pushed into saturation: conv weights scaled up after
// calibration, so the quantized codes pile up at the rails and the scalar
// run clamps. kSimd (the stage in front of the widest SIMD kernel) must
// still reproduce the LUT-only references byte for byte — logits and the
// MacStats arithmetic — and report the outputs it handed back. MNIST conv1
// sees all-non-negative plane images (images in [0, 1]); conv2 has no ReLU
// in front of it, so its images hold negative codes and get folded images.
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
        EXPECT_EQ(session.backend().backend,
                  expected_backend(nn::backends::best_simd_kernel()->name))
            << ctx;
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
// the tail: widths 5, 7 and 13 end in a group of four holding 1, 3 and 1
// real outputs (the rest read the plane image's slack), and odd filter
// counts leave a 1-row tail after the 2-row tiles. Signed inputs and weights scaled past calibration put
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

// One Conv2D layer read through its plane images. The input is random in
// [-1, 1] (negative codes, so folded images) or [0, 1]; `gain` scales the
// weights past calibration to push outputs onto the rails; odd_weights sets
// every weight code odd (N = 8), so each padded tap contributes +-1.
struct ConvCase {
  int in_ch, out_ch, kernel, stride, pad, height, width, n_bits, accum_bits;
  bool signed_input;
  float gain;
  bool odd_weights = false;
  bool max_codes = false;  ///< every weight and input code at full scale

  [[nodiscard]] std::string label() const {
    return "Z=" + std::to_string(in_ch) + " M=" + std::to_string(out_ch) +
           " K=" + std::to_string(kernel) + " S=" + std::to_string(stride) +
           " P=" + std::to_string(pad) + " H=" + std::to_string(height) +
           " W=" + std::to_string(width) + " N=" + std::to_string(n_bits) +
           " A=" + std::to_string(accum_bits) + (signed_input ? " signed" : "") +
           (gain != 1.0f ? " gain" : "") + (odd_weights ? " odd" : "") +
           (max_codes ? " max" : "");
  }
};

struct SweepTally {
  std::uint64_t certified = 0, uncertified = 0, cases = 0;
};

// The layer through the stage (an engine built with `backend`) against the
// LUT-only reference (backend = scalar, dense): logits byte for byte,
// MacStats arithmetic equal. With a pool, the sharded forward must also
// equal the serial one, uncertified count included.
void check_conv_case(const ConvCase& k, MacBackend backend, common::ThreadPool* pool,
                     SweepTally& tally) {
  const std::string ctx = k.label();
  nn::Conv2D conv(k.in_ch, k.out_ch, k.kernel, k.stride, k.pad);
  conv.init_weights(static_cast<std::uint64_t>(k.in_ch * 131 + k.kernel * 17 + k.width));
  nn::Tensor x(2, k.in_ch, k.height, k.width);
  common::SplitMix64 rng(static_cast<std::uint64_t>(k.stride * 1009 + k.pad * 101 + k.width));
  for (float& v : x.data())
    v = k.max_codes ? 1.0f
                    : static_cast<float>(rng.next_in(k.signed_input ? -1.0 : 0.0, 1.0));
  if (k.odd_weights) {
    std::size_t i = 0;
    for (float& v : conv.mutable_weight().data())
      v = static_cast<float>(2 * static_cast<int>(i++ % 16) - 15) / 128.0f;
  }
  if (k.max_codes)
    for (float& v : conv.mutable_weight().data()) v = 1.0f;
  conv.calibrate_scales(x);
  if (k.gain != 1.0f)
    for (float& v : conv.mutable_weight().data()) v *= k.gain;

  const auto ref_engine = nn::make_engine({.kind = EngineKind::kProposed,
                                           .n_bits = k.n_bits,
                                           .accum_bits = k.accum_bits,
                                           .backend = MacBackend::kScalar,
                                           .sparsity = nn::Sparsity::kDense});
  const auto engine = nn::make_engine({.kind = EngineKind::kProposed,
                                       .n_bits = k.n_bits,
                                       .accum_bits = k.accum_bits,
                                       .backend = backend});
  ASSERT_TRUE(engine->bitplane_stage()) << ctx;
  conv.set_engine(ref_engine.get());
  const nn::Tensor ref = conv.forward(x);
  const MacStats ref_stats = conv.last_forward_stats();
  conv.set_engine(engine.get());
  const nn::Tensor got = conv.forward(x);
  const MacStats stats = conv.last_forward_stats();
  ASSERT_TRUE(ref.same_shape(got)) << ctx;
  EXPECT_EQ(std::memcmp(ref.data().data(), got.data().data(), ref.size() * sizeof(float)),
            0)
      << ctx;
  EXPECT_EQ(stats, ref_stats) << ctx;
  if (k.odd_weights || k.max_codes) {
    EXPECT_EQ(stats.uncertified, 0u) << ctx;
  }
  ++tally.cases;
  tally.uncertified += stats.uncertified;
  tally.certified += stats.macs - stats.uncertified;
  if (!pool) return;
  conv.set_thread_pool(pool);
  const nn::Tensor sharded = conv.forward(x);
  conv.set_thread_pool(nullptr);
  EXPECT_EQ(std::memcmp(got.data().data(), sharded.data().data(), got.size() * sizeof(float)),
            0)
      << ctx << " sharded";
  EXPECT_EQ(conv.last_forward_stats(), stats) << ctx << " sharded";
  EXPECT_EQ(conv.last_forward_stats().uncertified, stats.uncertified) << ctx << " sharded";
}

// Strides 1-3 (stride phases), pads 0-2 (code-0 pad groups), K in {1, 3, 5},
// output widths C = 5, 6, 7, 12 (every C mod 4, so the last group of four
// carries 0-3 slack outputs; 12 leaves one group after the 2-group register
// tile), N = 2..8, signed and non-negative inputs, every third
// case pushed onto the rails; then Z K^2 on both sides of the 255- and
// 510-code int16 chunk edges, full-scale codes across them, and odd weights
// on a zero image, where the padding's +-1 products are the whole output.
SweepTally run_geometry_sweep(MacBackend backend, common::ThreadPool* pool) {
  SweepTally tally;
  int idx = 0;
  for (const int kernel : {1, 3, 5})
    for (const int stride : {1, 2, 3})
      for (const int pad : {0, 1, 2})
        for (const int cols : {5, 6, 7, 12}) {
          const int width = (cols - 1) * stride + kernel - 2 * pad;
          if (width < 1) continue;
          const int height = std::max(1, kernel - 2 * pad + stride);
          check_conv_case({.in_ch = 2, .out_ch = 3, .kernel = kernel, .stride = stride,
                           .pad = pad, .height = height, .width = width,
                           .n_bits = 2 + idx % 7, .accum_bits = 2,
                           .signed_input = idx % 2 == 0,
                           .gain = idx % 3 == 0 ? 3.0f : 1.0f},
                          backend, pool, tally);
          ++idx;
        }
  for (const int in_ch : {10, 11, 20, 21})
    for (const bool max_codes : {false, true})
      check_conv_case({.in_ch = in_ch, .out_ch = 3, .kernel = 5, .stride = 1, .pad = 2,
                       .height = 6, .width = 6, .n_bits = 8, .accum_bits = 12,
                       .signed_input = true, .gain = 1.0f, .max_codes = max_codes},
                      backend, pool, tally);
  for (const bool signed_input : {false, true})
    check_conv_case({.in_ch = 2, .out_ch = 3, .kernel = 3, .stride = 1, .pad = 1,
                     .height = 5, .width = 5, .n_bits = 8, .accum_bits = 2,
                     .signed_input = signed_input, .gain = 1.0f, .odd_weights = true},
                    backend, pool, tally);
  return tally;
}

TEST(BitplaneConv, GeometrySweepMatchesLutReference) {
  if (!bitplane::avx2_kernel() || !nn::backends::best_simd_kernel())
    GTEST_SKIP() << "no bit-plane kernel on this machine";
  const SweepTally tally = run_geometry_sweep(MacBackend::kSimd, nullptr);
  EXPECT_GT(tally.cases, 100u);
  EXPECT_GT(tally.certified, 0u);
  EXPECT_GT(tally.uncertified, 0u);
}

// The same sweep with kAuto forced onto the avx2 LUT kernel through
// SCNN_BACKEND, which puts the avx2 stage in front of it: on AVX-512 hosts
// this is the avx2 stage's Conv2D coverage.
TEST(BitplaneConv, Avx2StageGeometrySweepMatchesLutReference) {
  if (!bitplane::avx2_kernel() || !nn::backends::avx2_kernel())
    GTEST_SKIP() << "no avx2 bit-plane kernel on this machine";
  ScopedUnsetEnv guard("SCNN_BACKEND");
  ASSERT_EQ(setenv("SCNN_BACKEND", "avx2", 1), 0);
  ASSERT_EQ(nn::make_engine({.kind = EngineKind::kProposed, .n_bits = 8})->describe().backend,
            "bitplane-avx2+avx2");
  const SweepTally tally = run_geometry_sweep(MacBackend::kAuto, nullptr);
  EXPECT_GT(tally.cases, 100u);
  EXPECT_GT(tally.certified, 0u);
  EXPECT_GT(tally.uncertified, 0u);
}

// The same sweep with every layer also sharded over 4 workers: the plane
// images are built and read concurrently, and must give the serial result.
TEST(BitplaneConv, ShardedGeometrySweepMatchesSerial) {
  if (!bitplane::avx2_kernel() || !nn::backends::best_simd_kernel())
    GTEST_SKIP() << "no bit-plane kernel on this machine";
  common::ThreadPool pool(4);
  const SweepTally tally = run_geometry_sweep(MacBackend::kSimd, &pool);
  EXPECT_GT(tally.uncertified, 0u);
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
            expected_backend(nn::backends::best_simd_kernel()->name));
}

}  // namespace
}  // namespace scnn
