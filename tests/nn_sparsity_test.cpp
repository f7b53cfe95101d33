// Zero-skip sparse scheduling: the packed weight-code cache, the typed
// WeightCodeView contract, the k-aware weighted shard planner, and — the
// headline property — that zero-skip inference is bit-identical to dense
// across weight densities, backends, and thread counts: same logits, same
// MacStats (saturation counts included), same k-histograms. Lives in the
// `parallel`-labeled binary so the TSan leg exercises the planned sharding.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "data/synthetic_digits.hpp"
#include "nn/inference_session.hpp"
#include "nn/mac_backends/mac_backends.hpp"
#include "nn/network.hpp"
#include "nn/quantize.hpp"
#include "scoped_env.hpp"

namespace scnn::nn {
namespace {

std::vector<std::int32_t> random_codes(std::size_t n, int n_bits, std::uint64_t seed,
                                       double zero_fraction) {
  common::SplitMix64 rng(seed);
  const std::int64_t half = std::int64_t{1} << (n_bits - 1);
  std::vector<std::int32_t> v(n);
  for (auto& q : v) {
    if (rng.next_double() < zero_fraction) {
      q = 0;
      continue;
    }
    q = static_cast<std::int32_t>(
        static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(2 * half))) -
        half);
  }
  return v;
}

TEST(PackedRowCodes, BuildMatchesTheDenseCodesExactly) {
  const int rows = 7, row_len = 23;
  const auto dense = random_codes(static_cast<std::size_t>(rows) * row_len, 8, 11,
                                  /*zero_fraction=*/0.4);
  const PackedRowCodes p = PackedRowCodes::build(dense, rows, row_len);

  ASSERT_EQ(p.rows, rows);
  ASSERT_EQ(p.row_len, row_len);
  ASSERT_EQ(p.row_ptr.size(), static_cast<std::size_t>(rows) + 1);
  std::uint64_t zeros = 0, k_total = 0;
  for (int r = 0; r < rows; ++r) {
    const auto cols = p.row_cols(r);
    const auto codes = p.row_codes(r);
    ASSERT_EQ(cols.size(), codes.size());
    // Reconstruct the dense row from the CSR slice; columns must be strictly
    // increasing (the order that preserves the dense saturation sequence).
    std::vector<std::int32_t> rebuilt(static_cast<std::size_t>(row_len), 0);
    std::uint64_t k = 0;
    for (std::size_t i = 0; i < cols.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(cols[i - 1], cols[i]);
      }
      ASSERT_GE(cols[i], 0);
      ASSERT_LT(cols[i], row_len);
      EXPECT_NE(codes[i], 0);
      rebuilt[static_cast<std::size_t>(cols[i])] = codes[i];
      k += static_cast<std::uint64_t>(std::abs(static_cast<std::int64_t>(codes[i])));
    }
    const std::span<const std::int32_t> want =
        std::span(dense).subspan(static_cast<std::size_t>(r) * row_len,
                                 static_cast<std::size_t>(row_len));
    EXPECT_TRUE(std::equal(want.begin(), want.end(), rebuilt.begin())) << "row " << r;
    EXPECT_EQ(p.row_k_sum[static_cast<std::size_t>(r)], k) << "row " << r;
    EXPECT_EQ(p.row_budget(r), k + p.nnz(r) + 1) << "row " << r;
    zeros += static_cast<std::uint64_t>(row_len) - p.nnz(r);
    k_total += k;
  }
  EXPECT_EQ(p.zeros, zeros);
  EXPECT_EQ(p.total_k_sum, k_total);
}

TEST(WeightCodeView, DenseAndPackedViewsDescribeTheSameRow) {
  const auto dense = random_codes(31, 8, 13, 0.5);
  const PackedRowCodes p = PackedRowCodes::build(dense, 1, 31);

  const WeightCodeView d{std::span<const std::int32_t>(dense)};
  EXPECT_FALSE(d.packed());
  EXPECT_EQ(d.size(), dense.size());
  EXPECT_EQ(d.nnz(), 0u);  // no CSR slice attached

  const WeightCodeView v = WeightCodeView::packed_row(dense, p, 0);
  EXPECT_TRUE(v.packed());
  EXPECT_EQ(v.size(), dense.size());
  EXPECT_EQ(v.nnz(), p.nnz(0));
  EXPECT_EQ(v.k_sum(), p.row_k_sum[0]);
  for (std::size_t i = 0; i < v.nnz(); ++i)
    EXPECT_EQ(v.codes()[i], dense[static_cast<std::size_t>(v.cols()[i])]);
}

TEST(WeightedShardPlan, CoversEveryItemDeterministicallyAndBalancesSkew) {
  // Heavy head, light tail: an even row split would put all the weight in
  // shard 0. The weighted plan must cover [0, n) with monotone bounds and
  // put the heavy item alone in its shard.
  std::vector<std::uint64_t> weights{1000, 1, 1, 1, 1, 1, 1, 1};
  const common::ShardPlan plan = common::plan_weighted_shards(weights, 4);
  ASSERT_EQ(plan.shards(), 4);
  EXPECT_EQ(plan.bounds.front(), 0);
  EXPECT_EQ(plan.bounds.back(), static_cast<std::int64_t>(weights.size()));
  for (std::size_t i = 1; i < plan.bounds.size(); ++i)
    EXPECT_LE(plan.bounds[i - 1], plan.bounds[i]);
  EXPECT_EQ(plan.total_weight, std::accumulate(weights.begin(), weights.end(),
                                               std::uint64_t{0}));
  EXPECT_EQ(plan.bounds[1], 1);  // the 1000-weight item fills shard 0 alone
  EXPECT_EQ(plan.max_weight, 1000u);

  // Same inputs, same plan — determinism is what keeps per-shard stat
  // merging reproducible.
  const common::ShardPlan again = common::plan_weighted_shards(weights, 4);
  EXPECT_EQ(again.bounds, plan.bounds);

  // Zero weights clamp to 1, so all-zero items still spread across shards.
  const std::vector<std::uint64_t> zeros(8, 0);
  const common::ShardPlan z = common::plan_weighted_shards(zeros, 4);
  ASSERT_EQ(z.shards(), 4);
  for (int s = 0; s < 4; ++s)
    EXPECT_EQ(z.bounds[static_cast<std::size_t>(s) + 1] -
                  z.bounds[static_cast<std::size_t>(s)],
              2);
}

TEST(WeightedShardPlan, PlannedForVisitsEachItemOnceWithPlanShardIndices) {
  common::ThreadPool pool(4);
  const std::vector<std::uint64_t> weights{9, 1, 1, 1, 7, 1, 1, 1, 1, 1};
  const common::ShardPlan plan =
      common::plan_weighted_shards(weights, common::parallel_shard_count(&pool, 10));
  std::vector<std::atomic<int>> visits(10);
  common::parallel_for_planned(&pool, plan, [&](std::int64_t lo, std::int64_t hi, int s) {
    ASSERT_GE(s, 0);
    ASSERT_LT(s, plan.shards());
    EXPECT_EQ(lo, plan.bounds[static_cast<std::size_t>(s)]);
    EXPECT_EQ(hi, plan.bounds[static_cast<std::size_t>(s) + 1]);
    for (std::int64_t i = lo; i < hi; ++i) visits[static_cast<std::size_t>(i)]++;
  });
  for (int i = 0; i < 10; ++i) EXPECT_EQ(visits[static_cast<std::size_t>(i)].load(), 1);
}

TEST(ZeroSkipResolution, AutoSkipsOnlyForZeroAnnihilatingTables) {
  // This asserts kAuto resolution, which an ambient SCNN_SPARSITY outranks.
  ScopedUnsetEnv guard("SCNN_SPARSITY");
  // fixed and proposed tables annihilate zero by construction; conventional
  // bipolar SC (sc-lfsr) does not — a zero code still contributes there.
  for (const EngineKind kind : {EngineKind::kFixed, EngineKind::kProposed}) {
    const auto engine = make_engine({.kind = kind, .n_bits = 8});
    EXPECT_TRUE(engine->zero_skip()) << to_string(kind);
    const auto dense = make_engine(
        {.kind = kind, .n_bits = 8, .sparsity = Sparsity::kDense});
    EXPECT_FALSE(dense->zero_skip()) << to_string(kind);
  }
  const auto lfsr = make_engine({.kind = EngineKind::kScLfsr, .n_bits = 8});
  EXPECT_FALSE(lfsr->zero_skip());

  // An explicit zero-skip request on a non-annihilating table is an error
  // (granting it would change results), and the error names the table.
  try {
    (void)make_engine({.kind = EngineKind::kScLfsr, .n_bits = 8,
                       .sparsity = Sparsity::kZeroSkip});
    FAIL() << "zero-skip on sc-lfsr must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("annihilate"), std::string::npos) << e.what();
  }
}

TEST(ZeroSkipResolution, EnvSteersAutoButNeverExplicitRequests) {
  ScopedUnsetEnv guard("SCNN_SPARSITY");  // restores any ambient value
  ASSERT_EQ(setenv("SCNN_SPARSITY", "dense", /*overwrite=*/1), 0);
  EXPECT_FALSE(make_engine({.kind = EngineKind::kProposed, .n_bits = 8})->zero_skip());
  // Explicit requests win over the environment.
  EXPECT_TRUE(make_engine({.kind = EngineKind::kProposed, .n_bits = 8,
                           .sparsity = Sparsity::kZeroSkip})
                  ->zero_skip());

  ASSERT_EQ(setenv("SCNN_SPARSITY", "zero_skip", 1), 0);
  EXPECT_TRUE(make_engine({.kind = EngineKind::kProposed, .n_bits = 8})->zero_skip());

  ASSERT_EQ(setenv("SCNN_SPARSITY", "bogus", 1), 0);
  EXPECT_THROW((void)make_engine({.kind = EngineKind::kProposed, .n_bits = 8}),
               std::invalid_argument);
  EXPECT_NO_THROW((void)make_engine({.kind = EngineKind::kProposed, .n_bits = 8,
                                     .sparsity = Sparsity::kDense}));
}

TEST(ZeroSkipMacRows, PackedViewMatchesDenseAndBooksSkippedProducts) {
  const std::size_t d = 40, tile = 13;
  for (const int n_bits : {4, 8}) {
    const auto w = random_codes(d, n_bits, 21, 0.6);
    const auto patches = random_codes(d * tile, n_bits, 22, 0.0);
    const PackedRowCodes p = PackedRowCodes::build(w, 1, static_cast<int>(d));
    ASSERT_GT(p.zeros, 0u);

    const auto dense_engine = make_engine({.kind = EngineKind::kProposed,
                                           .n_bits = n_bits,
                                           .sparsity = Sparsity::kDense});
    const auto skip_engine = make_engine({.kind = EngineKind::kProposed,
                                          .n_bits = n_bits,
                                          .sparsity = Sparsity::kZeroSkip});
    std::vector<std::int64_t> dense_out(tile), skip_out(tile);
    MacStats dense_stats, skip_stats;
    dense_stats.detail = skip_stats.detail = true;
    dense_engine->mac_rows(WeightCodeView(w), patches, dense_out, dense_stats);
    skip_engine->mac_rows(WeightCodeView::packed_row(w, p, 0), patches, skip_out,
                          skip_stats);

    EXPECT_EQ(skip_out, dense_out);
    EXPECT_EQ(skip_stats, dense_stats);  // arithmetic + k_hist identical
    EXPECT_EQ(dense_stats.skipped_products, 0u);
    EXPECT_EQ(skip_stats.skipped_products, p.zeros * tile);
  }
}

/// Zero a deterministic fraction of every conv layer's weights, then
/// re-mark them updated so the code caches rebuild.
void sparsify_convs(Network& net, double zero_fraction, std::uint64_t seed) {
  common::SplitMix64 rng(seed);
  for (Conv2D* conv : net.conv_layers())
    for (float& v : conv->mutable_weight().data())
      if (rng.next_double() < zero_fraction) v = 0.0f;
}

// The headline sweep: densities 0/10/50/100% zeroed x {scalar, simd}
// backends x 1 and 4 threads x N = 4..8 — dense and zero-skip must produce
// byte-identical logits and equal MacStats (saturations and k-histograms
// included), while zero-skip actually skips once zeros exist.
TEST(ZeroSkipInference, BitIdenticalToDenseAcrossDensityBackendThreadsAndN) {
  const auto data = data::make_synthetic_digits({.count = 4, .seed = 5});

  std::vector<MacBackend> backends{MacBackend::kScalar};
  if (backends::best_simd_kernel()) backends.push_back(MacBackend::kSimd);

  for (const double zero_fraction : {0.0, 0.1, 0.5, 1.0}) {
    Network net = make_mnist_net(data.images.h());
    sparsify_convs(net, zero_fraction, 99);
    InferenceSession session(std::move(net), /*threads=*/1);
    session.calibrate(data.images);

    for (const int n_bits : {4, 5, 6, 7, 8}) {
      // Dense scalar serial run: the reference for this (density, N) cell.
      session.set_engine({.kind = EngineKind::kProposed, .n_bits = n_bits,
                          .threads = 1, .backend = MacBackend::kScalar,
                          .sparsity = Sparsity::kDense});
      const Tensor ref = session.forward(data.images);
      const MacStats ref_stats = session.last_forward_stats();
      ASSERT_GT(ref_stats.macs, 0u);

      for (const MacBackend backend : backends) {
        for (const int threads : {1, 4}) {
          session.set_engine({.kind = EngineKind::kProposed, .n_bits = n_bits,
                              .threads = threads, .backend = backend,
                              .sparsity = Sparsity::kZeroSkip});
          const Tensor got = session.forward(data.images);
          const MacStats stats = session.last_forward_stats();
          const std::string ctx = "zero_fraction=" + std::to_string(zero_fraction) +
                                  " N=" + std::to_string(n_bits) +
                                  " backend=" + to_string(backend) +
                                  " threads=" + std::to_string(threads);
          ASSERT_TRUE(ref.same_shape(got)) << ctx;
          EXPECT_EQ(std::memcmp(ref.data().data(), got.data().data(),
                                ref.size() * sizeof(float)),
                    0)
              << ctx;
          EXPECT_EQ(stats, ref_stats) << ctx;  // macs/products/sat/k_hist
          // The bit-plane stage issues no columns, so only the outputs it
          // hands back to the LUT kernel can skip anything.
          if (zero_fraction > 0.0 && !session.engine()->bitplane_stage()) {
            EXPECT_GT(stats.skipped_products, 0u) << ctx;
          }
          if (session.engine()->bitplane_stage() && stats.uncertified == 0) {
            EXPECT_EQ(stats.skipped_products, 0u) << ctx;
          }
          EXPECT_GT(stats.sched_shards, 0u) << ctx;
          EXPECT_GE(stats.sched_budget_total, stats.sched_budget_max_shard) << ctx;
        }
      }
    }
  }
}

// Cycle accounting must be schedule-independent: detail-mode k-histograms
// come from the dense codes either way, so `scnn_cli stats`' exactness gate
// (trace cycles == engine totals) holds with zero-skip on.
TEST(ZeroSkipInference, DetailModeHistogramsAreScheduleIndependent) {
  const auto data = data::make_synthetic_digits({.count = 2, .seed = 7});
  Network net = make_mnist_net(data.images.h());
  sparsify_convs(net, 0.5, 42);
  InferenceSession session(std::move(net), /*threads=*/1);
  session.calibrate(data.images);

  MacStats by_mode[2];
  const Sparsity modes[2] = {Sparsity::kDense, Sparsity::kZeroSkip};
  for (int i = 0; i < 2; ++i) {
    session.set_engine({.kind = EngineKind::kProposed, .n_bits = 8,
                        .instrument = true, .sparsity = modes[i]});
    set_conv_cycle_accounting(session.network(), true);
    (void)session.forward(data.images);
    by_mode[i] = session.last_forward_stats();
  }
  EXPECT_EQ(by_mode[0], by_mode[1]);
  EXPECT_GT(by_mode[1].k_hist.sum, 0u);
  EXPECT_EQ(by_mode[0].skipped_products, 0u);
  // Bucket 0 of the dense-accounted histogram counts exactly the k = 0
  // products; zero-skip skips each of them once per MAC'd patch, never more.
  // Outputs the bit-plane stage certifies issue no columns and skip nothing.
  if (session.engine()->bitplane_stage()) {
    EXPECT_LE(by_mode[1].skipped_products, by_mode[1].k_hist.buckets[0]);
    if (by_mode[1].uncertified == 0) {
      EXPECT_EQ(by_mode[1].skipped_products, 0u);
    }
  } else {
    EXPECT_GT(by_mode[1].skipped_products, 0u);
    EXPECT_EQ(by_mode[1].k_hist.buckets[0], by_mode[1].skipped_products);
  }
}

}  // namespace
}  // namespace scnn::nn
