#include "nn/quantize.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "nn/network.hpp"

namespace scnn::nn {
namespace {

void randomize(Tensor& t, std::uint64_t seed, double scale) {
  common::SplitMix64 rng(seed);
  for (auto& v : t.data()) v = static_cast<float>(rng.next_gaussian() * scale);
}

TEST(MacEngineTest, FixedEngineMatchesSaturatedSum) {
  auto e = make_engine({.kind = EngineKind::kFixed, .n_bits = 5});
  // 7-bit accumulator: [-64, 63]. Products in 2^-4 units.
  const std::vector<std::int32_t> w = {15, 15, 15};
  const std::vector<std::int32_t> x = {15, 15, 15};
  // 15*15 = 225 >> 4 = 14 each; 3*14 = 42, below rail.
  EXPECT_EQ(e->mac(w, x), 42);
  const std::vector<std::int32_t> w2(10, 15), x2(10, 15);
  EXPECT_EQ(e->mac(w2, x2), 63);  // saturates
}

TEST(MacEngineTest, EnginesDifferInArithmetic) {
  const std::vector<std::int32_t> w = {9, -13};
  const std::vector<std::int32_t> x = {11, 7};
  auto fixed = make_engine({.kind = EngineKind::kFixed, .n_bits = 8});
  auto prop = make_engine({.kind = EngineKind::kProposed, .n_bits = 8});
  auto lfsr = make_engine({.kind = EngineKind::kScLfsr, .n_bits = 8});
  // All approximate the same dot product (codes/128): 9*11 - 13*7 = 8 in
  // 2^-7... exact 2^-7-unit value: (99 - 91)/128 = 0.0625 -> ~0.06 in LSBs 0.0625*128=8...
  const double exact = (9.0 * 11 - 13.0 * 7) / 128.0;
  for (MacEngine* e : {fixed.get(), prop.get(), lfsr.get()}) {
    EXPECT_NEAR(static_cast<double>(e->mac(w, x)), exact, 16.0) << e->name();
  }
  EXPECT_EQ(fixed->name(), "fixed");
  EXPECT_EQ(prop->name(), "proposed");
  EXPECT_EQ(lfsr->name(), "sc-lfsr");
}

TEST(MacEngineTest, UnknownKindNameThrows) {
  EXPECT_THROW((void)engine_kind_from_string("nope"), std::invalid_argument);
}

TEST(MacEngineTest, KindRoundTripsThroughStrings) {
  for (const EngineKind k :
       {EngineKind::kFixed, EngineKind::kScLfsr, EngineKind::kProposed})
    EXPECT_EQ(engine_kind_from_string(to_string(k)), k);
}

TEST(MacEngineTest, ConfigValidationRejectsOutOfRangeFields) {
  EXPECT_NO_THROW((EngineConfig{.n_bits = EngineConfig::kMinBits}.validate()));
  EXPECT_NO_THROW((EngineConfig{.n_bits = EngineConfig::kMaxBits}.validate()));
  EXPECT_THROW((EngineConfig{.n_bits = 1}.validate()), std::invalid_argument);
  EXPECT_THROW((EngineConfig{.n_bits = 13}.validate()), std::invalid_argument);
  EXPECT_THROW((EngineConfig{.accum_bits = -1}.validate()), std::invalid_argument);
  EXPECT_THROW((EngineConfig{.accum_bits = 99}.validate()), std::invalid_argument);
  EXPECT_THROW((EngineConfig{.bit_parallel = 0}.validate()), std::invalid_argument);
  EXPECT_THROW((EngineConfig{.threads = -2}.validate()), std::invalid_argument);
  // make_engine validates on entry instead of silently building the LUT.
  EXPECT_THROW(make_engine(EngineConfig{.n_bits = 40}), std::invalid_argument);
  // EnginePool::get validates too.
  EnginePool pool;
  EXPECT_THROW(pool.get({.n_bits = 1}), std::invalid_argument);
}

TEST(MacEngineTest, ConfigBuildsWhatTheShimUsedTo) {
  // The pre-1.1 stringly make_engine(kind, n_bits, accum_bits) shim is gone;
  // the typed config covers the same ground, string parsing included.
  const auto e = make_engine({.kind = engine_kind_from_string("proposed"),
                              .n_bits = 8,
                              .accum_bits = 2});
  EXPECT_EQ(e->name(), "proposed");
  EXPECT_EQ(e->bits(), 8);
  EXPECT_EQ(e->accum_bits(), 2);
}

TEST(MacEngineTest, MacStatsCountSaturations) {
  const auto e = make_engine({.kind = EngineKind::kFixed, .n_bits = 5});
  // 7-bit accumulator rail is 63; 15*15 >> 4 = 14 per product, so products
  // 5..10 each clamp.
  const std::vector<std::int32_t> w(10, 15), x(10, 15);
  MacStats stats;
  EXPECT_EQ(e->mac(w, x, stats), 63);
  EXPECT_EQ(stats.macs, 1u);
  EXPECT_EQ(stats.products, 10u);
  EXPECT_GT(stats.saturations, 0u);
}

TEST(Quantize, CalibrationSetsPowerOfTwoScales) {
  Network net = make_mnist_net(28, 1, 5);
  Tensor batch(4, 1, 28, 28);
  randomize(batch, 1, 2.0);  // inputs beyond [-1,1] force act_scale > 1
  calibrate_network(net, batch);
  for (Conv2D* c : net.conv_layers()) {
    const float as = c->activation_scale();
    const float ws = c->weight_scale();
    EXPECT_GE(as, 1.0f);
    EXPECT_GE(ws, 1.0f);
    EXPECT_FLOAT_EQ(std::exp2(std::round(std::log2(as))), as) << "act scale not pow2";
    EXPECT_FLOAT_EQ(std::exp2(std::round(std::log2(ws))), ws) << "w scale not pow2";
  }
}

TEST(Quantize, HighPrecisionQuantizedConvTracksFloat) {
  // With 12-bit codes... max supported LUT is 12; use 10 bits and wide A:
  // quantized conv output should approximate the float output closely.
  Network net = make_mnist_net(28, 1, 6);
  Tensor x(2, 1, 28, 28);
  randomize(x, 2, 0.3);
  calibrate_network(net, x);
  const Tensor y_float = net.forward(x);

  EnginePool pool;
  const MacEngine* e = pool.get({.kind = EngineKind::kFixed, .n_bits = 10, .accum_bits = 6});
  set_conv_engine(net, e);
  const Tensor y_q = net.forward(x);
  set_conv_engine(net, nullptr);

  ASSERT_TRUE(y_q.same_shape(y_float));
  double max_rel = 0;
  for (std::size_t i = 0; i < y_q.size(); ++i) {
    max_rel = std::max(max_rel, static_cast<double>(std::abs(y_q[i] - y_float[i])));
  }
  EXPECT_LT(max_rel, 2.0);  // logits land close to float
}

TEST(Quantize, LowPrecisionDegradesMoreThanHighPrecision) {
  Network net = make_mnist_net(28, 1, 7);
  Tensor x(2, 1, 28, 28);
  randomize(x, 3, 0.3);
  calibrate_network(net, x);
  const Tensor y_float = net.forward(x);

  EnginePool pool;
  auto err_at = [&](int n_bits) {
    set_conv_engine(net, pool.get({.kind = EngineKind::kFixed, .n_bits = n_bits}));
    const Tensor y = net.forward(x);
    set_conv_engine(net, nullptr);
    double e2 = 0;
    for (std::size_t i = 0; i < y.size(); ++i) {
      const double d = y[i] - y_float[i];
      e2 += d * d;
    }
    return e2;
  };
  EXPECT_GT(err_at(4), err_at(9));
}

TEST(Quantize, StridedPaddedQuantizedConvTracksFloat) {
  // The quantized gather path must handle stride and padding exactly like
  // the float path: at high precision the two outputs coincide closely.
  Conv2D conv(2, 3, 3, /*stride=*/2, /*pad=*/1);
  conv.init_weights(91);
  Tensor x(2, 2, 9, 9);
  randomize(x, 92, 0.3);
  conv.calibrate_scales(x);
  const Tensor y_float = conv.forward(x);
  const auto engine = make_engine({.kind = EngineKind::kFixed, .n_bits = 11, .accum_bits = 6});
  conv.set_engine(engine.get());
  const Tensor y_q = conv.forward(x);
  ASSERT_TRUE(y_q.same_shape(y_float));
  for (std::size_t i = 0; i < y_q.size(); ++i)
    ASSERT_NEAR(y_q[i], y_float[i], 0.05f) << i;
}

TEST(Quantize, QuantizedConvRespectsActivationScale) {
  // Inputs far outside [-1, 1): without calibration they clip; with
  // calibration the layer absorbs them via the power-of-two scale.
  Conv2D conv(1, 1, 1);
  conv.mutable_weight().fill(0.5f);
  Tensor x(1, 1, 2, 2);
  x.fill(6.0f);  // 0.5 * 6 = 3.0 expected
  const auto engine = make_engine({.kind = EngineKind::kFixed, .n_bits = 10, .accum_bits = 4});
  conv.set_engine(engine.get());
  // Default scale 1.0: the activation code clips at ~1, output ~0.5.
  const Tensor clipped = conv.forward(x);
  EXPECT_NEAR(clipped[0], 0.5f, 0.05f);
  // Calibrated: act_scale = 8, output recovers 3.0.
  conv.calibrate_scales(x);
  EXPECT_FLOAT_EQ(conv.activation_scale(), 8.0f);
  const Tensor scaled = conv.forward(x);
  EXPECT_NEAR(scaled[0], 3.0f, 0.05f);
}

TEST(Quantize, EnginePoolDeduplicates) {
  EnginePool pool;
  const MacEngine* a = pool.get({.kind = EngineKind::kProposed, .n_bits = 7});
  const MacEngine* b = pool.get({.kind = EngineKind::kProposed, .n_bits = 7});
  const MacEngine* c = pool.get({.kind = EngineKind::kProposed, .n_bits = 8});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Quantize, EngineConfigLabel) {
  const EngineConfig cfg{.kind = EngineKind::kScLfsr, .n_bits = 9};
  EXPECT_EQ(cfg.label(), "sc-lfsr/N=9");
}

}  // namespace
}  // namespace scnn::nn
