// The multithreaded runtime's core guarantee: for a fixed network + engine
// configuration, forward passes are bit-identical at every thread count, and
// the merged MAC counters match the serial ones exactly.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "data/synthetic_digits.hpp"
#include "data/synthetic_objects.hpp"
#include "nn/conv2d.hpp"
#include "nn/inference_session.hpp"
#include "nn/network.hpp"
#include "nn/pool.hpp"

namespace scnn {
namespace {

bool bit_identical(const nn::Tensor& a, const nn::Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data().data(), b.data().data(), a.size() * sizeof(float)) == 0;
}

nn::InferenceSession make_session(int threads) {
  nn::InferenceSession session(nn::make_mnist_net(28, 1, 99), threads);
  const auto calib = data::make_synthetic_digits({.count = 16, .seed = 31});
  session.calibrate(calib.images);
  return session;
}

nn::InferenceSession make_cifar_session(int threads) {
  nn::InferenceSession session(nn::make_cifar_net(32, 1, 98), threads);
  const auto calib = data::make_synthetic_objects({.count = 16, .seed = 36});
  session.calibrate(calib.images);
  return session;
}

// One forward pass, layer by layer, that also runs MaxPool2D::backward on a
// ramp gradient right after each max-pool forward — backward reads the
// argmax_ the (possibly threaded) forward recorded.
struct Pass {
  nn::Tensor logits;
  nn::MacStats stats;
  std::vector<nn::Tensor> maxpool_grads;
};

Pass run_pass(nn::InferenceSession& session, const nn::Tensor& images) {
  Pass pass;
  nn::Network& net = session.network();
  nn::Tensor cur = images;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    cur = net.layer(i).forward(cur);
    if (auto* pool = dynamic_cast<nn::MaxPool2D*>(&net.layer(i))) {
      nn::Tensor ramp(cur.n(), cur.c(), cur.h(), cur.w());
      for (std::size_t j = 0; j < ramp.size(); ++j) ramp[j] = static_cast<float>(j + 1);
      pass.maxpool_grads.push_back(pool->backward(ramp));
    }
  }
  pass.logits = std::move(cur);
  pass.stats = session.last_forward_stats();
  return pass;
}

TEST(ParallelInference, QuantizedLogitsBitIdenticalAcrossThreadCounts) {
  // Both topologies, at batch 6 and at batch 1 — where CIFAR-quick's conv3
  // has 8 output rows, fewer than the shards a multi-worker pool cuts — and
  // at thread counts that do and do not divide the item counts. MacStats
  // compare arithmetic-only (operator==), with the k histogram switched on.
  struct Model {
    const char* name;
    nn::InferenceSession session;
    std::vector<nn::Tensor> batches;
  };
  Model models[] = {
      {"mnist", make_session(/*threads=*/1),
       {data::make_synthetic_digits({.count = 6, .seed = 32}).images,
        data::make_synthetic_digits({.count = 1, .seed = 38}).images}},
      {"cifar", make_cifar_session(/*threads=*/1),
       {data::make_synthetic_objects({.count = 6, .seed = 37}).images,
        data::make_synthetic_objects({.count = 1, .seed = 39}).images}}};

  for (Model& model : models) {
    nn::InferenceSession& session = model.session;
    for (const nn::EngineKind kind : {nn::EngineKind::kFixed, nn::EngineKind::kScLfsr,
                                      nn::EngineKind::kProposed}) {
      session.set_engine({.kind = kind, .n_bits = 8, .threads = 1});
      for (nn::Conv2D* conv : session.network().conv_layers()) conv->set_cycle_accounting(true);
      for (const nn::Tensor& images : model.batches) {
        session.set_threads(1);
        ASSERT_EQ(session.threads(), 1);
        const Pass reference = run_pass(session, images);
        EXPECT_GT(reference.stats.macs, 0u);
        EXPECT_GT(reference.stats.products, reference.stats.macs);
        EXPECT_GT(reference.stats.k_hist.count, 0u);
        ASSERT_FALSE(reference.maxpool_grads.empty());

        for (const int threads : {2, 3, 4, 7}) {
          session.set_threads(threads);
          ASSERT_EQ(session.threads(), threads);
          const Pass pass = run_pass(session, images);
          const std::string ctx = std::string(model.name) + " " + nn::to_string(kind) +
                                  " batch " + std::to_string(images.n()) + " at " +
                                  std::to_string(threads) + " threads";
          EXPECT_TRUE(bit_identical(reference.logits, pass.logits)) << ctx << ": logits differ";
          EXPECT_TRUE(bit_identical(reference.logits, session.forward(images)))
              << ctx << ": session.forward logits differ";
          EXPECT_TRUE(pass.stats == reference.stats) << ctx << ": MacStats differ";
          ASSERT_EQ(pass.maxpool_grads.size(), reference.maxpool_grads.size()) << ctx;
          for (std::size_t i = 0; i < pass.maxpool_grads.size(); ++i)
            EXPECT_TRUE(bit_identical(reference.maxpool_grads[i], pass.maxpool_grads[i]))
                << ctx << ": MaxPool2D::backward #" << i << " differs";
        }
      }
    }
  }
}

TEST(ParallelInference, FloatForwardBitIdenticalAcrossThreadCounts) {
  auto session = make_session(/*threads=*/1);
  const auto batch = data::make_synthetic_digits({.count = 6, .seed = 33});
  const nn::Tensor reference = session.forward(batch.images);
  for (const int threads : {2, 4}) {
    session.set_threads(threads);
    EXPECT_TRUE(bit_identical(reference, session.forward(batch.images)))
        << "float logits differ at " << threads << " threads";
  }
}

TEST(ParallelInference, SessionFacadeRoundTrip) {
  auto session = make_session(/*threads=*/2);
  EXPECT_EQ(session.threads(), 2);
  EXPECT_FALSE(session.config().has_value());
  EXPECT_EQ(session.engine(), nullptr);

  session.set_engine({.kind = nn::EngineKind::kProposed, .n_bits = 6, .threads = 4});
  ASSERT_TRUE(session.config().has_value());
  EXPECT_EQ(session.config()->kind, nn::EngineKind::kProposed);
  EXPECT_EQ(session.config()->n_bits, 6);
  EXPECT_EQ(session.threads(), 4);  // cfg.threads resized the pool
  ASSERT_NE(session.engine(), nullptr);
  EXPECT_EQ(session.engine()->bits(), 6);

  session.clear_engine();
  EXPECT_FALSE(session.config().has_value());
  EXPECT_EQ(session.engine(), nullptr);
  EXPECT_EQ(session.threads(), 4);  // pool survives engine changes

  const auto batch = data::make_synthetic_digits({.count = 3, .seed = 34});
  (void)session.forward(batch.images);
  EXPECT_EQ(session.last_forward_stats().macs, 0u);  // float mode counts nothing

  EXPECT_THROW(session.set_engine({.kind = nn::EngineKind::kProposed, .n_bits = 1}),
               std::invalid_argument);
}

TEST(ParallelInference, PredictAndAccuracyAgreeWithSerial) {
  auto serial = make_session(/*threads=*/1);
  auto threaded = make_session(/*threads=*/4);
  const auto test = data::make_synthetic_digits({.count = 24, .seed = 35});

  const nn::EngineConfig cfg{.kind = nn::EngineKind::kProposed, .n_bits = 8};
  serial.set_engine(cfg);
  threaded.set_engine(cfg);
  EXPECT_EQ(serial.predict(test.images), threaded.predict(test.images));
  EXPECT_DOUBLE_EQ(serial.accuracy(test.images, test.labels),
                   threaded.accuracy(test.images, test.labels));
}

}  // namespace
}  // namespace scnn
