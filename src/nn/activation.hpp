// Elementwise activations.
#pragma once

#include "nn/layer.hpp"

namespace scnn::nn {

class ReLU final : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  /// Shard the forward pass over (image, channel) planes on `pool`
  /// (nullptr = serial).
  void set_thread_pool(common::ThreadPool* pool) override { pool_ = pool; }
  [[nodiscard]] std::string name() const override { return "relu"; }

 private:
  common::ThreadPool* pool_ = nullptr;
  Tensor cached_input_;
};

/// Fixed elementwise scaling y = s*x (no parameters). Models the paper's
/// explicit feature-map rescaling around convolutions when an experiment
/// wants it outside the conv layer's own calibration.
class Scale final : public Layer {
 public:
  explicit Scale(float factor) : factor_(factor) {}
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "scale"; }
  [[nodiscard]] float factor() const { return factor_; }

 private:
  float factor_;
};

}  // namespace scnn::nn
