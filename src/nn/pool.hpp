// Pooling layers (max and average), float domain per Sec. 3.3.
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace scnn::nn {

class MaxPool2D final : public Layer {
 public:
  explicit MaxPool2D(int kernel, int stride = 0);  // stride 0 -> stride=kernel

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  /// Shard the forward pass over (image, channel) planes on `pool`
  /// (nullptr = serial). Planes write disjoint outputs and argmax entries.
  void set_thread_pool(common::ThreadPool* pool) override { pool_ = pool; }
  [[nodiscard]] std::string name() const override { return "maxpool"; }

 private:
  int k_, s_;
  common::ThreadPool* pool_ = nullptr;
  Tensor cached_input_;
  std::vector<std::size_t> argmax_;  // flat input index per output element
};

class AvgPool2D final : public Layer {
 public:
  explicit AvgPool2D(int kernel, int stride = 0);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  /// Shard the forward pass over (image, channel) planes on `pool`
  /// (nullptr = serial).
  void set_thread_pool(common::ThreadPool* pool) override { pool_ = pool; }
  [[nodiscard]] std::string name() const override { return "avgpool"; }

 private:
  int k_, s_;
  common::ThreadPool* pool_ = nullptr;
  int in_h_ = 0, in_w_ = 0, in_c_ = 0, in_n_ = 0;
};

}  // namespace scnn::nn
