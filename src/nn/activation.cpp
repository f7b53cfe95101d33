#include "nn/activation.hpp"

#include "common/thread_pool.hpp"

namespace scnn::nn {

Tensor ReLU::forward(const Tensor& input) {
  cached_input_ = input;
  Tensor y(input.n(), input.c(), input.h(), input.w());
  // One item = one (image, channel) plane of independent elements.
  const std::size_t plane = static_cast<std::size_t>(input.h()) * input.w();
  common::parallel_for(pool_, static_cast<std::int64_t>(input.n()) * input.c(),
                       [&](std::int64_t lo, std::int64_t hi, int) {
    for (std::size_t i = static_cast<std::size_t>(lo) * plane;
         i < static_cast<std::size_t>(hi) * plane; ++i)
      y[i] = input[i] < 0.0f ? 0.0f : input[i];
  });
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (std::size_t i = 0; i < g.size(); ++i)
    if (cached_input_[i] <= 0.0f) g[i] = 0.0f;
  return g;
}

Tensor Scale::forward(const Tensor& input) {
  Tensor y = input;
  for (auto& v : y.data()) v *= factor_;
  return y;
}

Tensor Scale::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto& v : g.data()) v *= factor_;
  return g;
}

}  // namespace scnn::nn
