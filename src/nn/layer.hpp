// Layer interface of the CNN substrate. Forward/backward with explicit
// gradient tensors; parameters are exposed for the SGD trainer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/tensor.hpp"

namespace scnn::common {
class ThreadPool;
}

namespace scnn::nn {

/// A learnable parameter with its gradient accumulator.
///
/// `version` counts value mutations; layers that cache derived data (e.g.
/// Conv2D's quantized weight codes) key their caches on it. Every code path
/// that writes `value` must call mark_updated() — the trainer's SGD step,
/// Network::load_parameters, init_weights, and any mutable accessor a layer
/// hands out.
struct Parameter {
  Tensor value;
  Tensor grad;
  std::uint64_t version = 0;

  void mark_updated() { ++version; }
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass; layers cache whatever backward() needs.
  virtual Tensor forward(const Tensor& input) = 0;

  /// Backward pass: given dL/d(output), accumulate parameter gradients and
  /// return dL/d(input).
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Learnable parameters (empty for pooling/activation layers).
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Multiply-accumulate products of the last forward pass, float and
  /// quantized modes alike (0 for layers that do no MACs). Feeds the
  /// per-layer forward traces of the observability layer.
  [[nodiscard]] virtual std::uint64_t last_forward_products() const { return 0; }

  /// Worker pool for the forward pass (nullptr = serial). The pool is not
  /// owned and must outlive the layer's forward calls. Layers that gain
  /// nothing from sharding ignore it. The threaded forward pass is
  /// bit-identical to the serial one (each output element is computed
  /// entirely within one shard, shard boundaries are deterministic).
  virtual void set_thread_pool(common::ThreadPool*) {}

  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace scnn::nn
