// Network-level quantization control: calibration of per-conv-layer
// power-of-two scales and engine selection (Sec. 4.2's experimental setup).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/mac_engine.hpp"
#include "nn/network.hpp"

namespace scnn::nn {

/// Run `calibration_batch` through the network in float mode and set each
/// learnable layer's weight/activation scales from what it actually sees
/// (the generalization of the paper's fixed x128 CIFAR-10 rescale). Conv
/// scales drive the quantized forward path; dense scales only feed the
/// accelerator/latency models (the dense forward stays float, Sec. 3.3).
void calibrate_network(Network& net, const Tensor& calibration_batch);

/// Point every convolution layer at `engine` (nullptr restores float mode).
void set_conv_engine(Network& net, const MacEngine* engine);

/// Select the quantized conv implementation network-wide: im2col + batched
/// mac_rows (default, fast) or the direct per-element reference path. Both
/// produce bit-identical logits and MacStats.
void set_conv_im2col(Network& net, bool on);

/// Toggle SC-cycle accounting (MacStats::detail) on every convolution layer:
/// quantized forwards then bin each product's enable count k = |qw| into
/// last_forward_stats().k_hist (Sec. 3.2). Off keeps the hot path at its
/// uninstrumented speed.
void set_conv_cycle_accounting(Network& net, bool on);

/// Owns the engines for a sweep so layers can borrow raw pointers safely.
/// Engines are deduplicated on everything that changes engine identity:
/// (kind, n_bits, accum_bits, requested + resolved backend, sparsity). The
/// resolved backend is part of the key because kAuto reads the SCNN_BACKEND
/// env — a cached engine must not outlive a change of it. Threads and
/// bit_parallel stay out (scheduling and cycle accounting only).
class EnginePool {
 public:
  /// Get-or-create the engine for a configuration (validated on entry).
  const MacEngine* get(const EngineConfig& cfg);

 private:
  std::vector<std::unique_ptr<MacEngine>> engines_;
  std::vector<std::string> keys_;
};

}  // namespace scnn::nn
