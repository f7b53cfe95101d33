// Convolution layer with pluggable MAC arithmetic.
//
// Float mode (engine == nullptr) is the training path. With an engine set,
// the forward pass quantizes activations and weights to N-bit signed codes
// under per-layer power-of-two scales (the generalization of the paper's
// "scale the input feature map ... by 128" trick for CIFAR-10) and runs
// every output through MacEngine arithmetic — i.e. through the exact
// arithmetic of the modeled hardware, saturating accumulator included. The
// backward pass always uses the float master weights and the cached float
// input (straight-through estimator), which is how the paper fine-tunes:
// "during fine-tuning, fixed-point or SC-based convolution is used in the
// forward pass".
//
// The quantized forward has two implementations with bit-identical logits
// and MacStats:
//  - im2col (default): weight codes are cached per (n_bits, weight version,
//    weight scale), and each spatial output row's patches are shared by all
//    filter rows. Engines with the bit-plane stage get the batch quantized
//    once, straight into padded plane images (8 bytes per pixel, see
//    nn/mac_backends/bitplane.hpp), and one MacEngine::mac_block call per
//    output row reads the row's patches in place through a per-geometry
//    offset table. Other engines get each output row's patches materialized
//    once into a contiguous int32 patch-code buffer (padding as literal zero
//    codes, scratch from a per-thread common::ScratchArena) and one
//    MacEngine::mac_rows call per filter row.
//  - direct: the pre-im2col reference — re-quantizes weights every pass and
//    gathers each output element's patch with per-element padding checks.
//    Kept as the comparison baseline for benches and the equivalence test.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/conv_scheduler.hpp"
#include "nn/layer.hpp"
#include "nn/mac_engine.hpp"

namespace scnn::nn {

class Conv2D final : public Layer {
 public:
  Conv2D(int in_channels, int out_channels, int kernel, int stride = 1, int pad = 0);

  /// He-style initialization from a deterministic seed.
  void init_weights(std::uint64_t seed);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  [[nodiscard]] std::string name() const override { return "conv2d"; }

  /// Select the arithmetic. nullptr restores the float path. The engine must
  /// outlive this layer.
  void set_engine(const MacEngine* engine) { engine_ = engine; }
  [[nodiscard]] const MacEngine* engine() const { return engine_; }

  /// Choose the quantized forward implementation (default: im2col). The two
  /// paths produce bit-identical logits and MacStats; the direct path exists
  /// as the baseline for benches and the equivalence property test.
  void set_im2col(bool on) { im2col_ = on; }
  [[nodiscard]] bool im2col() const { return im2col_; }

  /// Shard forward passes over `pool` (nullptr = serial). Engines are const
  /// LUT lookups and every output element is an independent dot product, so
  /// the sharded pass is race-free and bit-identical to the serial one.
  void set_thread_pool(common::ThreadPool* pool) override { pool_ = pool; }

  /// Work counters of the last quantized forward pass (per-shard counters
  /// merged in shard order; zeroed by float-mode forwards).
  [[nodiscard]] const MacStats& last_forward_stats() const { return stats_; }

  /// Toggle SC-cycle accounting: when on, quantized forwards additionally
  /// fill last_forward_stats().k_hist with every product's enable count
  /// k = |qw| (Sec. 3.2). Off by default — the extra per-row pass is skipped
  /// entirely, keeping the im2col hot path at its uninstrumented speed.
  void set_cycle_accounting(bool on) { cycle_detail_ = on; }
  [[nodiscard]] bool cycle_accounting() const { return cycle_detail_; }

  /// Products of the last forward pass in either mode (float forwards do
  /// the same multiplies the engine path counts).
  [[nodiscard]] std::uint64_t last_forward_products() const override {
    return last_products_;
  }

  /// Compute power-of-two weight/activation scales from the current weights
  /// and a representative input batch (float domain).
  void calibrate_scales(const Tensor& representative_input);
  [[nodiscard]] float weight_scale() const { return weight_scale_; }
  [[nodiscard]] float activation_scale() const { return act_scale_; }

  [[nodiscard]] const Tensor& weight() const { return weight_.value; }
  /// Mutable weight access; conservatively invalidates the cached weight
  /// codes (every call is assumed to be a mutation).
  [[nodiscard]] Tensor& mutable_weight() {
    weight_.mark_updated();
    return weight_.value;
  }
  [[nodiscard]] const Tensor& bias() const { return bias_.value; }

  /// Weight codes ([m][z][i][j]) at the engine's precision — the input to
  /// the latency model (Sec. 3.2) and the Fig. 7 benches. Served from the
  /// (n_bits, weight version, weight scale) cache; recomputed only after a
  /// training update, re-calibration, or precision change.
  [[nodiscard]] std::vector<std::int32_t> quantized_weights(int n_bits) const;

  /// CSR-compressed weight codes (one row per filter), cached alongside the
  /// dense code cache under the same (n_bits, weight version, weight scale)
  /// key. The im2col forward builds packed WeightCodeViews from this when
  /// the engine zero-skips; the per-row k-sums also drive the k-aware shard
  /// partitioner and the sparsity columns of `scnn_cli stats`.
  [[nodiscard]] const PackedRowCodes& packed_weight_codes(int n_bits) const;

  /// Geometry of this layer on a given input, for the conv scheduler.
  [[nodiscard]] core::ConvDims dims_for(const Tensor& input) const;

  [[nodiscard]] int in_channels() const { return in_ch_; }
  [[nodiscard]] int out_channels() const { return out_ch_; }
  [[nodiscard]] int kernel() const { return k_; }
  [[nodiscard]] int stride() const { return s_; }
  [[nodiscard]] int pad() const { return p_; }

 private:
  Tensor forward_float(const Tensor& input);
  Tensor forward_quantized_im2col(const Tensor& input);
  Tensor forward_quantized_direct(const Tensor& input);

  /// Quantize the whole input batch to activation codes (parallel over
  /// samples; elementwise, so sharding cannot change the values).
  std::vector<std::int32_t> quantize_input_(const Tensor& x, int n_bits) const;
  /// Lay out and size the plane images of x's batch (plane_image_, laid
  /// out by plane_layout_), and give each image n that holds a negative
  /// code a folded image folded_images_[n]. Returns each image's folded
  /// image, or nullptr when no code is negative. The row pass writes the
  /// images (bitplane::encode_image), so nothing allocates there.
  /// inv_scale = 1 / act_scale_.
  std::vector<std::uint8_t*> size_plane_images_(const Tensor& x, float inv_scale, int n_bits);

  /// The weight-code cache. Not thread-safe: called from the forward entry
  /// thread before any sharding starts (and from benches/tests).
  std::span<const std::int32_t> cached_weight_codes_(int n_bits) const;
  /// Bit-plane coefficient rows of the same cached codes (see
  /// nn/mac_backends/bitplane.hpp), built lazily under the same key for
  /// engines whose bit-plane stage runs. Requires n_bits <= 8.
  const bitplane::Coefficients& bitplane_coefficients_(int n_bits) const;

  int in_ch_, out_ch_, k_, s_, p_;
  Parameter weight_;  // (out_ch, in_ch, k, k)
  Parameter bias_;    // (out_ch, 1, 1, 1)
  const MacEngine* engine_ = nullptr;
  common::ThreadPool* pool_ = nullptr;
  bool im2col_ = true;
  bool cycle_detail_ = false;
  MacStats stats_;
  std::uint64_t last_products_ = 0;
  float weight_scale_ = 1.0f;
  float act_scale_ = 1.0f;
  Tensor cached_input_;

  mutable std::vector<std::int32_t> wq_cache_;
  mutable bool wq_cache_valid_ = false;
  mutable int wq_cache_bits_ = 0;
  mutable std::uint64_t wq_cache_version_ = 0;
  mutable float wq_cache_scale_ = 0.0f;

  // The CSR and bit-plane coefficient caches ride on the dense cache's key;
  // rebuilding the dense codes invalidates both (see cached_weight_codes_).
  // Each is built on the first forward that asks for it, never before.
  mutable PackedRowCodes packed_cache_;
  mutable bool packed_cache_valid_ = false;
  mutable bitplane::Coefficients bitplane_cache_;
  mutable bool bitplane_cache_valid_ = false;

  // The bit-plane stage's activation side: the patch-offset table of the
  // last input geometry, and plane/folded images reused across forwards
  // (a folded image is allocated only once its image holds a negative code).
  bitplane::ImageLayout plane_layout_;
  std::vector<std::uint8_t> plane_image_;
  std::vector<std::vector<std::uint8_t>> folded_images_;
};

}  // namespace scnn::nn
