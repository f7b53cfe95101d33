#include "nn/conv2d.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "common/scratch_arena.hpp"
#include "common/thread_pool.hpp"

namespace scnn::nn {

Conv2D::Conv2D(int in_channels, int out_channels, int kernel, int stride, int pad)
    : in_ch_(in_channels), out_ch_(out_channels), k_(kernel), s_(stride), p_(pad) {
  if (in_channels <= 0 || out_channels <= 0 || kernel <= 0 || stride <= 0 || pad < 0)
    throw std::invalid_argument("Conv2D: invalid geometry");
  weight_.value = Tensor(out_ch_, in_ch_, k_, k_);
  weight_.grad = Tensor(out_ch_, in_ch_, k_, k_);
  bias_.value = Tensor(out_ch_, 1, 1, 1);
  bias_.grad = Tensor(out_ch_, 1, 1, 1);
}

void Conv2D::init_weights(std::uint64_t seed) {
  common::SplitMix64 rng(seed);
  const double fan_in = static_cast<double>(in_ch_) * k_ * k_;
  const double stddev = std::sqrt(2.0 / fan_in);
  for (auto& v : weight_.value.data()) v = static_cast<float>(rng.next_gaussian() * stddev);
  bias_.value.zero();
  weight_.mark_updated();
}

core::ConvDims Conv2D::dims_for(const Tensor& input) const {
  return core::ConvDims{.M = out_ch_, .Z = in_ch_, .H = input.h(), .W = input.w(),
                        .K = k_, .S = s_, .P = p_};
}

Tensor Conv2D::forward(const Tensor& input) {
  if (input.c() != in_ch_) throw std::invalid_argument("Conv2D: channel mismatch");
  cached_input_ = input;
  stats_ = MacStats{};
  // mac_count() is per image and already counts Z*K*K products per output.
  last_products_ = static_cast<std::uint64_t>(input.n()) * dims_for(input).mac_count();
  if (!engine_) return forward_float(input);
  return im2col_ ? forward_quantized_im2col(input) : forward_quantized_direct(input);
}

Tensor Conv2D::forward_float(const Tensor& x) {
  const auto d = dims_for(x);
  const int R = d.out_rows(), C = d.out_cols();
  Tensor y(x.n(), out_ch_, R, C);
  // Valid kernel index windows, hoisted out of the element loops: the i
  // range depends only on the output row, the j range only on the output
  // column. Skipped indices are exactly those the per-element yy/xx checks
  // would reject, and the surviving adds happen in the same order, so the
  // float results are bit-identical to the checked version.
  std::vector<int> j_lo(static_cast<std::size_t>(C)), j_hi(static_cast<std::size_t>(C));
  for (int c = 0; c < C; ++c) {
    j_lo[static_cast<std::size_t>(c)] = std::max(0, p_ - s_ * c);
    j_hi[static_cast<std::size_t>(c)] = std::min(k_, x.w() - s_ * c + p_);
  }
  // One item = one output row (n, m, r); every element of the row is a fully
  // independent accumulation, so sharding cannot change results or race.
  const std::int64_t rows = static_cast<std::int64_t>(x.n()) * out_ch_ * R;
  common::parallel_for(pool_, rows, [&](std::int64_t lo, std::int64_t hi, int) {
    for (std::int64_t row = lo; row < hi; ++row) {
      const int n = static_cast<int>(row / (static_cast<std::int64_t>(out_ch_) * R));
      const int m = static_cast<int>(row / R % out_ch_);
      const int r = static_cast<int>(row % R);
      const int i_lo = std::max(0, p_ - s_ * r);
      const int i_hi = std::min(k_, x.h() - s_ * r + p_);
      const std::span<const float> xs = x.sample(n);
      for (int c = 0; c < C; ++c) {
        const int jl = j_lo[static_cast<std::size_t>(c)];
        const int jh = j_hi[static_cast<std::size_t>(c)];
        float acc = bias_.value.at(m, 0, 0, 0);
        for (int z = 0; z < in_ch_; ++z) {
          for (int i = i_lo; i < i_hi; ++i) {
            const int yy = s_ * r + i - p_;
            const float* wr = &weight_.value.at(m, z, i, 0);
            const float* xr = &xs[(static_cast<std::size_t>(z) * x.h() + yy) * x.w()];
            for (int j = jl; j < jh; ++j) acc += wr[j] * xr[s_ * c + j - p_];
          }
        }
        y.at(n, m, r, c) = acc;
      }
    }
  });
  return y;
}

std::vector<std::int32_t> Conv2D::quantize_input_(const Tensor& x, int n_bits) const {
  // One item = one (image, channel) plane; the codes keep the tensor's
  // (n, z, y, x) layout, so each plane is one contiguous range.
  const std::size_t plane = static_cast<std::size_t>(x.h()) * x.w();
  std::vector<std::int32_t> xq(x.size());
  common::parallel_for(pool_, static_cast<std::int64_t>(x.n()) * in_ch_,
                       [&](std::int64_t lo, std::int64_t hi, int) {
    for (std::size_t i = static_cast<std::size_t>(lo) * plane;
         i < static_cast<std::size_t>(hi) * plane; ++i)
      xq[i] = common::quantize(x[i] / act_scale_, n_bits);
  });
  return xq;
}

std::span<const std::int32_t> Conv2D::cached_weight_codes_(int n_bits) const {
  if (!wq_cache_valid_ || wq_cache_bits_ != n_bits ||
      wq_cache_version_ != weight_.version || wq_cache_scale_ != weight_scale_) {
    wq_cache_.resize(weight_.value.size());
    std::size_t idx = 0;
    // Tensor storage is row-major (m, z, i, j) — the layout the direct path
    // and the conv scheduler expect.
    for (const float v : weight_.value.data())
      wq_cache_[idx++] = common::quantize(v / weight_scale_, n_bits);
    wq_cache_valid_ = true;
    wq_cache_bits_ = n_bits;
    wq_cache_version_ = weight_.version;
    wq_cache_scale_ = weight_scale_;
    packed_cache_valid_ = false;  // the CSR and bit-plane caches shadow
    bitplane_cache_valid_ = false;  // these exact codes
  }
  return wq_cache_;
}

const PackedRowCodes& Conv2D::packed_weight_codes(int n_bits) const {
  // cached_weight_codes_ refreshes the dense codes (and drops the packed
  // flag) whenever the (n_bits, version, scale) key changed.
  const std::span<const std::int32_t> wq = cached_weight_codes_(n_bits);
  if (!packed_cache_valid_) {
    const std::size_t dd = static_cast<std::size_t>(in_ch_) * k_ * k_;
    packed_cache_ = PackedRowCodes::build(wq, out_ch_, static_cast<int>(dd));
    packed_cache_valid_ = true;
  }
  return packed_cache_;
}

const bitplane::Coefficients& Conv2D::bitplane_coefficients_(int n_bits) const {
  const std::span<const std::int32_t> wq = cached_weight_codes_(n_bits);
  if (!bitplane_cache_valid_) {
    const std::size_t dd = static_cast<std::size_t>(in_ch_) * k_ * k_;
    bitplane_cache_.assign(wq, out_ch_, dd, n_bits);
    bitplane_cache_valid_ = true;
  }
  return bitplane_cache_;
}

std::vector<std::uint8_t*> Conv2D::size_plane_images_(const Tensor& x, float inv_scale,
                                                      int n_bits) {
  if (!plane_layout_.matches(in_ch_, x.h(), x.w(), k_, s_, p_))
    plane_layout_.assign(in_ch_, x.h(), x.w(), k_, s_, p_);
  const auto images = static_cast<std::size_t>(x.n());
  const std::size_t pixels = static_cast<std::size_t>(in_ch_) * x.h() * x.w();
  plane_image_.resize(images * plane_layout_.image_bytes);
  if (folded_images_.size() < images) folded_images_.resize(images);
  std::vector<std::uint8_t*> folded(images, nullptr);
  for (std::size_t n = 0; n < images; ++n)
    if (bitplane::any_negative_code(x.data().data() + n * pixels, pixels, inv_scale, n_bits)) {
      folded_images_[n].resize(plane_layout_.image_bytes);
      folded[n] = folded_images_[n].data();
    }
  return folded;
}

Tensor Conv2D::forward_quantized_im2col(const Tensor& x) {
  const int nbits = engine_->bits();
  const auto d = dims_for(x);
  const int R = d.out_rows(), C = d.out_cols();
  const int H = x.h(), W = x.w();
  const std::size_t dd = static_cast<std::size_t>(in_ch_) * k_ * k_;

  const std::span<const std::int32_t> wq = cached_weight_codes_(nbits);
  const std::size_t plane = static_cast<std::size_t>(in_ch_) * H * W;
  // Engines with the bit-plane stage read patches in place from plane
  // images; the rest get int32 im2col patches.
  const bool planes = engine_->bitplane_stage();
  // pow2_ceil never returns less than 1, so 1 / act_scale_ is an exact power
  // of two and v * inv_scale rounds exactly like v / act_scale_.
  const float inv_scale = 1.0f / act_scale_;
  std::vector<std::int32_t> xq;
  std::vector<std::uint8_t*> folded;
  if (planes)
    folded = size_plane_images_(x, inv_scale, nbits);
  else
    xq = quantize_input_(x, nbits);
  std::vector<std::once_flag> built(folded.size());

  const float out_scale = weight_scale_ * act_scale_ /
                          static_cast<float>(std::int64_t{1} << (nbits - 1));
  Tensor y(x.n(), out_ch_, R, C);

  // Zero-skip scheduling: when the engine skips k = 0 products, hand it
  // packed views over the CSR weight-code cache. The dense codes stay the
  // fallback inside each view, so this cannot change results — only skip
  // work (see LutEngine::mac_rows).
  const PackedRowCodes* packed = engine_->zero_skip() ? &packed_weight_codes(nbits) : nullptr;
  const WeightRows weight_rows{.dense = wq,
                               .rows = out_ch_,
                               .d = dd,
                               .packed = packed,
                               .planes = planes ? &bitplane_coefficients_(nbits) : nullptr};

  // One item = one spatial output row (n, r), whose C patches all out_ch_
  // filter rows share: one mac_block call over the plane image, or C int32
  // patches materialized once into a contiguous [c][z][i][j] buffer and
  // driven through mac_rows per filter row — either way the gather (and its
  // padding handling) is paid once instead of out_ch_ times. With the
  // stage, a row's plane image is built once, in this same dispatch, by
  // the first shard that reads it; a shard reaching it mid-build waits.
  // Items write disjoint output rows; per-shard MacStats are merged in
  // shard order, so logits and counters are independent of the worker
  // count.
  //
  // Sharding goes through the k-aware weighted planner. Every spatial row
  // MACs all filter rows, so per-item budgets are uniform here and the plan
  // reduces to the even split — but the plan's budgets (real SC-cycle sums
  // when packed) surface shard balance in the scheduling telemetry.
  const std::int64_t rows = static_cast<std::int64_t>(x.n()) * R;
  const std::uint64_t row_budget =
      packed ? packed->total_budget()
             : static_cast<std::uint64_t>(out_ch_) * (dd + 1);
  const std::vector<std::uint64_t> budgets(static_cast<std::size_t>(rows), row_budget);
  const common::ShardPlan plan = common::plan_weighted_shards(
      budgets, common::parallel_shard_count(pool_, rows));
  std::vector<MacStats> shard_stats(static_cast<std::size_t>(std::max(1, plan.shards())));
  common::parallel_for_planned(pool_, plan, [&](std::int64_t lo, std::int64_t hi, int shard) {
    auto& arena = common::ScratchArena::thread_local_arena();
    const auto frame = arena.frame();
    (void)frame;
    const std::span<std::int32_t> patches =
        arena.take<std::int32_t>(planes ? 0 : static_cast<std::size_t>(C) * dd);
    const std::span<std::int64_t> accs = arena.take<std::int64_t>(
        static_cast<std::size_t>(out_ch_) * static_cast<std::size_t>(C));
    MacStats local;
    local.detail = cycle_detail_;
    for (std::int64_t row = lo; row < hi; ++row) {
      const int n = static_cast<int>(row / R);
      const int r = static_cast<int>(row % R);
      if (planes) {
        const auto image = static_cast<std::size_t>(n);
        std::uint8_t* u = plane_image_.data() + image * plane_layout_.image_bytes;
        std::call_once(built[image], [&] {
          bitplane::encode_image(plane_layout_, x.data().data() + image * plane, inv_scale,
                                 nbits, u, folded[image]);
        });
        const std::uint8_t* f = folded[image] ? folded[image] : u;
        const std::size_t origin = plane_layout_.row_origin(r);
        engine_->mac_block(weight_rows,
                           {.u = u + origin,
                            .f = f + origin,
                            .offsets = plane_layout_.offsets,
                            .tile = static_cast<std::size_t>(C)},
                           accs, local);
      } else {
        const std::int32_t* xs = &xq[static_cast<std::size_t>(n) * plane];
        const int i_lo = std::max(0, p_ - s_ * r);
        const int i_hi = std::min(k_, H - s_ * r + p_);
        // Build the row's patches. With padding, start from materialized
        // zero codes (quantize(0) == 0) and copy only the in-range segments
        // — the inner kernel then needs no bounds checks at all.
        if (p_ > 0) std::memset(patches.data(), 0, patches.size_bytes());
        for (int c = 0; c < C; ++c) {
          std::int32_t* patch = &patches[static_cast<std::size_t>(c) * dd];
          const int j_lo = std::max(0, p_ - s_ * c);
          const int j_hi = std::min(k_, W - s_ * c + p_);
          for (int z = 0; z < in_ch_; ++z) {
            for (int i = i_lo; i < i_hi; ++i) {
              const int yy = s_ * r + i - p_;
              const std::int32_t* src =
                  &xs[(static_cast<std::size_t>(z) * H + yy) * W + (s_ * c + j_lo - p_)];
              std::int32_t* dst = &patch[(static_cast<std::size_t>(z) * k_ + i) * k_ + j_lo];
              // Kernel rows are a handful of codes: an inline copy beats a
              // memcpy call per segment.
              for (int j = 0; j < j_hi - j_lo; ++j) dst[j] = src[j];
            }
          }
        }
        for (int m = 0; m < out_ch_; ++m)
          engine_->mac_rows(weight_rows.row(m), patches,
                            accs.subspan(static_cast<std::size_t>(m) * C,
                                         static_cast<std::size_t>(C)),
                            local);
      }
      for (int m = 0; m < out_ch_; ++m) {
        const float bias = bias_.value.at(m, 0, 0, 0);
        const std::int64_t* arow = accs.data() + static_cast<std::size_t>(m) * C;
        float* yrow = &y.at(n, m, r, 0);
        for (int c = 0; c < C; ++c) yrow[c] = static_cast<float>(arow[c]) * out_scale + bias;
      }
    }
    shard_stats[static_cast<std::size_t>(shard)] += local;
  });
  stats_ = MacStats{};
  for (const MacStats& s : shard_stats) stats_ += s;
  stats_.sched_shards = static_cast<std::uint32_t>(plan.shards());
  stats_.sched_budget_total = plan.total_weight;
  stats_.sched_budget_max_shard = plan.max_weight;
  return y;
}

Tensor Conv2D::forward_quantized_direct(const Tensor& x) {
  const int nbits = engine_->bits();
  const auto d = dims_for(x);
  const int R = d.out_rows(), C = d.out_cols();
  const std::size_t dd = static_cast<std::size_t>(in_ch_) * k_ * k_;

  // The pre-im2col baseline, kept verbatim: quantize all weights on every
  // pass (codes in [-2^(N-1), 2^(N-1)-1] under w_scale) and gather each
  // output element's patch with per-element padding checks.
  std::vector<std::int32_t> wq(static_cast<std::size_t>(out_ch_) * dd);
  {
    std::size_t idx = 0;
    for (int m = 0; m < out_ch_; ++m)
      for (int z = 0; z < in_ch_; ++z)
        for (int i = 0; i < k_; ++i)
          for (int j = 0; j < k_; ++j)
            wq[idx++] = common::quantize(weight_.value.at(m, z, i, j) / weight_scale_, nbits);
  }

  const std::size_t plane = static_cast<std::size_t>(in_ch_) * x.h() * x.w();
  const std::vector<std::int32_t> xq = quantize_input_(x, nbits);

  const float out_scale = weight_scale_ * act_scale_ /
                          static_cast<float>(std::int64_t{1} << (nbits - 1));
  Tensor y(x.n(), out_ch_, R, C);

  // One item = one output row (n, m, r). Each shard owns a private gather
  // scratch and MacStats; shards write disjoint output rows. Per-shard stats
  // are merged in shard order below, so counters (and of course the logits)
  // are independent of how many workers ran.
  //
  // Items here carry a filter index, so their SC-cycle cost is genuinely
  // heterogeneous: weight each (n, m, r) by filter m's latency-model budget
  // (sum of k = |q| enable counts plus the per-product baseline cycles) and
  // let the weighted planner split by cumulative budget instead of row
  // count. Any contiguous partition of independent rows is bit-exact, so
  // this only moves shard boundaries.
  std::vector<std::uint64_t> filter_budget(static_cast<std::size_t>(out_ch_), 0);
  for (int m = 0; m < out_ch_; ++m) {
    std::uint64_t b = 0;
    for (std::size_t j = 0; j < dd; ++j) {
      const std::int32_t q = wq[static_cast<std::size_t>(m) * dd + j];
      b += static_cast<std::uint64_t>(q < 0 ? -static_cast<std::int64_t>(q) : q);
      if (q != 0) ++b;
    }
    filter_budget[static_cast<std::size_t>(m)] = b + 1;
  }
  const std::int64_t rows = static_cast<std::int64_t>(x.n()) * out_ch_ * R;
  std::vector<std::uint64_t> budgets(static_cast<std::size_t>(rows));
  for (std::int64_t row = 0; row < rows; ++row)
    budgets[static_cast<std::size_t>(row)] =
        filter_budget[static_cast<std::size_t>(row / R % out_ch_)];
  const common::ShardPlan plan = common::plan_weighted_shards(
      budgets, common::parallel_shard_count(pool_, rows));
  std::vector<MacStats> shard_stats(static_cast<std::size_t>(std::max(1, plan.shards())));
  common::parallel_for_planned(pool_, plan, [&](std::int64_t lo, std::int64_t hi, int shard) {
    std::vector<std::int32_t> gather(dd);
    MacStats local;
    local.detail = cycle_detail_;
    for (std::int64_t row = lo; row < hi; ++row) {
      const int n = static_cast<int>(row / (static_cast<std::int64_t>(out_ch_) * R));
      const int m = static_cast<int>(row / R % out_ch_);
      const int r = static_cast<int>(row % R);
      const std::span<const std::int32_t> wrow(&wq[static_cast<std::size_t>(m) * dd], dd);
      const std::int32_t* xs = &xq[static_cast<std::size_t>(n) * plane];
      for (int c = 0; c < C; ++c) {
        std::size_t g = 0;
        for (int z = 0; z < in_ch_; ++z) {
          for (int i = 0; i < k_; ++i) {
            const int yy = s_ * r + i - p_;
            for (int j = 0; j < k_; ++j) {
              const int xx = s_ * c + j - p_;
              const bool in_range = yy >= 0 && yy < x.h() && xx >= 0 && xx < x.w();
              gather[g++] = in_range
                                ? xs[(static_cast<std::size_t>(z) * x.h() + yy) * x.w() + xx]
                                : 0;
            }
          }
        }
        // Hardware MAC (saturating, N+A bits, units 2^-(N-1)), then the
        // power-of-two output rescale and the binary-domain bias add.
        const std::int64_t acc = engine_->mac(wrow, gather, local);
        y.at(n, m, r, c) =
            static_cast<float>(acc) * out_scale + bias_.value.at(m, 0, 0, 0);
      }
    }
    shard_stats[static_cast<std::size_t>(shard)] += local;
  });
  stats_ = MacStats{};
  for (const MacStats& s : shard_stats) stats_ += s;
  stats_.sched_shards = static_cast<std::uint32_t>(plan.shards());
  stats_.sched_budget_total = plan.total_weight;
  stats_.sched_budget_max_shard = plan.max_weight;
  return y;
}

Tensor Conv2D::backward(const Tensor& grad_out) {
  const Tensor& x = cached_input_;
  const auto d = dims_for(x);
  const int R = d.out_rows(), C = d.out_cols();
  assert(grad_out.c() == out_ch_ && grad_out.h() == R && grad_out.w() == C);

  Tensor grad_in(x.n(), x.c(), x.h(), x.w());
  for (int n = 0; n < x.n(); ++n) {
    for (int m = 0; m < out_ch_; ++m) {
      for (int r = 0; r < R; ++r) {
        for (int c = 0; c < C; ++c) {
          const float g = grad_out.at(n, m, r, c);
          if (g == 0.0f) continue;
          bias_.grad.at(m, 0, 0, 0) += g;
          for (int z = 0; z < in_ch_; ++z) {
            for (int i = 0; i < k_; ++i) {
              const int yy = s_ * r + i - p_;
              if (yy < 0 || yy >= x.h()) continue;
              for (int j = 0; j < k_; ++j) {
                const int xx = s_ * c + j - p_;
                if (xx < 0 || xx >= x.w()) continue;
                weight_.grad.at(m, z, i, j) += g * x.at(n, z, yy, xx);
                grad_in.at(n, z, yy, xx) += g * weight_.value.at(m, z, i, j);
              }
            }
          }
        }
      }
    }
  }
  return grad_in;
}

void Conv2D::calibrate_scales(const Tensor& representative_input) {
  act_scale_ = common::pow2_ceil(representative_input.max_abs());
  weight_scale_ = common::pow2_ceil(weight_.value.max_abs());
}

std::vector<std::int32_t> Conv2D::quantized_weights(int n_bits) const {
  const auto codes = cached_weight_codes_(n_bits);
  return {codes.begin(), codes.end()};
}

}  // namespace scnn::nn
