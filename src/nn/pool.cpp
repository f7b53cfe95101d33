#include "nn/pool.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>

#include "common/thread_pool.hpp"

namespace scnn::nn {

namespace {
int pooled_extent(int in, int k, int s) { return (in - k) / s + 1; }

// Max-pools planes [lo, hi) of `x` (each h*w floats) into `y` (each R*C
// floats), recording each maximum's flat input index in `argmax`. Windows
// are scanned row-major and ties keep the first maximum.
void max_pool_planes(const Tensor& x, int k, int s, int R, int C, std::int64_t lo,
                     std::int64_t hi, float* y, std::size_t* argmax) {
  const float* xd = x.data().data();
  const std::size_t W = static_cast<std::size_t>(x.w());
  const std::size_t in_plane = static_cast<std::size_t>(x.h()) * W;
  std::size_t out_idx = static_cast<std::size_t>(lo) * R * C;
  for (std::int64_t p = lo; p < hi; ++p) {
    const std::size_t in_base = static_cast<std::size_t>(p) * in_plane;
    for (int r = 0; r < R; ++r) {
      for (int cc = 0; cc < C; ++cc, ++out_idx) {
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_idx = 0;
        for (int i = 0; i < k; ++i) {
          const std::size_t row = in_base + static_cast<std::size_t>(r * s + i) * W;
          for (int j = 0; j < k; ++j) {
            // Branch-free select: the comparison is data-dependent and
            // mispredicts often on feature maps.
            const std::size_t idx = row + static_cast<std::size_t>(cc * s + j);
            const bool gt = xd[idx] > best;
            best = gt ? xd[idx] : best;
            best_idx = gt ? idx : best_idx;
          }
        }
        y[out_idx] = best;
        argmax[out_idx] = best_idx;
      }
    }
  }
}
}  // namespace

MaxPool2D::MaxPool2D(int kernel, int stride) : k_(kernel), s_(stride == 0 ? kernel : stride) {
  if (k_ <= 0 || s_ <= 0) throw std::invalid_argument("MaxPool2D: invalid geometry");
}

Tensor MaxPool2D::forward(const Tensor& x) {
  cached_input_ = x;
  const int R = pooled_extent(x.h(), k_, s_), C = pooled_extent(x.w(), k_, s_);
  Tensor y(x.n(), x.c(), R, C);
  argmax_.resize(y.size());  // every entry is written below
  // One item = one (image, channel) plane; planes own disjoint output and
  // argmax ranges, so values and argmax_ are the same at every thread count.
  common::parallel_for(pool_, static_cast<std::int64_t>(x.n()) * x.c(),
                       [&](std::int64_t lo, std::int64_t hi, int) {
                         max_pool_planes(x, k_, s_, R, C, lo, hi, y.data().data(),
                                         argmax_.data());
                       });
  return y;
}

Tensor MaxPool2D::backward(const Tensor& grad_out) {
  assert(grad_out.size() == argmax_.size());
  Tensor grad_in(cached_input_.n(), cached_input_.c(), cached_input_.h(), cached_input_.w());
  for (std::size_t i = 0; i < grad_out.size(); ++i) grad_in[argmax_[i]] += grad_out[i];
  return grad_in;
}

AvgPool2D::AvgPool2D(int kernel, int stride) : k_(kernel), s_(stride == 0 ? kernel : stride) {
  if (k_ <= 0 || s_ <= 0) throw std::invalid_argument("AvgPool2D: invalid geometry");
}

Tensor AvgPool2D::forward(const Tensor& x) {
  in_n_ = x.n(); in_c_ = x.c(); in_h_ = x.h(); in_w_ = x.w();
  const int R = pooled_extent(x.h(), k_, s_), C = pooled_extent(x.w(), k_, s_);
  const float inv = 1.0f / static_cast<float>(k_ * k_);
  Tensor y(x.n(), x.c(), R, C);
  // One item = one (image, channel) plane, summed in the serial order.
  const int k = k_, s = s_, W = x.w();
  const std::size_t in_plane = static_cast<std::size_t>(x.h()) * W;
  const std::size_t out_plane = static_cast<std::size_t>(R) * C;
  const float* xd = x.data().data();
  float* yd = y.data().data();
  common::parallel_for(pool_, static_cast<std::int64_t>(x.n()) * x.c(),
                       [=](std::int64_t lo, std::int64_t hi, int) {
    for (std::int64_t p = lo; p < hi; ++p) {
      const float* xp = xd + static_cast<std::size_t>(p) * in_plane;
      float* yp = yd + static_cast<std::size_t>(p) * out_plane;
      for (int r = 0; r < R; ++r)
        for (int cc = 0; cc < C; ++cc) {
          float acc = 0.0f;
          for (int i = 0; i < k; ++i)
            for (int j = 0; j < k; ++j)
              acc += xp[static_cast<std::size_t>(r * s + i) * W + cc * s + j];
          *yp++ = acc * inv;
        }
    }
  });
  return y;
}

Tensor AvgPool2D::backward(const Tensor& grad_out) {
  Tensor grad_in(in_n_, in_c_, in_h_, in_w_);
  const int R = grad_out.h(), C = grad_out.w();
  const float inv = 1.0f / static_cast<float>(k_ * k_);
  for (int n = 0; n < in_n_; ++n)
    for (int c = 0; c < in_c_; ++c)
      for (int r = 0; r < R; ++r)
        for (int cc = 0; cc < C; ++cc) {
          const float g = grad_out.at(n, c, r, cc) * inv;
          for (int i = 0; i < k_; ++i)
            for (int j = 0; j < k_; ++j) grad_in.at(n, c, r * s_ + i, cc * s_ + j) += g;
        }
  return grad_in;
}

}  // namespace scnn::nn
