#include "nn/mac_backends/bitplane.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace scnn::nn::bitplane {
namespace {

struct Scratch {
  std::vector<std::uint8_t> flags;
  std::vector<std::int32_t> s, a;
};

}  // namespace

void Coefficients::assign(std::span<const std::int32_t> codes, int rows_,
                          std::size_t d_, int n_bits_) {
  assert(n_bits_ >= 2 && n_bits_ <= kMaxBits);
  assert(codes.size() == static_cast<std::size_t>(rows_) * d_);
  n_bits = n_bits_;
  rows = rows_;
  d = d_;
  const std::size_t total = static_cast<std::size_t>(rows_) * 8 * d_;
  signed_c.assign(total, 0);
  abs_c.assign(total, 0);
  sum_sk.assign(static_cast<std::size_t>(rows_), 0);
  sum_k.assign(static_cast<std::size_t>(rows_), 0);
  for (std::size_t r = 0; r < static_cast<std::size_t>(rows_); ++r) {
    for (std::size_t j = 0; j < d_; ++j) {
      const std::int32_t q = codes[r * d_ + j];
      const std::int32_t k = q < 0 ? -q : q;
      sum_sk[r] += q;  // s * k == q
      sum_k[r] += k;
      std::int8_t* sc = signed_c.data() + (r * d_ + j) * 8;
      std::int8_t* ac = abs_c.data() + (r * d_ + j) * 8;
      for (int b = 0; b < n_bits_; ++b) {
        // Byte b carries plane bit b, i.e. i = N - b: c_i(k) = round(k / 2^i).
        const int i = n_bits_ - b;
        const auto c = static_cast<std::int8_t>((k + (1 << (i - 1))) >> i);
        ac[b] = c;
        sc[b] = static_cast<std::int8_t>(q < 0 ? -c : c);
      }
    }
  }
}

void ImageLayout::assign(int channels_, int height_, int width_, int kernel_,
                         int stride_, int pad_) {
  channels = channels_;
  height = height_;
  width = width_;
  kernel = kernel_;
  stride = stride_;
  pad = pad_;
  const int padded_w = width_ + 2 * pad_;
  const int cols = padded_w >= kernel_ ? (padded_w - kernel_) / stride_ + 1 : 0;
  // Slots per phase: every padded column, and the last group of four
  // outputs' furthest tap.
  const int slots = std::max((padded_w + stride_ - 1) / stride_,
                             (cols + 3) / 4 * 4 + (kernel_ - 1) / stride_);
  phase_bytes = 8 * static_cast<std::size_t>(slots);
  row_bytes = static_cast<std::size_t>(stride_) * phase_bytes;
  channel_bytes = static_cast<std::size_t>(height_ + 2 * pad_) * row_bytes;
  image_bytes = static_cast<std::size_t>(channels_) * channel_bytes;
  offsets.resize(static_cast<std::size_t>(channels_) * kernel_ * kernel_);
  std::size_t o = 0;
  for (int z = 0; z < channels_; ++z)
    for (int i = 0; i < kernel_; ++i)
      for (int j = 0; j < kernel_; ++j)
        offsets[o++] = static_cast<std::size_t>(z) * channel_bytes +
                       static_cast<std::size_t>(i) * row_bytes +
                       static_cast<std::size_t>(j % stride_) * phase_bytes +
                       static_cast<std::size_t>(j / stride_) * 8;
  columns.resize(static_cast<std::size_t>(width_));
  for (int x = 0; x < width_; ++x)
    columns[static_cast<std::size_t>(x)] =
        static_cast<std::size_t>((x + pad_) % stride_) * phase_bytes +
        static_cast<std::size_t>((x + pad_) / stride_) * 8;
}

bool any_negative_code(const float* v, std::size_t count, float inv_scale, int n_bits) {
  // x > -0.5 <=> v * inv_scale > -2^-N: scaling by 2^(N-1) is exact.
  const float bound = -0.5f / static_cast<float>(1 << (n_bits - 1));
  // Blocks of 64 keep the compare loop vectorizable and stop a signed
  // image's scan at its first negative block.
  constexpr std::size_t kBlock = 64;
  for (std::size_t i = 0; i < count; i += kBlock) {
    int negatives = 0;
    for (std::size_t j = i; j < std::min(count, i + kBlock); ++j)
      negatives += !(v[j] * inv_scale > bound);
    if (negatives != 0) return true;
  }
  return false;
}

void encode_image(const ImageLayout& layout, const float* v, float inv_scale, int n_bits,
                  std::uint8_t* u, std::uint8_t* f) {
  const std::uint64_t pad_group = plane_group(0, n_bits);  // code 0 is its own fold
  const auto pad = [&](std::size_t o, std::size_t bytes) {
    for (std::size_t b = o; b < o + bytes; b += 8) {
      std::memcpy(u + b, &pad_group, 8);
      if (f) std::memcpy(f + b, &pad_group, 8);
    }
  };
  const auto encode_at = [&](const float* src, std::size_t width, std::size_t rows,
                             std::size_t o) {
    encode(src, width, rows, layout.row_bytes, inv_scale, n_bits, u + o, f ? f + o : nullptr);
  };
  const int s = layout.stride, p = layout.pad, H = layout.height, W = layout.width;
  const std::size_t slots = layout.phase_bytes / 8;
  const std::size_t border = static_cast<std::size_t>(p) * layout.row_bytes;
  for (int z = 0; z < layout.channels; ++z) {
    const std::size_t channel = static_cast<std::size_t>(z) * layout.channel_bytes;
    const float* plane = v + static_cast<std::size_t>(z) * H * W;
    pad(channel, border);
    pad(channel + border + static_cast<std::size_t>(H) * layout.row_bytes, border);
    for (int ph = 0; ph < s; ++ph) {
      // Phase ph holds columns x0, x0 + s, ... (padded column x + p at slot
      // (x + p) / s): pixels in one run of slots, padding on either side.
      const int x0 = ((ph - p) % s + s) % s;
      const std::size_t count = x0 < W ? static_cast<std::size_t>((W - 1 - x0) / s + 1) : 0;
      const std::size_t first = count ? static_cast<std::size_t>((x0 + p) / s) : 0;
      const std::size_t phase = channel + border + static_cast<std::size_t>(ph) * layout.phase_bytes;
      for (int y = 0; y < H; ++y) {
        const std::size_t row = phase + static_cast<std::size_t>(y) * layout.row_bytes;
        pad(row, 8 * first);
        pad(row + 8 * (first + count), 8 * (slots - first - count));
      }
      if (count == 0) continue;
      if (s == 1) {
        encode_at(plane, count, static_cast<std::size_t>(H), phase + 8 * first);
        continue;
      }
      // Strided columns are staged into a contiguous run first.
      constexpr std::size_t kChunk = 64;
      float staged[kChunk];
      for (int y = 0; y < H; ++y) {
        const float* src = plane + static_cast<std::size_t>(y) * W + x0;
        const std::size_t row = phase + static_cast<std::size_t>(y) * layout.row_bytes;
        for (std::size_t c = 0; c < count; c += kChunk) {
          const std::size_t m = std::min(kChunk, count - c);
          for (std::size_t i = 0; i < m; ++i) staged[i] = src[static_cast<std::size_t>(s) * (c + i)];
          encode_at(staged, m, 1, row + 8 * (first + c));
        }
      }
    }
  }
}

std::vector<const Kernel*> available_kernels() {
  std::vector<const Kernel*> ks;
  if (const Kernel* k = avx2_kernel()) ks.push_back(k);
  if (const Kernel* k = avx512_kernel()) ks.push_back(k);
  return ks;
}

void gather(const PlaneRow& x, int n_bits, std::size_t t0, std::size_t t1,
            std::span<std::int32_t> codes) {
  const std::size_t d = x.offsets.size();
  assert(codes.size() == (t1 - t0) * d);
  for (std::size_t t = t0; t < t1; ++t)
    for (std::size_t j = 0; j < d; ++j) {
      std::uint64_t group;
      std::memcpy(&group, x.u + x.offsets[j] + 8 * t, sizeof group);
      codes[(t - t0) * d + j] = plane_code(group, n_bits);
    }
}

std::span<const std::uint8_t> run(const Kernel& kernel, const Coefficients& coef,
                                  const PlaneRow& x, std::int64_t lo, std::int64_t hi,
                                  std::span<std::int64_t> out) {
  thread_local Scratch scratch;
  const std::size_t rows = static_cast<std::size_t>(coef.rows);
  const std::size_t tile = x.tile, pitch = (tile + 3) / 4 * 4;
  assert(x.offsets.size() == coef.d);
  assert(out.size() == rows * tile);
  scratch.s.resize(rows * pitch);
  scratch.a.resize(rows * pitch);
  scratch.flags.resize(rows * tile);
  kernel.dots(coef, x, scratch.s.data(), scratch.a.data());
  for (std::size_t m = 0; m < rows; ++m) {
    const std::int32_t* sm = scratch.s.data() + m * pitch;
    const std::int32_t* am = scratch.a.data() + m * pitch;
    std::int64_t* om = out.data() + m * tile;
    std::uint8_t* fm = scratch.flags.data() + m * tile;
    for (std::size_t t = 0; t < tile; ++t) {
      // S = sum of products, A = sum of their magnitudes; 2 S+ = S + A and
      // 2 S- = S - A bound every prefix of the row.
      const std::int64_t s = 2 * std::int64_t{sm[t]} - coef.sum_sk[m];
      const std::int64_t a = 2 * std::int64_t{am[t]} - coef.sum_k[m];
      fm[t] = static_cast<std::uint8_t>((s + a <= 2 * hi) & (s - a >= 2 * lo));
      om[t] = s;
    }
  }
  return scratch.flags;
}

}  // namespace scnn::nn::bitplane
