// Raw blocks for the bit-plane stage: `tile` patches of d codes ([tile][d])
// laid out the way the stage reads a convolution's plane image, as a
// 1 x tile image of d channels under a 1 x 1 kernel — code j of output t is
// the plane group at offsets[j] + 8 t, each channel padded to whole groups
// of four outputs with the code-0 group. The folded image exists only when
// some code is negative, as in Conv2D. Also the rule that picks the stage
// kernel, as the tests state it.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "nn/mac_backends/bitplane.hpp"

namespace scnn {

/// What a proposed-kind engine at N <= 8 over mac_rows kernel `lut`
/// describes itself as: the avx512vnni stage in front of avx512 where this
/// CPU runs it, the avx2 stage in front of every other SIMD kernel, and no
/// stage in front of the scalar reference.
inline std::string expected_backend(std::string_view lut) {
  namespace bitplane = nn::bitplane;
  const bitplane::Kernel* stage = nullptr;
  if (lut != "scalar")
    stage = lut == "avx512" && bitplane::avx512_kernel() ? bitplane::avx512_kernel()
                                                         : bitplane::avx2_kernel();
  return stage ? "bitplane-" + std::string(stage->name) + "+" + std::string(lut)
               : std::string(lut);
}

struct PlaneBlock {
  std::vector<std::uint8_t> u, f;
  std::vector<std::size_t> offsets;
  std::size_t tile = 0;

  PlaneBlock(std::span<const std::int32_t> patches, std::size_t d, std::size_t tile_,
             int n_bits)
      : offsets(d), tile(tile_) {
    namespace bitplane = nn::bitplane;
    const std::size_t slots = (tile + 3) / 4 * 4;
    const std::uint64_t pad = bitplane::plane_group(0, n_bits);
    u.resize(d * slots * 8);
    for (std::size_t o = 0; o < u.size(); o += 8) std::memcpy(u.data() + o, &pad, 8);
    bool negative = false;
    for (std::size_t j = 0; j < d; ++j) {
      offsets[j] = j * slots * 8;
      for (std::size_t t = 0; t < tile; ++t) {
        const std::int32_t q = patches[t * d + j];
        negative = negative || q < 0;
        const std::uint64_t g = bitplane::plane_group(q, n_bits);
        std::memcpy(u.data() + offsets[j] + 8 * t, &g, 8);
      }
    }
    if (!negative) return;
    f.resize(u.size());
    for (std::size_t o = 0; o < u.size(); o += 8) {
      std::uint64_t g;
      std::memcpy(&g, u.data() + o, 8);
      g = bitplane::folded_group(g, n_bits);
      std::memcpy(f.data() + o, &g, 8);
    }
  }

  [[nodiscard]] bool folded() const { return !f.empty(); }
  [[nodiscard]] nn::bitplane::PlaneRow row() const {
    return {.u = u.data(), .f = folded() ? f.data() : u.data(), .offsets = offsets,
            .tile = tile};
  }
};

}  // namespace scnn
