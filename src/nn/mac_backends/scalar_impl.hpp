// The reference blocked mac_rows kernel, as a template over the accumulator
// type. Internal to the backend family: scalar.cpp instantiates it for the
// scalar backend, and every SIMD kernel reuses it for the sub-lane tail of a
// tile (the tail lanes see exactly the same math, so composing vector blocks
// with this tail is bit-identical to running it alone).
#pragma once

#include <cstdint>
#include <span>

#include "sc/mult_lut.hpp"

namespace scnn::nn::backends::detail {

// Tile-blocked saturating MAC over one weight row. The j-loop is outermost
// so one LUT row (2^N int16s) stays hot across all lanes; each lane's
// products still arrive in increasing-j order, so per-element saturation
// behaviour is exactly the serial mac()'s. The lane loop has no branches
// (clamp via min/max), a fixed trip count, and — in the common Acc=int32
// case (accumulator width <= 30 bits, true for every paper configuration) —
// narrow accumulators: the form the auto-vectorizer wants.
template <typename Acc>
std::uint64_t mac_rows_blocked(const sc::ProductLut& lut,
                               std::span<const std::int32_t> w,
                               std::span<const std::int32_t> patches,
                               std::span<std::int64_t> out, Acc lo, Acc hi) {
  const std::size_t d = w.size();
  const std::size_t tile = out.size();
  std::uint64_t sat = 0;
  constexpr std::size_t kLanes = 8;
  std::size_t t0 = 0;
  for (; t0 + kLanes <= tile; t0 += kLanes) {
    Acc acc[kLanes] = {};
    std::uint32_t lane_sat[kLanes] = {};
    const std::int32_t* px = patches.data() + t0 * d;
    for (std::size_t j = 0; j < d; ++j) {
      const std::int16_t* row = lut.row(w[j]);
      for (std::size_t t = 0; t < kLanes; ++t) {
        const Acc v = static_cast<Acc>(acc[t] + row[px[t * d + j]]);
        lane_sat[t] += static_cast<std::uint32_t>(v < lo) +
                       static_cast<std::uint32_t>(v > hi);
        acc[t] = v < lo ? lo : (v > hi ? hi : v);
      }
    }
    for (std::size_t t = 0; t < kLanes; ++t) {
      out[t0 + t] = acc[t];
      sat += lane_sat[t];
    }
  }
  // Tail lanes: same math, one element at a time.
  for (; t0 < tile; ++t0) {
    const std::int32_t* px = patches.data() + t0 * d;
    Acc acc = 0;
    for (std::size_t j = 0; j < d; ++j) {
      const Acc v = static_cast<Acc>(acc + lut.row(w[j])[px[j]]);
      sat += static_cast<std::uint64_t>(v < lo) + static_cast<std::uint64_t>(v > hi);
      acc = v < lo ? lo : (v > hi ? hi : v);
    }
    out[t0] = acc;
  }
  return sat;
}

// Zero-skip counterpart of mac_rows_blocked: walk only the row's nonzero
// codes (cols/codes in increasing-column order), same blocked lane loop,
// same branchless clamp. Products still arrive in increasing-j order per
// lane — skipping a zero code removes an add of exactly 0 against an
// in-range accumulator, so values, clamp events and clamp order match the
// dense kernel bit for bit (for zero-annihilating product tables).
template <typename Acc>
std::uint64_t mac_rows_sparse_blocked(const sc::ProductLut& lut,
                                      std::span<const std::int32_t> cols,
                                      std::span<const std::int32_t> codes,
                                      std::size_t d,
                                      std::span<const std::int32_t> patches,
                                      std::span<std::int64_t> out, Acc lo,
                                      Acc hi) {
  const std::size_t nnz = codes.size();
  const std::size_t tile = out.size();
  std::uint64_t sat = 0;
  constexpr std::size_t kLanes = 8;
  std::size_t t0 = 0;
  for (; t0 + kLanes <= tile; t0 += kLanes) {
    Acc acc[kLanes] = {};
    std::uint32_t lane_sat[kLanes] = {};
    const std::int32_t* px = patches.data() + t0 * d;
    for (std::size_t i = 0; i < nnz; ++i) {
      const std::int16_t* row = lut.row(codes[i]);
      const std::size_t j = static_cast<std::size_t>(cols[i]);
      for (std::size_t t = 0; t < kLanes; ++t) {
        const Acc v = static_cast<Acc>(acc[t] + row[px[t * d + j]]);
        lane_sat[t] += static_cast<std::uint32_t>(v < lo) +
                       static_cast<std::uint32_t>(v > hi);
        acc[t] = v < lo ? lo : (v > hi ? hi : v);
      }
    }
    for (std::size_t t = 0; t < kLanes; ++t) {
      out[t0 + t] = acc[t];
      sat += lane_sat[t];
    }
  }
  for (; t0 < tile; ++t0) {
    const std::int32_t* px = patches.data() + t0 * d;
    Acc acc = 0;
    for (std::size_t i = 0; i < nnz; ++i) {
      const Acc v = static_cast<Acc>(
          acc + lut.row(codes[i])[px[static_cast<std::size_t>(cols[i])]]);
      sat += static_cast<std::uint64_t>(v < lo) + static_cast<std::uint64_t>(v > hi);
      acc = v < lo ? lo : (v > hi ? hi : v);
    }
    out[t0] = acc;
  }
  return sat;
}

/// The int64 entry point shared as Kernel::wide by every backend.
std::uint64_t mac_rows_wide(const sc::ProductLut& lut,
                            std::span<const std::int32_t> w,
                            std::span<const std::int32_t> patches,
                            std::span<std::int64_t> out, std::int64_t lo,
                            std::int64_t hi);

/// Scalar zero-skip entry points: the int32 instantiation is the
/// Kernel::sparse_narrow fallback for backends without a vector sparse
/// kernel (and every SIMD sparse kernel's tile tail); the int64 one is the
/// Kernel::sparse_wide shared by all backends.
std::uint64_t mac_rows_sparse_narrow(const sc::ProductLut& lut,
                                     std::span<const std::int32_t> cols,
                                     std::span<const std::int32_t> codes,
                                     std::size_t d,
                                     std::span<const std::int32_t> patches,
                                     std::span<std::int64_t> out,
                                     std::int64_t lo, std::int64_t hi);
std::uint64_t mac_rows_sparse_wide(const sc::ProductLut& lut,
                                   std::span<const std::int32_t> cols,
                                   std::span<const std::int32_t> codes,
                                   std::size_t d,
                                   std::span<const std::int32_t> patches,
                                   std::span<std::int64_t> out, std::int64_t lo,
                                   std::int64_t hi);

}  // namespace scnn::nn::backends::detail
