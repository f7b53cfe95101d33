// Typed weight-code views and the compressed (zero-skip) weight-code format.
//
// The paper's multiplier spends k = |qw| enable cycles per product (Sec.
// 3.2), so a zero weight code costs nothing arithmetically — its product is
// exactly zero for every product table that annihilates zero, and adding
// zero to an in-range saturating accumulator changes neither the value nor
// the clamp behaviour. The obs k-histograms (PR 3) show real CNN weight
// codes are overwhelmingly small or zero, which makes skipping k = 0
// products the single biggest scheduling win available (ROADMAP item #1).
//
// PackedRowCodes stores a layer's quantized weight rows CSR-style: the
// nonzero codes, their column indices, and per-row k-sums (the inputs to the
// k-aware shard partitioner). WeightCodeView is the typed handle the layers
// pass to MacEngine::mac_rows — it always carries the dense row, and when a
// packed cache exists it additionally carries that row's CSR slice, so dense
// and sparse kernels share one contract and an engine can fall back to the
// dense kernel per call without the caller caring.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace scnn::nn {

namespace bitplane {
struct Coefficients;
}

/// Zero-skip scheduling selection, carried by EngineConfig::sparsity.
/// kDense always issues every product; kZeroSkip skips k = 0 products and
/// makes engine construction throw for product tables where that would
/// change results (conventional SC does not annihilate zero); kAuto skips
/// exactly when the engine's table annihilates zero (overridable via the
/// SCNN_SPARSITY environment variable: auto | dense | zero-skip).
enum class Sparsity { kDense, kZeroSkip, kAuto };

/// Canonical spelling: "dense" | "zero-skip" | "auto".
[[nodiscard]] std::string to_string(Sparsity sparsity);
/// Parse the canonical spelling ("zero_skip" is accepted as an alias for
/// environments where dashes are awkward); throws std::invalid_argument
/// listing the accepted names otherwise.
[[nodiscard]] Sparsity sparsity_from_string(std::string_view s);

/// CSR-compressed quantized weight codes for one layer: `rows` weight rows
/// of `row_len` codes each, keeping only the nonzeros. Row r's nonzeros
/// occupy [row_ptr[r], row_ptr[r+1]) of `codes`/`cols`, in increasing-column
/// order — the same order the dense kernels issue products in, which is what
/// keeps the zero-skip path's saturation sequence bit-identical.
struct PackedRowCodes {
  int rows = 0;
  int row_len = 0;
  std::vector<std::int32_t> codes;       ///< nonzero codes, rows back to back
  std::vector<std::int32_t> cols;        ///< column index of each nonzero
  std::vector<std::size_t> row_ptr;      ///< rows + 1 fenceposts into codes/cols
  std::vector<std::uint64_t> row_k_sum;  ///< sum of |code| per row (enable cycles)
  std::uint64_t total_k_sum = 0;         ///< sum of row_k_sum
  std::uint64_t zeros = 0;               ///< zero codes dropped (skippable products)

  /// Compress `dense` (layout [rows][row_len]) into CSR form.
  [[nodiscard]] static PackedRowCodes build(std::span<const std::int32_t> dense,
                                            int rows, int row_len);

  [[nodiscard]] std::size_t nnz(int row) const {
    return row_ptr[static_cast<std::size_t>(row) + 1] -
           row_ptr[static_cast<std::size_t>(row)];
  }
  [[nodiscard]] std::span<const std::int32_t> row_cols(int row) const {
    return std::span<const std::int32_t>(cols).subspan(
        row_ptr[static_cast<std::size_t>(row)], nnz(row));
  }
  [[nodiscard]] std::span<const std::int32_t> row_codes(int row) const {
    return std::span<const std::int32_t>(codes).subspan(
        row_ptr[static_cast<std::size_t>(row)], nnz(row));
  }

  /// Scheduling budget of one row, in SC-cycle-flavoured units: the row's
  /// summed enable cycles plus one issue slot per nonzero product plus one
  /// constant slot for the row itself (so all-zero rows still cost > 0 and
  /// a weighted plan never packs unbounded row counts into one shard).
  [[nodiscard]] std::uint64_t row_budget(int row) const {
    return row_k_sum[static_cast<std::size_t>(row)] + nnz(row) + 1;
  }
  /// Sum of row_budget over all rows.
  [[nodiscard]] std::uint64_t total_budget() const {
    std::uint64_t b = 0;
    for (int r = 0; r < rows; ++r) b += row_budget(r);
    return b;
  }
};

/// One weight row as the engines see it. Always views the dense codes (every
/// engine can run the dense kernel); a packed view additionally carries the
/// row's CSR slice so zero-skip engines can issue only the nonzeros. Views
/// borrow — the dense row and any PackedRowCodes must outlive the call.
class WeightCodeView {
 public:
  /// Dense view over one weight row.
  explicit WeightCodeView(std::span<const std::int32_t> dense_row)
      : dense_(dense_row) {}

  /// Packed view: the dense row plus its CSR slice. `cols`/`codes` list the
  /// row's nonzeros in increasing-column order; k_sum is their summed |code|.
  WeightCodeView(std::span<const std::int32_t> dense_row,
                 std::span<const std::int32_t> cols,
                 std::span<const std::int32_t> codes, std::uint64_t k_sum)
      : dense_(dense_row), cols_(cols), codes_(codes), k_sum_(k_sum),
        packed_(true) {}

  /// Packed view of row `row` of a layer's CSR cache, over its dense codes.
  [[nodiscard]] static WeightCodeView packed_row(
      std::span<const std::int32_t> dense_row, const PackedRowCodes& packed,
      int row) {
    return WeightCodeView(dense_row, packed.row_cols(row), packed.row_codes(row),
                          packed.row_k_sum[static_cast<std::size_t>(row)]);
  }

  /// Dense row length d (the patch stride of mac_rows).
  [[nodiscard]] std::size_t size() const { return dense_.size(); }
  [[nodiscard]] std::span<const std::int32_t> dense() const { return dense_; }

  [[nodiscard]] bool packed() const { return packed_; }
  [[nodiscard]] std::size_t nnz() const { return codes_.size(); }
  [[nodiscard]] std::span<const std::int32_t> cols() const { return cols_; }
  [[nodiscard]] std::span<const std::int32_t> codes() const { return codes_; }
  /// Summed enable cycles of the row (packed views only; 0 otherwise).
  [[nodiscard]] std::uint64_t k_sum() const { return k_sum_; }

 private:
  std::span<const std::int32_t> dense_;
  std::span<const std::int32_t> cols_;
  std::span<const std::int32_t> codes_;
  std::uint64_t k_sum_ = 0;
  bool packed_ = false;
};

/// Every filter row of one layer generation, as handed to
/// MacEngine::mac_block (or row by row to mac_rows): the dense codes plus
/// whichever prepared forms the engine asked for. Borrows — everything must
/// outlive the call.
struct WeightRows {
  std::span<const std::int32_t> dense;  ///< [rows][d] codes
  int rows = 0;
  std::size_t d = 0;
  /// CSR cache for zero-skip engines (nullptr = dense views).
  const PackedRowCodes* packed = nullptr;
  /// Bit-plane coefficients of these exact codes, for engines whose
  /// bit-plane stage runs (MacEngine::bitplane_stage).
  const bitplane::Coefficients* planes = nullptr;

  /// Row m as the per-row kernels see it (packed when a CSR cache is set).
  [[nodiscard]] WeightCodeView row(int m) const {
    const std::span<const std::int32_t> r =
        dense.subspan(static_cast<std::size_t>(m) * d, d);
    return packed ? WeightCodeView::packed_row(r, *packed, m) : WeightCodeView(r);
  }
};

}  // namespace scnn::nn
