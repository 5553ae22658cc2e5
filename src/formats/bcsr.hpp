// Block-CSR — the "block CSR" variant the paper's Related Work cites
// ([30], Buluç et al.) as the classic refinement of CSR, generalized to
// d dimensions with the same d-D -> 2-D mapping as GCSR++ and packed with
// per-block occupancy bitmaps. Extension format (not part of the paper's
// evaluated five), clearly marked as such.
//
// Layout: the 2-D mapping of the local boundary is partitioned into
// kBlockRows x kBlockCols = 8x8 blocks. Non-empty blocks are stored in CSR
// order over block rows:
//   block_row_ptr : #blockrows + 1
//   block_col     : one block-column id per non-empty block
//   block_bitmap  : one u64 per block, bit (r%8)*8 + (c%8) set iff occupied
//   block_start   : running slot offset per block (prefix popcounts)
// A point's slot is its block's start plus the popcount of the lower
// bitmap bits — so values stay exactly n slots (no zero padding), unlike
// textbook BCSR, while the index shrinks to ~1 u64 per *block*: on
// clustered data (MSP) that is up to 64x smaller than LINEAR's word per
// point.
//
// Build O(n log n); read O(log blocks-per-row + O(1) popcount) per query;
// space O(blocks + rows/8).
#pragma once

#include "formats/compressed_2d.hpp"

namespace artsparse {

class BcsrFormat final : public Mapped2DFormat {
 public:
  static constexpr index_t kBlockRows = 8;
  static constexpr index_t kBlockCols = 8;

  BcsrFormat() = default;

  OrgKind kind() const override { return OrgKind::kBcsr; }

  std::vector<std::size_t> build(const CoordBuffer& coords,
                                 const Shape& shape) override;

  std::size_t lookup(std::span<const index_t> point) const override;

  void scan_box(const Box& box, CoordBuffer& points,
                std::vector<std::size_t>& slots) const override;

  std::size_t point_count() const override { return point_count_; }

  /// Structure accessors (tests).
  std::size_t block_count() const { return block_col_.size(); }
  std::span<const index_t> block_row_ptr() const { return block_row_ptr_; }
  std::span<const index_t> block_col() const { return block_col_; }
  std::span<const index_t> block_bitmap() const { return block_bitmap_; }

 protected:
  void declare(IndexLayout& layout) override;

 private:
  /// Finds the block (block_row, block_col); returns its index in
  /// block_col_/bitmap_, or kNotFound.
  std::size_t find_block(index_t block_row, index_t block_col) const;

  index_t point_count_ = 0;
  std::vector<index_t> block_row_ptr_;  ///< #blockrows + 1
  std::vector<index_t> block_col_;      ///< per non-empty block
  std::vector<index_t> block_bitmap_;   ///< per non-empty block
  std::vector<index_t> block_start_;    ///< per block: first slot
};

}  // namespace artsparse
