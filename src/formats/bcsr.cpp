#include "formats/bcsr.hpp"

#include <algorithm>
#include <bit>

#include "core/linearize.hpp"
#include "core/sort.hpp"
#include "formats/layout.hpp"

namespace artsparse {

namespace {

/// Bit position of a cell inside its 8x8 block.
inline index_t bit_of(index_t row, index_t col) {
  return (row % BcsrFormat::kBlockRows) * BcsrFormat::kBlockCols +
         (col % BcsrFormat::kBlockCols);
}

}  // namespace

std::vector<std::size_t> BcsrFormat::build(const CoordBuffer& coords,
                                           const Shape& shape) {
  block_row_ptr_.clear();
  block_col_.clear();
  block_bitmap_.clear();
  block_start_.clear();
  point_count_ = coords.size();
  if (!fit_2d(coords, shape, /*smallest_is_cols=*/false)) {
    block_row_ptr_.assign(1, 0);
    return {};
  }

  const index_t n_block_cols = (cols_ + kBlockCols - 1) / kBlockCols;
  const index_t n_block_rows = (rows_ + kBlockRows - 1) / kBlockRows;
  // Sort key packs (block id, in-block bit): needs cells * 64 to fit.
  detail::require(local_box_.shape().element_count() <
                      (index_t{1} << 57),
                  "BCSR bounding box too large for packed sort keys");

  const std::size_t n = coords.size();
  std::vector<index_t> keys(n);
  map_to_2d(coords, [&](std::size_t i, index_t row, index_t col) {
    const index_t block =
        (row / kBlockRows) * n_block_cols + (col / kBlockCols);
    keys[i] = block * (kBlockRows * kBlockCols) + bit_of(row, col);
  });
  const std::vector<std::size_t> perm = sort_permutation(keys);

  // Walk sorted points, emitting one entry per distinct block.
  block_row_ptr_.assign(static_cast<std::size_t>(n_block_rows) + 1, 0);
  index_t prev_block = 0;
  bool have_block = false;
  for (std::size_t rank = 0; rank < n; ++rank) {
    const index_t key = keys[perm[rank]];
    const index_t block = key / (kBlockRows * kBlockCols);
    const index_t bit = key % (kBlockRows * kBlockCols);
    if (!have_block || block != prev_block) {
      detail::require(!have_block || block > prev_block,
                      "BCSR blocks out of order");
      block_col_.push_back(block % n_block_cols);
      block_bitmap_.push_back(0);
      block_start_.push_back(rank);
      ++block_row_ptr_[static_cast<std::size_t>(block / n_block_cols) + 1];
      prev_block = block;
      have_block = true;
    }
    detail::require((block_bitmap_.back() & (index_t{1} << bit)) == 0,
                    "duplicate point in BCSR build");
    block_bitmap_.back() |= index_t{1} << bit;
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(n_block_rows); ++r) {
    block_row_ptr_[r + 1] += block_row_ptr_[r];
  }

  return invert_permutation(perm);
}

std::size_t BcsrFormat::find_block(index_t block_row,
                                   index_t block_col) const {
  if (block_row_ptr_.empty() ||
      block_row + 1 >= block_row_ptr_.size()) {
    return kNotFound;
  }
  const std::size_t begin = block_row_ptr_[block_row];
  const std::size_t end = block_row_ptr_[block_row + 1];
  // Block columns within a block row are ascending: binary search.
  const auto first = block_col_.begin() + static_cast<std::ptrdiff_t>(begin);
  const auto last = block_col_.begin() + static_cast<std::ptrdiff_t>(end);
  const auto it = std::lower_bound(first, last, block_col);
  if (it == last || *it != block_col) return kNotFound;
  return static_cast<std::size_t>(it - block_col_.begin());
}

std::size_t BcsrFormat::lookup(std::span<const index_t> point) const {
  index_t row = 0;
  index_t col = 0;
  if (!to_2d(point, row, col)) return kNotFound;
  const std::size_t block =
      find_block(row / kBlockRows, col / kBlockCols);
  if (block == kNotFound) return kNotFound;
  const index_t bit = bit_of(row, col);
  const index_t bitmap = block_bitmap_[block];
  if ((bitmap & (index_t{1} << bit)) == 0) return kNotFound;
  // Slot = block start + number of occupied cells before this bit.
  const index_t below = bitmap & ((index_t{1} << bit) - 1);
  return block_start_[block] +
         static_cast<std::size_t>(std::popcount(below));
}

void BcsrFormat::scan_box(const Box& box, CoordBuffer& points,
                          std::vector<std::size_t>& slots) const {
  detail::require(box.rank() == shape_.rank(),
                  "scan box rank does not match tensor rank");
  if (local_box_.empty() || !local_box_.overlaps(box)) return;
  const Box clipped = box.intersect(local_box_);
  const index_t lo_addr = linearize_local(clipped.lo(), local_box_);
  const index_t hi_addr = linearize_local(clipped.hi(), local_box_);
  const index_t first_block_row = (lo_addr / cols_) / kBlockRows;
  const index_t last_block_row = (hi_addr / cols_) / kBlockRows;
  const index_t n_block_rows = block_row_ptr_.size() - 1;

  std::vector<index_t> point(shape_.rank());
  for (index_t br = first_block_row;
       br <= last_block_row && br < n_block_rows; ++br) {
    const std::size_t begin = block_row_ptr_[br];
    const std::size_t end = block_row_ptr_[br + 1];
    for (std::size_t b = begin; b < end; ++b) {
      index_t bitmap = block_bitmap_[b];
      std::size_t emitted = 0;
      while (bitmap != 0) {
        const int bit = std::countr_zero(bitmap);
        bitmap &= bitmap - 1;
        const index_t row = br * kBlockRows +
                            static_cast<index_t>(bit) / kBlockCols;
        const index_t col = block_col_[b] * kBlockCols +
                            static_cast<index_t>(bit) % kBlockCols;
        const std::size_t slot = block_start_[b] + emitted;
        ++emitted;
        if (row >= rows_ || col >= cols_) continue;  // defensive
        const index_t address = row * cols_ + col;
        if (address < lo_addr || address > hi_addr) continue;
        // Inside the window, so below the cell count linearize_local checked.
        detail::local_point(address, local_box_, point);
        if (box.contains(point)) {
          points.append(point);
          slots.push_back(slot);
        }
      }
    }
  }
}

void BcsrFormat::declare(IndexLayout& layout) {
  declare_mapping(layout, "bcsr.box.rank", "bcsr.box.tiling");
  layout.scalar(point_count_);
  layout.array(block_row_ptr_);
  layout.array(block_col_);
  layout.array(block_bitmap_);
  layout.array(block_start_);
  // lookup() indexes block_row_ptr_[row / 8 + 1], then the block arrays
  // through it, and counts a slot from its block's start.
  const index_t n_block_rows = (rows_ + kBlockRows - 1) / kBlockRows;
  const index_t n_block_cols = (cols_ + kBlockCols - 1) / kBlockCols;
  layout.pointers("bcsr.structure", block_row_ptr_, n_block_rows,
                  block_col_.size());
  layout.equal("bcsr.structure", block_bitmap_.size(), block_col_.size());
  layout.equal("bcsr.structure", block_start_.size(), block_col_.size());
  layout.structural("bcsr.structure", [&]() -> std::string {
    index_t running = 0;
    for (std::size_t b = 0; b < block_bitmap_.size(); ++b) {
      if (block_start_[b] != running) {
        return "block " + std::to_string(b) + " starts at slot " +
               std::to_string(block_start_[b]) + ", not " +
               std::to_string(running);
      }
      running += static_cast<index_t>(std::popcount(block_bitmap_[b]));
    }
    if (running == point_count_) return {};
    return "bitmaps hold " + std::to_string(running) + " points, not " +
           std::to_string(point_count_);
  });

  layout.bounded("bcsr.block_col.range", block_col_, n_block_cols);
  // find_block() binary-searches block columns within a block row.
  layout.sorted_within("bcsr.block_col.sorted", block_col_, block_row_ptr_,
                       Order::kStrictlyAscending);
  layout.deep("bcsr.bitmap.empty", [&]() -> std::string {
    const auto it = std::find(block_bitmap_.begin(), block_bitmap_.end(), 0);
    if (it == block_bitmap_.end()) return {};
    return "block " + std::to_string(it - block_bitmap_.begin()) +
           " stores no points";
  });
  // Edge blocks may overhang the 2-D shape; occupied cells must not. A
  // block past the last block column is bcsr.block_col.range's witness.
  layout.deep("bcsr.bitmap.in_shape", [&]() -> std::string {
    for (index_t br = 0; br < n_block_rows; ++br) {
      for (std::size_t b = block_row_ptr_[br]; b < block_row_ptr_[br + 1];
           ++b) {
        if (block_col_[b] >= n_block_cols) continue;
        index_t bitmap = block_bitmap_[b];
        while (bitmap != 0) {
          const int bit = std::countr_zero(bitmap);
          bitmap &= bitmap - 1;
          const index_t row =
              br * kBlockRows + static_cast<index_t>(bit) / kBlockCols;
          const index_t col = block_col_[b] * kBlockCols +
                              static_cast<index_t>(bit) % kBlockCols;
          if (row >= rows_ || col >= cols_) {
            return "block " + std::to_string(b) + " occupies cell (" +
                   std::to_string(row) + ", " + std::to_string(col) +
                   ") outside " + std::to_string(rows_) + "x" +
                   std::to_string(cols_);
          }
        }
      }
    }
    return {};
  });
}

}  // namespace artsparse
