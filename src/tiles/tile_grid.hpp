// Uniform tile decomposition of a tensor. The paper invokes blocks twice:
// as the practical remedy for linear-address overflow ("break large tensors
// into small blocks ... use local boundary of each block to perform the
// transform") and as what spatial hashes / R-trees index ("blocks of
// points" whose interiors a sparse organization represents). TileGrid is
// that decomposition: pure coordinate math, no storage.
#pragma once

#include <span>
#include <vector>

#include "core/shape.hpp"

namespace artsparse {

class TileGrid {
 public:
  TileGrid() = default;

  /// Decomposes `tensor` into tiles of `tile` extents (the trailing tiles
  /// are clipped to the tensor boundary). Tile extents must be positive
  /// and no larger than the tensor's.
  TileGrid(Shape tensor, Shape tile);

  const Shape& tensor_shape() const { return tensor_; }
  const Shape& tile_shape() const { return tile_; }

  /// Number of tiles along each dimension (ceil division).
  const Shape& grid_shape() const { return grid_; }

  /// Total number of tiles.
  index_t tile_count() const { return grid_.element_count(); }

  /// Tile coordinates of the tile containing `point`.
  std::vector<index_t> tile_of(std::span<const index_t> point) const;

  /// Row-major tile id (stable naming for fragments and directories).
  index_t tile_id(std::span<const index_t> tile_coords) const;
  index_t tile_id_of(std::span<const index_t> point) const;

 private:
  Shape tensor_;
  Shape tile_;
  Shape grid_;
};

}  // namespace artsparse
