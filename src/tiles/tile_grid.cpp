#include "tiles/tile_grid.hpp"

#include "core/error.hpp"
#include "core/linearize.hpp"

namespace artsparse {

TileGrid::TileGrid(Shape tensor, Shape tile)
    : tensor_(std::move(tensor)), tile_(std::move(tile)) {
  detail::require(tensor_.rank() == tile_.rank(),
                  "tile rank does not match tensor rank");
  detail::require(tensor_.rank() > 0, "tile grid requires rank >= 1");
  std::vector<index_t> grid(tensor_.rank());
  for (std::size_t i = 0; i < tensor_.rank(); ++i) {
    detail::require(tile_.extent(i) <= tensor_.extent(i),
                    "tile extent exceeds tensor extent");
    grid[i] = (tensor_.extent(i) + tile_.extent(i) - 1) / tile_.extent(i);
  }
  grid_ = Shape(std::move(grid));
}

std::vector<index_t> TileGrid::tile_of(
    std::span<const index_t> point) const {
  detail::require(point.size() == tensor_.rank(),
                  "point rank does not match tensor rank");
  std::vector<index_t> tile(point.size());
  for (std::size_t i = 0; i < point.size(); ++i) {
    detail::require(point[i] < tensor_.extent(i),
                    "point outside tensor shape");
    tile[i] = point[i] / tile_.extent(i);
  }
  return tile;
}

index_t TileGrid::tile_id(std::span<const index_t> tile_coords) const {
  return linearize(tile_coords, grid_);
}

index_t TileGrid::tile_id_of(std::span<const index_t> point) const {
  return tile_id(tile_of(point));
}

}  // namespace artsparse
