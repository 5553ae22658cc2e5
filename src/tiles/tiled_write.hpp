// Tiled write: block-decomposed fragment storage in an ordinary
// FragmentStore. A batch is split by tile and each non-empty tile becomes
// its own fragment whose bounding box lies inside the tile, so region reads
// prune whole tiles via the store's bounding-box discovery. The
// organization per tile is either fixed or chosen per tile by the advisor's
// cost model from that tile's own sparsity profile (the paper's future
// work, applied at block granularity — different regions of one tensor can
// genuinely prefer different organizations, e.g. MSP's dense block vs its
// random background).
#pragma once

#include <map>
#include <optional>

#include "storage/fragment_store.hpp"
#include "tiles/tile_grid.hpp"

namespace artsparse {

/// Per-write accounting, aggregated over the tiles the batch touched.
struct TiledWriteResult {
  std::size_t tiles_written = 0;
  std::size_t point_count = 0;
  std::size_t file_bytes = 0;
  /// Organization chosen per tile id (what the advisor decided).
  std::map<index_t, OrgKind> tile_orgs;
};

/// Splits the batch by tile of `grid` and writes one fragment per non-empty
/// tile to `store`, in tile-id order. Each tile is written in `org`, or,
/// when unset, in what choose_organization() picks for that tile's points.
/// `grid` must decompose the store's tensor shape.
TiledWriteResult write_tiled(FragmentStore& store, const TileGrid& grid,
                             const CoordBuffer& coords,
                             std::span<const value_t> values,
                             std::optional<OrgKind> org);

}  // namespace artsparse
