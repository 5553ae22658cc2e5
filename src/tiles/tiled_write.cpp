#include "tiles/tiled_write.hpp"

#include "advisor/advisor.hpp"
#include "core/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace artsparse {

TiledWriteResult write_tiled(FragmentStore& store, const TileGrid& grid,
                             const CoordBuffer& coords,
                             std::span<const value_t> values,
                             std::optional<OrgKind> org) {
  detail::require(coords.size() == values.size(),
                  "coordinate and value counts differ");
  detail::require(grid.tensor_shape() == store.tensor_shape(),
                  "tile grid does not decompose the store's tensor shape");
  TiledWriteResult result;
  result.point_count = coords.size();

  ARTSPARSE_SPAN_TYPE write_span("tiled.write", "tiled");
  write_span.attr("points", static_cast<std::uint64_t>(coords.size()));

  // Bucket points by tile id.
  std::map<index_t, std::vector<std::size_t>> buckets;
  for (std::size_t i = 0; i < coords.size(); ++i) {
    buckets[grid.tile_id_of(coords.point(i))].push_back(i);
  }

  for (const auto& [tile, members] : buckets) {
    CoordBuffer tile_coords(coords.rank());
    std::vector<value_t> tile_values;
    tile_coords.reserve(members.size());
    tile_values.reserve(members.size());
    for (std::size_t i : members) {
      tile_coords.append(coords.point(i));
      tile_values.push_back(values[i]);
    }

    const OrgKind chosen =
        choose_organization(org, tile_coords, grid.tensor_shape());
    const WriteResult written = store.write(tile_coords, tile_values, chosen);
    ++result.tiles_written;
    result.file_bytes += written.file_bytes;
    result.tile_orgs[tile] = chosen;
  }
  write_span.attr("tiles", static_cast<std::uint64_t>(result.tiles_written));
  ARTSPARSE_COUNT("artsparse_tiled_writes_total", 1);
  ARTSPARSE_COUNT("artsparse_tiled_tiles_written_total",
                  result.tiles_written);
  return result;
}

}  // namespace artsparse
