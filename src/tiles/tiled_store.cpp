#include "tiles/tiled_store.hpp"

#include "core/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace artsparse {

TiledStore::TiledStore(std::filesystem::path directory, TileGrid grid,
                       TilePolicy policy, DeviceModel model, CodecKind codec,
                       std::shared_ptr<FragmentCache> cache)
    : grid_(std::move(grid)),
      policy_(policy),
      store_(std::move(directory), grid_.tensor_shape(), model, codec,
             std::move(cache)) {}

TiledWriteResult TiledStore::write(const CoordBuffer& coords,
                                   std::span<const value_t> values) {
  detail::require(coords.size() == values.size(),
                  "coordinate and value counts differ");
  TiledWriteResult result;
  result.point_count = coords.size();

  ARTSPARSE_SPAN_TYPE write_span("tiled.write", "tiled");
  write_span.attr("points", static_cast<std::uint64_t>(coords.size()));

  // Bucket points by tile id.
  std::map<index_t, std::vector<std::size_t>> buckets;
  for (std::size_t i = 0; i < coords.size(); ++i) {
    buckets[grid_.tile_id_of(coords.point(i))].push_back(i);
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

    OrgKind org = policy_.org;
    if (policy_.automatic) {
      const SparsityProfile profile =
          profile_sparsity(tile_coords, grid_.tensor_shape());
      org = recommend_organization(profile, policy_.weights,
                                   policy_.queries_per_write)
                .best()
                .org;
    }

    const WriteResult written = store_.write(tile_coords, tile_values, org);
    ++result.tiles_written;
    result.file_bytes += written.file_bytes;
    result.index_bytes += written.index_bytes;
    result.times.build += written.times.build;
    result.times.build_sort += written.times.build_sort;
    result.times.reorg += written.times.reorg;
    result.times.write += written.times.write;
    result.times.others += written.times.others;
    result.times.io_attempts += written.times.io_attempts;
    result.times.io_retries += written.times.io_retries;
    result.times.backoff += written.times.backoff;
    result.tile_orgs[tile] = org;
  }
  write_span.attr("tiles", static_cast<std::uint64_t>(result.tiles_written));
  ARTSPARSE_COUNT("artsparse_tiled_writes_total", 1);
  ARTSPARSE_COUNT("artsparse_tiled_tiles_written_total",
                  result.tiles_written);
  return result;
}

}  // namespace artsparse
