// TiledStore: block-decomposed fragment storage. Incoming batches are
// split by tile; each non-empty tile becomes its own fragment whose
// bounding box lies inside the tile, so region reads prune whole tiles via
// the store's bounding-box discovery. The organization per tile is either
// fixed or chosen per tile by the advisor's cost model from that tile's
// own sparsity profile (the paper's future work, applied at block
// granularity — different regions of one tensor can genuinely prefer
// different organizations, e.g. MSP's dense block vs its random background).
#pragma once

#include <map>
#include <optional>

#include "advisor/advisor.hpp"
#include "storage/fragment_store.hpp"
#include "tiles/tile_grid.hpp"

namespace artsparse {

/// How the per-tile organization is chosen.
struct TilePolicy {
  /// Fixed organization for every tile; ignored when `automatic`.
  OrgKind org = OrgKind::kGcsr;
  /// Choose per tile via the advisor cost model.
  bool automatic = false;
  /// Advisor inputs when automatic.
  WorkloadWeights weights = WorkloadWeights::balanced();
  double queries_per_write = 1.0;

  static TilePolicy fixed(OrgKind org) { return TilePolicy{org, false, {}, 1.0}; }
  static TilePolicy advisor(WorkloadWeights weights =
                                WorkloadWeights::balanced(),
                            double queries_per_write = 1.0) {
    return TilePolicy{OrgKind::kGcsr, true, weights, queries_per_write};
  }
};

/// Per-write accounting, aggregated over the tiles the batch touched.
struct TiledWriteResult {
  std::size_t tiles_written = 0;
  std::size_t point_count = 0;
  std::size_t file_bytes = 0;
  std::size_t index_bytes = 0;
  WriteBreakdown times;  ///< summed across tiles
  /// Organization chosen per tile id (what the advisor decided).
  std::map<index_t, OrgKind> tile_orgs;
};

class TiledStore {
 public:
  /// `cache` as in FragmentStore: tiled reads resolve their per-tile
  /// fragments through the same OpenFragment layer; pass a shared instance
  /// to pool one byte budget across stores, or null for a private cache.
  TiledStore(std::filesystem::path directory, TileGrid grid,
             TilePolicy policy = TilePolicy::fixed(OrgKind::kGcsr),
             DeviceModel model = DeviceModel::unthrottled(),
             CodecKind codec = CodecKind::kIdentity,
             std::shared_ptr<FragmentCache> cache = nullptr);

  /// Splits the batch by tile and writes one fragment per non-empty tile.
  TiledWriteResult write(const CoordBuffer& coords,
                         std::span<const value_t> values);

  /// Region read; fragments from non-overlapping tiles are never opened.
  ReadResult read_region(const Box& region) const {
    return store_.read_region(region);
  }

  /// Region read via native box scans (see FragmentStore::scan_region).
  ReadResult scan_region(const Box& region) const {
    return store_.scan_region(region);
  }

  /// Point-set read (Algorithm 3 READ semantics).
  ReadResult read(const CoordBuffer& queries) const {
    return store_.read(queries);
  }

  /// Region read restricted to values inside `range` (predicate pushdown;
  /// see FragmentStore::scan_region_where).
  ReadResult scan_region_where(const Box& region,
                               const ValueRange& range) const {
    return store_.scan_region_where(region, range);
  }

  const TileGrid& grid() const { return grid_; }
  std::size_t fragment_count() const { return store_.fragment_count(); }
  std::size_t total_file_bytes() const { return store_.total_file_bytes(); }

  /// Commit retry schedule, forwarded to the inner store (see
  /// FragmentStore::set_retry_policy). Per-tile attempt/retry counters are
  /// summed into TiledWriteResult::times.
  void set_retry_policy(const RetryPolicy& policy) {
    store_.set_retry_policy(policy);
  }
  RetryPolicy retry_policy() const { return store_.retry_policy(); }

  /// Read-side degradation policy, forwarded to the inner store (see
  /// FragmentStore::set_read_fault_policy).
  void set_read_fault_policy(ReadFaultPolicy policy) {
    store_.set_read_fault_policy(policy);
  }
  ReadFaultPolicy read_fault_policy() const {
    return store_.read_fault_policy();
  }

  /// Recovery sweep results of the inner store's last open()/rescan().
  check::StoreReport last_scan() const { return store_.last_scan(); }

  /// The open-fragment cache tiled reads resolve through.
  FragmentCache& cache() const { return store_.cache(); }

  /// Batched box scans against one pinned generation (see
  /// Snapshot::scan_batch); each touched fragment decodes at most once.
  std::vector<ReadResult> scan_batch(std::span<const Box> regions) const {
    return store_.snapshot().scan_batch(regions);
  }

  /// The inner FragmentStore, for layers (service core, fsck, benches)
  /// that need snapshots, generations, or consolidation on a tiled store.
  FragmentStore& store() { return store_; }
  const FragmentStore& store() const { return store_; }

 private:
  TileGrid grid_;
  TilePolicy policy_;
  FragmentStore store_;
};

}  // namespace artsparse
