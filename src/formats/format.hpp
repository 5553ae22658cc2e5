// SparseFormat: the common interface of the five storage organizations the
// paper studies (COO, LINEAR, GCSR++, GCSC++, CSF) plus the sorted-COO
// variant. A format owns only the *index* side of a fragment; values live in
// a parallel buffer ordered by the `map` permutation that build() returns
// (Algorithm 3: "reorganize b_data based on map if necessary").
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/box.hpp"
#include "core/coords.hpp"
#include "core/shape.hpp"
#include "core/types.hpp"
#include "storage/serializer.hpp"

namespace artsparse {

namespace check {
class Issues;  // check/issues.hpp
}
class IndexLayout;  // formats/layout.hpp

/// Sentinel slot for "point not present".
inline constexpr std::size_t kNotFound = std::numeric_limits<std::size_t>::max();

/// Abstract storage organization.
///
/// Lifecycle: construct empty -> build() from coordinates (write path), or
/// construct empty -> load() from a serialized index (read path). After
/// either, lookup()/read() resolve coordinates to value slots.
class SparseFormat {
 public:
  virtual ~SparseFormat() = default;

  SparseFormat(const SparseFormat&) = delete;
  SparseFormat& operator=(const SparseFormat&) = delete;

  virtual OrgKind kind() const = 0;

  /// Builds the organization from `coords`, which must all lie inside
  /// `shape` (the fragment's dense shape). Returns the paper's `map`
  /// vector: map[i] is the slot the i-th input point's value must occupy in
  /// the reorganized value buffer. Formats that do not sort (COO, LINEAR)
  /// return the identity.
  virtual std::vector<std::size_t> build(const CoordBuffer& coords,
                                         const Shape& shape) = 0;

  /// Resolves one coordinate to its value slot, or kNotFound. This is the
  /// per-point search of the paper's READ algorithms (linear scan for
  /// COO/LINEAR, row/column search for GCSR++/GCSC++, root-to-leaf descent
  /// for CSF).
  virtual std::size_t lookup(std::span<const index_t> point) const = 0;

  /// Bulk read: slot (or kNotFound) for every query point. The default
  /// loops lookup(); formats whose read algorithm amortizes work across
  /// queries (e.g. GCSR++'s one-pass coordinate transform) override it.
  virtual std::vector<std::size_t> read(const CoordBuffer& queries) const;

  /// Native region scan: appends every *stored* point lying inside `box`
  /// (its coordinates to `points`, its value slot to `slots`), in
  /// format-dependent order. Unlike read(), which pays one existence query
  /// per region *cell* (Algorithm 3's access pattern), a scan touches only
  /// stored entries — the optimization a production store ships for sparse
  /// regions. Implementations prune where their structure allows (CSF
  /// prunes whole subtrees, GCSR++/GCSC++ whole rows/columns).
  virtual void scan_box(const Box& box, CoordBuffer& points,
                        std::vector<std::size_t>& slots) const = 0;

  /// Serializes the index (the concatenated buffer `b` of Algorithms 1-2,
  /// plus whatever transform state reads need). Self-contained: load()
  /// on a fresh instance fully reconstructs the format.
  void save(BufferWriter& out) const;
  /// Reads all of `in`, as save() wrote it. Throws FormatError on leftover
  /// bytes, a flag other than 0 or 1, or the first structural rule broken
  /// ("<rule id>: ...").
  void load(BufferReader& in);

  /// Deep self-check: appends one Issue per deep rule broken (in-shape
  /// coordinates, sorted fibers, ...). O(n) or worse — run by paranoid
  /// loads and by `artsparse check`, not on the default hot path. A format
  /// that passes build() must come out clean.
  void check_invariants(check::Issues& issues) const;

  /// Runs check_invariants() and throws FormatError when anything failed.
  void validate() const;

  /// Size in bytes of the serialized index — the space cost the paper's
  /// Fig. 4 reports (values excluded; they are constant across formats).
  std::size_t index_bytes() const;

  /// Number of stored points.
  virtual std::size_t point_count() const = 0;

  /// Dense shape the format was built against.
  virtual const Shape& tensor_shape() const = 0;

  /// The points' bounding box when build() fitted one to them (GCSR++,
  /// GCSC++, BCSR), else null: the write path reuses it rather than make
  /// a second pass over the coordinates.
  virtual const Box* fitted_box() const { return nullptr; }

  /// Wall seconds the most recent build() spent deriving its sort
  /// permutation (key precompute + sort / counting pass); 0 for formats
  /// that do not sort or before any build. Feeds WriteBreakdown.build_sort
  /// so Table III can split Build into its parallelizable sort stage and
  /// the serial structure assembly.
  double last_build_sort_seconds() const { return build_sort_seconds_; }

 protected:
  SparseFormat() = default;

  /// The index's one declaration, which save(), load() and
  /// check_invariants() run: its fields in file order, then their
  /// relations, each under its rule id (formats/layout.hpp).
  virtual void declare(IndexLayout& layout) = 0;

  /// Set by sorting formats' build() around their permutation stage.
  double build_sort_seconds_ = 0.0;
};

/// Convenience: serializes the format into a fresh byte buffer.
Bytes serialize_format(const SparseFormat& format);

}  // namespace artsparse
