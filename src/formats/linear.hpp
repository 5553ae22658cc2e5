// LINEAR — linearized-address organization (Section II-B).
//
// Each point's coordinates are transformed into a single row-major linear
// address, spending O(n * d) build time to shrink the index from O(n * d)
// words (COO) to O(n). Reads remain a full scan: addresses are stored in
// input order, unsorted, matching the paper's "non-sorted" choice, so the
// read bound is O(n * n_read).
//
// Addressing is either global (against the fragment's dense shape, the
// default) or block-local (against the points' bounding box) — the latter is
// the paper's remedy for address overflow on extremely large tensors.
#pragma once

#include "formats/format.hpp"

namespace artsparse {

/// Which shape the linear addresses are computed against.
enum class LinearAddressing : std::uint8_t {
  kGlobal = 0,  ///< addresses within the fragment's dense shape
  kLocal = 1,   ///< addresses within the points' bounding box
};

class LinearFormat final : public SparseFormat {
 public:
  explicit LinearFormat(LinearAddressing addressing = LinearAddressing::kGlobal)
      : addressing_(addressing) {}

  OrgKind kind() const override { return OrgKind::kLinear; }

  std::vector<std::size_t> build(const CoordBuffer& coords,
                                 const Shape& shape) override;

  std::size_t lookup(std::span<const index_t> point) const override;

  void scan_box(const Box& box, CoordBuffer& points,
                std::vector<std::size_t>& slots) const override;

  std::size_t point_count() const override { return addresses_.size(); }
  const Shape& tensor_shape() const override { return shape_; }

  LinearAddressing addressing() const { return addressing_; }

  /// Stored linear addresses, in input order.
  std::span<const index_t> addresses() const { return addresses_; }

 protected:
  void declare(IndexLayout& layout) override;

 private:
  /// Address of `point` under the configured addressing, or kNotFound-like
  /// miss signal via the bool when the point cannot have an address (e.g.
  /// outside the local box).
  bool address_of(std::span<const index_t> point, index_t& out) const;

  LinearAddressing addressing_ = LinearAddressing::kGlobal;
  Shape shape_;
  Box local_box_;  ///< populated when addressing_ == kLocal
  std::vector<index_t> addresses_;
};

}  // namespace artsparse
