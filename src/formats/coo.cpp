#include "formats/coo.hpp"

#include <algorithm>
#include <numeric>

#include "formats/layout.hpp"

namespace artsparse {

std::vector<std::size_t> CooFormat::build(const CoordBuffer& coords,
                                          const Shape& shape) {
  detail::require(coords.rank() == shape.rank(),
                  "coordinate rank does not match shape rank");
  shape_ = shape;
  coords_ = coords;
  // COO keeps input order: the map is the identity permutation.
  std::vector<std::size_t> map(coords.size());
  std::iota(map.begin(), map.end(), std::size_t{0});
  return map;
}

std::size_t CooFormat::lookup(std::span<const index_t> point) const {
  // Unsorted list: the only option is a full scan (O(n) per query).
  const std::size_t d = coords_.rank();
  if (point.size() != d) return kNotFound;
  for (std::size_t i = 0; i < coords_.size(); ++i) {
    const auto p = coords_.point(i);
    if (std::equal(p.begin(), p.end(), point.begin())) {
      return i;
    }
  }
  return kNotFound;
}

void CooFormat::scan_box(const Box& box, CoordBuffer& points,
                         std::vector<std::size_t>& slots) const {
  detail::require(box.rank() == shape_.rank(),
                  "scan box rank does not match tensor rank");
  // Unsorted list: every stored point must be tested.
  for (std::size_t i = 0; i < coords_.size(); ++i) {
    const auto p = coords_.point(i);
    if (box.contains(p)) {
      points.append(p);
      slots.push_back(i);
    }
  }
}

void CooFormat::declare(IndexLayout& layout) {
  layout.shape(shape_);
  layout.coords(coords_);
  if (coords_.rank() != 0) {
    layout.equal("coo.rank", coords_.rank(), shape_.rank());
  }
  layout.bounded("coo.coords.in_shape", coords_.flat(), shape_.extents());
}

}  // namespace artsparse
