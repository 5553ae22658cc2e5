#include "formats/sorted_coo.hpp"

#include <algorithm>

#include "core/linearize.hpp"
#include "core/sort.hpp"
#include "core/timer.hpp"
#include "formats/layout.hpp"

namespace artsparse {

std::vector<std::size_t> SortedCooFormat::build(const CoordBuffer& coords,
                                                const Shape& shape) {
  detail::require(coords.rank() == shape.rank(),
                  "coordinate rank does not match shape rank");
  shape_ = shape;
  build_sort_seconds_ = 0.0;
  // Lexicographic coordinate order equals ascending row-major address order,
  // so sorting by linear address gives the binary-searchable layout.
  WallTimer sort_timer;
  const std::vector<index_t> addresses = linearize_all(coords, shape);
  const std::vector<std::size_t> perm = parallel_sort_permutation(addresses);
  build_sort_seconds_ = sort_timer.seconds();
  coords_ = coords.permuted(perm);
  return invert_permutation(perm);
}

std::size_t SortedCooFormat::lookup(std::span<const index_t> point) const {
  const std::size_t d = coords_.rank();
  if (point.size() != d || coords_.empty()) return kNotFound;
  // Binary search on lexicographic coordinate order.
  std::size_t lo = 0;
  std::size_t hi = coords_.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const auto p = coords_.point(mid);
    if (std::lexicographical_compare(p.begin(), p.end(), point.begin(),
                                     point.end())) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < coords_.size()) {
    const auto p = coords_.point(lo);
    if (std::equal(p.begin(), p.end(), point.begin())) return lo;
  }
  return kNotFound;
}

void SortedCooFormat::scan_box(const Box& box, CoordBuffer& points,
                               std::vector<std::size_t>& slots) const {
  detail::require(box.rank() == shape_.rank(),
                  "scan box rank does not match tensor rank");
  if (coords_.empty()) return;
  // Lexicographic order lets the scan start at the box's smallest corner
  // and stop once points lexicographically exceed the largest corner.
  const auto lo = box.lo();
  const auto hi = box.hi();
  std::size_t first = 0;
  std::size_t last = coords_.size();
  while (first < last) {
    const std::size_t mid = first + (last - first) / 2;
    const auto p = coords_.point(mid);
    if (std::lexicographical_compare(p.begin(), p.end(), lo.begin(),
                                     lo.end())) {
      first = mid + 1;
    } else {
      last = mid;
    }
  }
  for (std::size_t i = first; i < coords_.size(); ++i) {
    const auto p = coords_.point(i);
    if (std::lexicographical_compare(hi.begin(), hi.end(), p.begin(),
                                     p.end())) {
      break;  // past the box's last corner: nothing further can match
    }
    if (box.contains(p)) {
      points.append(p);
      slots.push_back(i);
    }
  }
}

void SortedCooFormat::declare(IndexLayout& layout) {
  layout.shape(shape_);
  layout.coords(coords_);
  if (coords_.rank() != 0) {
    layout.equal("sorted_coo.rank", coords_.rank(), shape_.rank());
  }
  layout.bounded("sorted_coo.coords.in_shape", coords_.flat(), shape_.extents());
  // lookup() and scan_box() binary-search on lexicographic order; an
  // out-of-order pair silently turns present points into misses.
  layout.deep("sorted_coo.order", [&]() -> std::string {
    for (std::size_t i = 1; i < coords_.size(); ++i) {
      const auto a = coords_.point(i - 1);
      const auto b = coords_.point(i);
      if (std::lexicographical_compare(b.begin(), b.end(), a.begin(),
                                       a.end())) {
        return "points " + std::to_string(i - 1) + " and " +
               std::to_string(i) + " are out of lexicographic order";
      }
    }
    return {};
  });
}

}  // namespace artsparse
