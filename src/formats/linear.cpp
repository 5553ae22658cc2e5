#include "formats/linear.hpp"

#include <numeric>

#include "core/linearize.hpp"
#include "formats/layout.hpp"

namespace artsparse {

std::vector<std::size_t> LinearFormat::build(const CoordBuffer& coords,
                                             const Shape& shape) {
  detail::require(coords.rank() == shape.rank(),
                  "coordinate rank does not match shape rank");
  shape_ = shape;
  if (addressing_ == LinearAddressing::kLocal && !coords.empty()) {
    local_box_ = Box::bounding(coords);
  } else {
    local_box_ = Box();
  }

  addresses_.resize(coords.size());
  if (local_box_.empty()) {
    for (std::size_t i = 0; i < addresses_.size(); ++i) {
      addresses_[i] = linearize(coords.point(i), shape_);
    }
  } else {
    for_each_local_address(coords, local_box_,
                           [&](std::size_t i, index_t address) {
                             addresses_[i] = address;
                           });
  }
  // LINEAR keeps input order: identity map.
  std::vector<std::size_t> map(coords.size());
  std::iota(map.begin(), map.end(), std::size_t{0});
  return map;
}

bool LinearFormat::address_of(std::span<const index_t> point,
                              index_t& out) const {
  if (point.size() != shape_.rank()) return false;
  if (addressing_ == LinearAddressing::kLocal) {
    if (local_box_.empty() || !local_box_.contains(point)) return false;
    out = linearize_local(point, local_box_);
    return true;
  }
  for (std::size_t i = 0; i < point.size(); ++i) {
    if (point[i] >= shape_.extent(i)) return false;
  }
  out = linearize(point, shape_);
  return true;
}

std::size_t LinearFormat::lookup(std::span<const index_t> point) const {
  index_t target = 0;
  if (!address_of(point, target)) return kNotFound;
  // Unsorted address list: full scan, O(n) per query.
  for (std::size_t i = 0; i < addresses_.size(); ++i) {
    if (addresses_[i] == target) return i;
  }
  return kNotFound;
}

void LinearFormat::scan_box(const Box& box, CoordBuffer& points,
                            std::vector<std::size_t>& slots) const {
  detail::require(box.rank() == shape_.rank(),
                  "scan box rank does not match tensor rank");
  // Delinearize each stored address and test it, pre-filtering by the
  // box's [min address, max address] window (the box's corners bound the
  // addresses of every cell inside it).
  if (addressing_ == LinearAddressing::kLocal) {
    if (local_box_.empty() || !local_box_.overlaps(box)) return;
    const Box clipped = box.intersect(local_box_);
    const index_t lo = linearize_local(clipped.lo(), local_box_);
    const index_t hi = linearize_local(clipped.hi(), local_box_);
    std::vector<index_t> point(shape_.rank());
    for (std::size_t i = 0; i < addresses_.size(); ++i) {
      if (addresses_[i] < lo || addresses_[i] > hi) continue;
      // Inside the window, so below the cell count linearize_local checked.
      detail::local_point(addresses_[i], local_box_, point);
      if (box.contains(point)) {
        points.append(point);
        slots.push_back(i);
      }
    }
    return;
  }
  const Box whole = Box::whole(shape_);
  if (!whole.overlaps(box)) return;
  const Box clipped = box.intersect(whole);
  const index_t lo = linearize(clipped.lo(), shape_);
  const index_t hi = linearize(clipped.hi(), shape_);
  std::vector<index_t> point(shape_.rank());
  for (std::size_t i = 0; i < addresses_.size(); ++i) {
    if (addresses_[i] < lo || addresses_[i] > hi) continue;
    delinearize(addresses_[i], shape_, point);
    if (box.contains(point)) {
      points.append(point);
      slots.push_back(i);
    }
  }
}

void LinearFormat::declare(IndexLayout& layout) {
  layout.flag(addressing_);
  layout.shape(shape_);
  const bool local = addressing_ == LinearAddressing::kLocal;
  if (local) layout.box(local_box_);
  layout.array(addresses_);
  if (!local_box_.empty()) {
    layout.equal("linear.box.rank", local_box_.rank(), shape_.rank());
  }

  layout.deep("linear.box.missing", [&]() -> std::string {
    if (!local || !local_box_.empty() || addresses_.empty()) return {};
    return "local addressing with " + std::to_string(addresses_.size()) +
           " addresses but no local box";
  });
  // Addresses past the address space delinearize to out-of-shape points.
  // Without a local box there is no space: linear.box.missing says so.
  if (local && local_box_.empty()) return;
  layout.deep("linear.addresses.bounded", [&] {
    const index_t space =
        local ? local_box_.cell_count() : shape_.element_count();
    return IndexLayout::unbounded(addresses_, std::span(&space, 1));
  });
}

}  // namespace artsparse
