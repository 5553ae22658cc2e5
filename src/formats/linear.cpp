#include "formats/linear.hpp"

#include <numeric>

#include "check/issues.hpp"
#include "core/linearize.hpp"

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

void LinearFormat::save(BufferWriter& out) const {
  out.put_u8(static_cast<std::uint8_t>(addressing_));
  out.put_u64_vec(shape_.extents());
  if (addressing_ == LinearAddressing::kLocal) {
    out.put_u8(local_box_.empty() ? 0 : 1);
    if (!local_box_.empty()) {
      out.put_u64_vec(local_box_.lo());
      out.put_u64_vec(local_box_.hi());
    }
  }
  out.put_u64_vec(addresses_);
}

void LinearFormat::load(BufferReader& in) {
  addressing_ = static_cast<LinearAddressing>(in.get_u8());
  detail::require(addressing_ == LinearAddressing::kGlobal ||
                      addressing_ == LinearAddressing::kLocal,
                  "bad LINEAR addressing flag");
  shape_ = Shape(in.get_u64_vec());
  local_box_ = Box();
  if (addressing_ == LinearAddressing::kLocal && in.get_u8() != 0) {
    auto lo = in.get_u64_vec();
    auto hi = in.get_u64_vec();
    local_box_ = Box(std::move(lo), std::move(hi));
    detail::require(local_box_.rank() == shape_.rank(),
                    "LINEAR local box rank does not match shape rank");
  }
  addresses_ = in.get_u64_vec();
}

void LinearFormat::check_invariants(check::Issues& issues) const {
  if (addressing_ == LinearAddressing::kLocal) {
    if (!local_box_.empty() && local_box_.rank() != shape_.rank()) {
      issues.add("linear.box.rank",
                 "local box rank " + std::to_string(local_box_.rank()) +
                     " != shape rank " + std::to_string(shape_.rank()));
      return;
    }
    if (local_box_.empty() && !addresses_.empty()) {
      issues.add("linear.box.missing",
                 "local addressing with " +
                     std::to_string(addresses_.size()) +
                     " addresses but no local box");
      return;
    }
  }
  // Addresses past the address space delinearize to out-of-shape points.
  const index_t space = addressing_ == LinearAddressing::kLocal
                            ? (local_box_.empty()
                                   ? 0
                                   : local_box_.shape().element_count())
                            : shape_.element_count();
  for (std::size_t i = 0; i < addresses_.size(); ++i) {
    if (addresses_[i] >= space) {
      issues.add("linear.addresses.bounded",
                 "address " + std::to_string(addresses_[i]) + " at slot " +
                     std::to_string(i) + " >= address space " +
                     std::to_string(space));
      break;
    }
  }
}

}  // namespace artsparse
