#include "core/box.hpp"

#include <algorithm>
#include <sstream>

#include "core/coords.hpp"
#include "core/error.hpp"

namespace artsparse {

Box::Box(std::vector<index_t> lo, std::vector<index_t> hi)
    : lo_(std::move(lo)), hi_(std::move(hi)) {
  detail::require(lo_.size() == hi_.size(), "box lo/hi rank mismatch");
  for (std::size_t i = 0; i < lo_.size(); ++i) {
    detail::require(lo_[i] <= hi_[i], "box lo must not exceed hi");
  }
}

Box Box::whole(const Shape& shape) {
  std::vector<index_t> lo(shape.rank(), 0);
  std::vector<index_t> hi(shape.rank());
  for (std::size_t i = 0; i < shape.rank(); ++i) {
    hi[i] = shape.extent(i) - 1;
  }
  return Box(std::move(lo), std::move(hi));
}

Box Box::from_origin_size(std::span<const index_t> origin,
                          std::span<const index_t> size) {
  detail::require(origin.size() == size.size(),
                  "region origin/size rank mismatch");
  std::vector<index_t> lo(origin.begin(), origin.end());
  std::vector<index_t> hi(origin.size());
  for (std::size_t i = 0; i < origin.size(); ++i) {
    detail::require(size[i] > 0, "region size must be positive");
    hi[i] = origin[i] + size[i] - 1;
  }
  return Box(std::move(lo), std::move(hi));
}

Box Box::bounding(const CoordBuffer& coords) {
  detail::require(!coords.empty(), "bounding box of empty coordinate buffer");
  // One pass over the flat buffer: entry k belongs to dimension k mod d.
  const std::size_t d = coords.rank();
  const std::span<const index_t> flat = coords.flat();
  std::vector<index_t> lo(flat.begin(), flat.begin() + d);
  std::vector<index_t> hi = lo;
  for (std::size_t k = d; k < flat.size(); k += d) {
    for (std::size_t dim = 0; dim < d; ++dim) {
      lo[dim] = std::min(lo[dim], flat[k + dim]);
      hi[dim] = std::max(hi[dim], flat[k + dim]);
    }
  }
  return Box(std::move(lo), std::move(hi));
}

Shape Box::shape() const {
  std::vector<index_t> extents(lo_.size());
  for (std::size_t i = 0; i < lo_.size(); ++i) {
    extents[i] = hi_[i] - lo_[i] + 1;
  }
  return Shape(std::move(extents));
}

bool Box::contains(const Box& other) const {
  if (other.rank() != rank() || empty() || other.empty()) return false;
  for (std::size_t i = 0; i < lo_.size(); ++i) {
    if (other.lo_[i] < lo_[i] || other.hi_[i] > hi_[i]) return false;
  }
  return true;
}

bool Box::overlaps(const Box& other) const {
  if (other.rank() != rank() || empty()) return false;
  for (std::size_t i = 0; i < lo_.size(); ++i) {
    if (other.hi_[i] < lo_[i] || other.lo_[i] > hi_[i]) return false;
  }
  return true;
}

Box Box::intersect(const Box& other) const {
  if (!overlaps(other)) return Box();
  std::vector<index_t> lo(rank());
  std::vector<index_t> hi(rank());
  for (std::size_t i = 0; i < rank(); ++i) {
    lo[i] = std::max(lo_[i], other.lo_[i]);
    hi[i] = std::min(hi_[i], other.hi_[i]);
  }
  return Box(std::move(lo), std::move(hi));
}

std::string Box::to_string() const {
  std::ostringstream out;
  out << '[';
  for (std::size_t i = 0; i < lo_.size(); ++i) {
    if (i != 0) out << ", ";
    out << lo_[i] << ".." << hi_[i];
  }
  out << ']';
  return out.str();
}

void enumerate_cells(const Box& box, CoordBuffer& out) {
  detail::require(out.rank() == box.rank(),
                  "output buffer rank does not match box rank");
  if (box.empty()) return;
  const std::size_t d = box.rank();
  std::vector<index_t> cursor(box.lo().begin(), box.lo().end());
  out.reserve(out.size() + static_cast<std::size_t>(box.cell_count()));
  while (true) {
    out.append(cursor);
    // Row-major increment: bump the last dimension, carry leftwards.
    std::size_t dim = d;
    while (dim-- > 0) {
      if (cursor[dim] < box.hi(dim)) {
        ++cursor[dim];
        break;
      }
      cursor[dim] = box.lo(dim);
      if (dim == 0) return;
    }
  }
}

}  // namespace artsparse
