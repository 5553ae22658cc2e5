#include "core/shape.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "core/error.hpp"

namespace artsparse {

namespace {

/// a * b with overflow detection.
index_t checked_mul(index_t a, index_t b) {
  if (a != 0 && b > std::numeric_limits<index_t>::max() / a) {
    throw OverflowError("shape element count overflows 64-bit index space");
  }
  return a * b;
}

}  // namespace

Shape::Shape(std::vector<index_t> extents) : extents_(std::move(extents)) {
  init();
}

Shape::Shape(std::initializer_list<index_t> extents)
    : extents_(extents) {
  init();
}

void Shape::init() {
  for (index_t e : extents_) {
    detail::require(e > 0, "shape extents must be positive");
  }
  strides_.assign(extents_.size(), 1);
  element_count_ = extents_.empty() ? 0 : 1;
  for (std::size_t i = extents_.size(); i-- > 0;) {
    if (i + 1 < extents_.size()) {
      strides_[i] = checked_mul(strides_[i + 1], extents_[i + 1]);
    }
    element_count_ = checked_mul(element_count_, extents_[i]);
  }
}

index_t Shape::min_extent() const {
  detail::require(!extents_.empty(), "min_extent() on empty shape");
  return *std::min_element(extents_.begin(), extents_.end());
}

std::size_t Shape::min_extent_dim() const {
  detail::require(!extents_.empty(), "min_extent_dim() on empty shape");
  return static_cast<std::size_t>(
      std::min_element(extents_.begin(), extents_.end()) - extents_.begin());
}

Flat2D Shape::flatten_2d() const {
  detail::require(!extents_.empty(), "flatten_2d() on empty shape");
  Flat2D flat;
  flat.min_dim = min_extent_dim();
  flat.rows = extents_[flat.min_dim];
  flat.cols = 1;
  for (std::size_t i = 0; i < extents_.size(); ++i) {
    if (i != flat.min_dim) {
      flat.cols = checked_mul(flat.cols, extents_[i]);
    }
  }
  return flat;
}

Shape Shape::uniform(std::size_t rank, index_t extent) {
  return Shape(std::vector<index_t>(rank, extent));
}

std::string Shape::to_string() const {
  std::ostringstream out;
  out << '(';
  for (std::size_t i = 0; i < extents_.size(); ++i) {
    if (i != 0) out << " x ";
    out << extents_[i];
  }
  out << ')';
  return out.str();
}

}  // namespace artsparse
