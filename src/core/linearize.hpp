// Row-major linearization of coordinates — the transform at the heart of
// the LINEAR organization (Section II-B) and of the GCSR++/GCSC++ d-D ->
// 2-D mapping (Algorithm 1 lines 8-9).
//
// For a point (c_1, ..., c_d) in a tensor of extents (m_1, ..., m_d), the
// row-major linear address is sum_i c_i * prod_{j>i} m_j.
//
// These run once per point on every build, scan and read, so they live
// here, inline, each with its own checks. A loop over many points of one
// box makes the box's checks once and calls the detail:: forms, which
// check nothing.
#pragma once

#include <span>

#include "core/box.hpp"
#include "core/coords.hpp"
#include "core/error.hpp"
#include "core/shape.hpp"
#include "core/types.hpp"

namespace artsparse {

namespace detail {

/// linearize_local() without its checks: every point[i] must lie in
/// [box.lo(i), box.hi(i)] and box.cell_count() must not throw. Horner form
/// of sum (p_i - lo_i) * stride_i: every partial sum is below the cell
/// count, so none can wrap.
inline index_t local_address(std::span<const index_t> point, const Box& box) {
  const auto lo = box.lo();
  const auto hi = box.hi();
  index_t address = 0;
  for (std::size_t i = 0; i < lo.size(); ++i) {
    address = address * (hi[i] - lo[i] + 1) + (point[i] - lo[i]);
  }
  return address;
}

/// delinearize_local() without its checks: `address` must be below
/// box.cell_count() and `out` must have box.rank() entries.
inline void local_point(index_t address, const Box& box,
                        std::span<index_t> out) {
  const auto lo = box.lo();
  const auto hi = box.hi();
  for (std::size_t i = lo.size(); i-- > 0;) {
    const index_t extent = hi[i] - lo[i] + 1;
    out[i] = lo[i] + address % extent;
    address /= extent;
  }
}

}  // namespace detail

/// Row-major linear address of `point` within `shape`. Throws FormatError if
/// the point lies outside the shape and OverflowError if the address space
/// itself overflows (detected at Shape construction).
inline index_t linearize(std::span<const index_t> point, const Shape& shape) {
  detail::require(point.size() == shape.rank(),
                  "point rank does not match shape rank");
  const auto extents = shape.extents();
  const auto strides = shape.strides();
  index_t address = 0;
  for (std::size_t i = 0; i < point.size(); ++i) {
    detail::require(point[i] < extents[i], "coordinate outside tensor shape");
    address += point[i] * strides[i];
  }
  return address;
}

/// Inverse of linearize(): writes the coordinates of `address` into `out`
/// (length shape.rank()).
inline void delinearize(index_t address, const Shape& shape,
                        std::span<index_t> out) {
  detail::require(out.size() == shape.rank(),
                  "output rank does not match shape rank");
  detail::require(address < shape.element_count(),
                  "linear address outside tensor shape");
  const auto strides = shape.strides();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = address / strides[i];
    address %= strides[i];
  }
}

/// Linearizes every point of `coords` against `shape`; returns n addresses.
std::vector<index_t> linearize_all(const CoordBuffer& coords,
                                   const Shape& shape);

/// Block-local addressing: linearizes `point` relative to a bounding box
/// (subtract box.lo, use the box's dense shape). This is the paper's remedy
/// for address overflow on extremely large tensors — "use local boundary of
/// each block to perform the transform".
inline index_t linearize_local(std::span<const index_t> point,
                               const Box& box) {
  detail::require(point.size() == box.rank(),
                  "point rank does not match box rank");
  detail::require(box.contains(point), "point outside local bounding box");
  box.cell_count();  // Box::shape()'s checks, without building the Shape
  return detail::local_address(point, box);
}

/// linearize_local() of every point of `coords`, calling fn(i, address)
/// for point i: the box's checks run once, each point keeps only its
/// inside-box test.
template <typename Fn>
void for_each_local_address(const CoordBuffer& coords, const Box& box,
                            Fn&& fn) {
  detail::require(coords.rank() == box.rank(),
                  "point rank does not match box rank");
  box.cell_count();
  const std::size_t d = box.rank();
  const std::span<const index_t> flat = coords.flat();
  for (std::size_t i = 0; i < coords.size(); ++i) {
    const std::span<const index_t> point = flat.subspan(i * d, d);
    detail::require(box.contains(point), "point outside local bounding box");
    fn(i, detail::local_address(point, box));
  }
}

/// Inverse of linearize_local().
inline void delinearize_local(index_t address, const Box& box,
                              std::span<index_t> out) {
  const index_t cells = box.cell_count();
  detail::require(out.size() == box.rank(),
                  "output rank does not match shape rank");
  detail::require(address < cells, "linear address outside tensor shape");
  detail::local_point(address, box, out);
}

}  // namespace artsparse
