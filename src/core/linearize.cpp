#include "core/linearize.hpp"

#include "core/error.hpp"
#include "core/parallel.hpp"

namespace artsparse {

index_t linearize(std::span<const index_t> point, const Shape& shape) {
  detail::require(point.size() == shape.rank(),
                  "point rank does not match shape rank");
  const auto strides = shape.strides();
  index_t address = 0;
  for (std::size_t i = 0; i < point.size(); ++i) {
    detail::require(point[i] < shape.extent(i),
                    "coordinate outside tensor shape");
    address += point[i] * strides[i];
  }
  return address;
}

void delinearize(index_t address, const Shape& shape,
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

index_t linearize_col_major(std::span<const index_t> point,
                            const Shape& shape) {
  detail::require(point.size() == shape.rank(),
                  "point rank does not match shape rank");
  index_t address = 0;
  index_t stride = 1;
  for (std::size_t i = 0; i < point.size(); ++i) {
    detail::require(point[i] < shape.extent(i),
                    "coordinate outside tensor shape");
    address += point[i] * stride;
    stride *= shape.extent(i);
  }
  return address;
}

std::vector<index_t> linearize_all(const CoordBuffer& coords,
                                   const Shape& shape) {
  std::vector<index_t> addresses(coords.size());
  // Each point's address is independent: chunked across workers for large
  // batches, inline below the grain size.
  parallel_transform(coords.size(), addresses, [&](std::size_t i) {
    return linearize(coords.point(i), shape);
  });
  return addresses;
}

index_t linearize_local(std::span<const index_t> point, const Box& box) {
  detail::require(point.size() == box.rank(),
                  "point rank does not match box rank");
  detail::require(box.contains(point), "point outside local bounding box");
  box.cell_count();  // Box::shape()'s checks, without building the Shape
  const auto lo = box.lo();
  const auto hi = box.hi();
  // Horner form of sum (p_i - lo_i) * stride_i: every partial sum is below
  // the cell count just checked, so none can wrap.
  index_t address = 0;
  for (std::size_t i = 0; i < point.size(); ++i) {
    address = address * (hi[i] - lo[i] + 1) + (point[i] - lo[i]);
  }
  return address;
}

void delinearize_local(index_t address, const Box& box,
                       std::span<index_t> out) {
  const index_t cells = box.cell_count();
  detail::require(out.size() == box.rank(),
                  "output rank does not match shape rank");
  detail::require(address < cells, "linear address outside tensor shape");
  const auto lo = box.lo();
  const auto hi = box.hi();
  for (std::size_t i = out.size(); i-- > 0;) {
    const index_t extent = hi[i] - lo[i] + 1;
    out[i] = lo[i] + address % extent;
    address /= extent;
  }
}

}  // namespace artsparse
