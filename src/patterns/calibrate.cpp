#include "patterns/calibrate.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace artsparse {

namespace {

double tsp_density(const Shape& shape, index_t half_width) {
  return static_cast<double>(tsp_cell_count(shape, half_width)) /
         static_cast<double>(shape.element_count());
}

}  // namespace

index_t tsp_cell_count(const Shape& shape, index_t half_width) {
  // Group the band's cells by their smallest coordinate a. Such a cell has
  // every coordinate in [a, top_i], top_i = min(a + w, m_i - 1), and at
  // least one equal to a: the box [a, top] minus the box [a + 1, top].
  // Both boxes lie inside the shape, so no product overflows.
  index_t count = 0;
  for (index_t a = 0; a < shape.min_extent(); ++a) {
    index_t with_a = 1;
    index_t above_a = 1;
    for (std::size_t i = 0; i < shape.rank(); ++i) {
      const index_t last = shape.extent(i) - 1;  // >= a
      const index_t top = half_width < last - a ? a + half_width : last;
      with_a *= top - a + 1;
      above_a *= top - a;
    }
    count += with_a - above_a;
  }
  return count;
}

TspConfig calibrate_tsp(const Shape& shape, double target_density) {
  detail::require(target_density > 0.0 && target_density <= 1.0,
                  "target density must lie in (0, 1]");
  const index_t max_width = shape.min_extent() - 1;

  // Exponential search for an upper bound...
  index_t hi = 1;
  while (hi < max_width && tsp_density(shape, hi) < target_density) {
    hi = std::min<index_t>(hi * 2, max_width);
  }
  if (tsp_density(shape, hi) < target_density) {
    return TspConfig{max_width};  // even the full band falls short
  }
  // ...then binary search for the smallest sufficient width.
  index_t lo = 0;
  while (lo + 1 < hi) {
    const index_t mid = lo + (hi - lo) / 2;
    if (tsp_density(shape, mid) < target_density) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return TspConfig{hi};
}

GspConfig calibrate_gsp(double target_density) {
  detail::require(target_density >= 0.0 && target_density <= 1.0,
                  "target density must lie in [0, 1]");
  return GspConfig{target_density};
}

MspConfig calibrate_msp(const Shape& shape, double target_density,
                        double background_probability) {
  detail::require(target_density >= 0.0 && target_density <= 1.0,
                  "target density must lie in [0, 1]");
  const Box region = msp_region(shape);
  const double region_fraction =
      static_cast<double>(region.cell_count()) /
      static_cast<double>(shape.element_count());
  // Expected density: bg * (1 - f) + fill * f  ==  target.
  const double fill =
      (target_density - background_probability * (1.0 - region_fraction)) /
      region_fraction;
  detail::require(fill >= 0.0 && fill <= 1.0,
                  "MSP target density unreachable with this background");
  return MspConfig{background_probability, fill};
}

}  // namespace artsparse
