#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "core/linearize.hpp"
#include "patterns/bernoulli.hpp"
#include "patterns/pattern.hpp"

namespace artsparse {

namespace detail {

void append_bernoulli_cells(const Box& box, double p, Xoshiro256& rng,
                            const Box& exclude, CoordBuffer& out) {
  artsparse::detail::require(p >= 0.0 && p <= 1.0,
                             "fill probability must lie in [0, 1]");
  if (p <= 0.0 || box.empty()) return;
  const index_t cells = box.cell_count();
  std::vector<index_t> point(box.rank());

  // Every address below is under `cells`, the box's checks made once
  // above, so the per-cell rebuild checks nothing.
  if (p >= 1.0) {
    for (index_t address = 0; address < cells; ++address) {
      detail::local_point(address, box, point);
      if (exclude.empty() || !exclude.contains(point)) {
        out.append(point);
      }
    }
    return;
  }

  // Geometric gap sampling: the distance between consecutive successes of a
  // Bernoulli(p) process is Geometric(p), so we jump straight from hit to
  // hit in O(#hits) expected time. Room for the expected hits plus four
  // standard deviations up front: each regrowth would copy the buffer.
  const double expected = p * static_cast<double>(cells);
  out.reserve(out.size() +
              static_cast<std::size_t>(std::min(
                  expected + 4.0 * std::sqrt(expected) + 16.0,
                  static_cast<double>(cells))));
  const double log1mp = std::log1p(-p);
  double cursor = -1.0;
  while (true) {
    const double u = rng.next_double();
    // skip >= 0; +1 moves past the previous hit.
    const double skip = std::floor(std::log1p(-u) / log1mp);
    cursor += skip + 1.0;
    if (cursor >= static_cast<double>(cells)) break;
    const auto address = static_cast<index_t>(cursor);
    detail::local_point(address, box, point);
    if (exclude.empty() || !exclude.contains(point)) {
      out.append(point);
    }
  }
}

}  // namespace detail

CoordBuffer generate_gsp(const Shape& shape, const GspConfig& config,
                         std::uint64_t seed) {
  CoordBuffer out(shape.rank());
  Xoshiro256 rng(seed);
  detail::append_bernoulli_cells(Box::whole(shape), config.fill_probability,
                                 rng, Box(), out);
  return out;
}

}  // namespace artsparse
