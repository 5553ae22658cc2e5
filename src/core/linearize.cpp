#include "core/linearize.hpp"

#include "core/parallel.hpp"

namespace artsparse {

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

}  // namespace artsparse
