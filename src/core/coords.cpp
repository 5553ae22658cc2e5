#include "core/coords.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "core/parallel.hpp"

namespace artsparse {

CoordBuffer::CoordBuffer(std::size_t rank, std::vector<index_t> flat)
    : rank_(rank), flat_(std::move(flat)) {
  detail::require(rank_ > 0, "CoordBuffer rank must be positive");
  detail::require(flat_.size() % rank_ == 0,
                  "flat coordinate buffer length is not a multiple of rank");
}

index_t CoordBuffer::at(std::size_t i, std::size_t dim) const {
  detail::require(i < size() && dim < rank_,
                  "CoordBuffer access out of range");
  return flat_[i * rank_ + dim];
}

void CoordBuffer::append(std::initializer_list<index_t> point) {
  append(std::span<const index_t>(point.begin(), point.size()));
}

CoordBuffer CoordBuffer::permuted(std::span<const std::size_t> perm) const {
  detail::require(perm.size() == size(),
                  "permutation length does not match point count");
  // Each output point owns a disjoint rank_-wide window of the flat buffer,
  // so the gather can be chunked across workers after a single pre-size.
  std::vector<index_t> flat(size() * rank_);
  parallel_for(0, perm.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const auto p = point(perm[i]);
      std::copy(p.begin(), p.end(), flat.begin() + i * rank_);
    }
  });
  return CoordBuffer(rank_, std::move(flat));
}

}  // namespace artsparse
