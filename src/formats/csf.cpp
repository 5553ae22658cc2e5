#include "formats/csf.hpp"

#include <algorithm>
#include <numeric>

#include "core/parallel.hpp"
#include "core/sort.hpp"
#include "core/timer.hpp"
#include "formats/layout.hpp"

namespace artsparse {

std::vector<std::size_t> CsfFormat::build(const CoordBuffer& coords,
                                          const Shape& shape) {
  detail::require(coords.rank() == shape.rank(),
                  "coordinate rank does not match shape rank");
  shape_ = shape;
  const std::size_t d = shape.rank();
  dim_order_.clear();
  nfibs_.clear();
  fids_.clear();
  fptr_.clear();
  build_sort_seconds_ = 0.0;

  if (coords.empty()) {
    return {};
  }

  // Algorithm 2 lines 5-6: sort the local boundary extents ascending; the
  // smallest dimension becomes the root level so the most coordinates get
  // deduplicated there.
  const Box box = Box::bounding(coords);
  const Shape local = box.shape();
  dim_order_.resize(d);
  std::iota(dim_order_.begin(), dim_order_.end(), index_t{0});
  std::stable_sort(dim_order_.begin(), dim_order_.end(),
                   [&](index_t a, index_t b) {
                     return local.extent(a) < local.extent(b);
                   });

  // Line 7: sort points lexicographically in the permuted dimension order.
  // Rather than a comparator that re-reads coords.point() per comparison,
  // linearize each point within the local box in dim_order_ — the box's
  // Shape already proved its address space fits index_t, so one u64 key per
  // point captures the full lexicographic order.
  const std::size_t n = coords.size();
  WallTimer sort_timer;
  std::vector<index_t> stride(d);
  stride[d - 1] = 1;
  for (std::size_t level = d - 1; level > 0; --level) {
    stride[level - 1] = stride[level] * local.extent(dim_order_[level]);
  }
  std::vector<index_t> keys(n);
  parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const auto p = coords.point(i);
      index_t key = 0;
      for (std::size_t level = 0; level < d; ++level) {
        const std::size_t dim = dim_order_[level];
        key += (p[dim] - box.lo(dim)) * stride[level];
      }
      keys[i] = key;
    }
  });
  const std::vector<std::size_t> perm = parallel_sort_permutation(keys);
  build_sort_seconds_ = sort_timer.seconds();

  // Gather the sorted points once into a flat buffer already permuted into
  // dim_order_, so the tree-build pass below streams contiguously instead
  // of chasing coords.point(perm[rank]) through the original layout.
  std::vector<index_t> sorted_pts(n * d);
  parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t rank = lo; rank < hi; ++rank) {
      const auto p = coords.point(perm[rank]);
      for (std::size_t level = 0; level < d; ++level) {
        sorted_pts[rank * d + level] = p[dim_order_[level]];
      }
    }
  });

  // Lines 8-18: build the tree level by level in one pass over the sorted
  // points. A point opens a new node at every level from the first level at
  // which it differs from its predecessor down to the leaf.
  fids_.assign(d, {});
  fptr_.assign(d > 0 ? d - 1 : 0, {});
  const index_t* prev = nullptr;
  for (std::size_t rank = 0; rank < n; ++rank) {
    const index_t* p = sorted_pts.data() + rank * d;
    std::size_t first_diff = 0;
    if (rank != 0) {
      while (first_diff < d && p[first_diff] == prev[first_diff]) {
        ++first_diff;
      }
      // Exact duplicate coordinates still get their own leaf entry so every
      // input point owns a distinct value slot.
      if (first_diff == d) first_diff = d - 1;
    }
    for (std::size_t level = first_diff; level < d; ++level) {
      // Record where this node's children begin before any are appended.
      if (level + 1 < d) {
        fptr_[level].push_back(fids_[level + 1].size());
      }
      fids_[level].push_back(p[level]);
    }
    prev = p;
  }
  for (std::size_t level = 0; level + 1 < d; ++level) {
    fptr_[level].push_back(fids_[level + 1].size());
  }
  nfibs_.resize(d);
  for (std::size_t level = 0; level < d; ++level) {
    nfibs_[level] = fids_[level].size();
  }

  return invert_permutation(perm);
}

std::size_t CsfFormat::lookup(std::span<const index_t> point) const {
  const std::size_t d = shape_.rank();
  if (point.size() != d || fids_.empty() || fids_[0].empty()) {
    return kNotFound;
  }
  // Root-to-leaf descent; fiber coordinate ranges are sorted, so each level
  // is a binary search within [lo, hi).
  std::size_t lo = 0;
  std::size_t hi = fids_[0].size();
  for (std::size_t level = 0; level < d; ++level) {
    const index_t target = point[dim_order_[level]];
    const auto& ids = fids_[level];
    const auto begin = ids.begin() + static_cast<std::ptrdiff_t>(lo);
    const auto end = ids.begin() + static_cast<std::ptrdiff_t>(hi);
    const auto it = std::lower_bound(begin, end, target);
    if (it == end || *it != target) return kNotFound;
    const std::size_t fi =
        static_cast<std::size_t>(it - ids.begin());
    if (level + 1 == d) return fi;
    lo = fptr_[level][fi];
    hi = fptr_[level][fi + 1];
  }
  return kNotFound;
}

namespace {

/// Recursive subtree scan used by CsfFormat::scan_box.
struct CsfScanner {
  const std::vector<std::vector<index_t>>& fids;
  const std::vector<std::vector<index_t>>& fptr;
  const std::vector<index_t>& dim_order;
  const Box& box;
  CoordBuffer& points;
  std::vector<std::size_t>& slots;
  std::vector<index_t> point;

  void scan(std::size_t level, std::size_t lo, std::size_t hi) {
    const std::size_t dim = dim_order[level];
    const auto& ids = fids[level];
    // Fiber coordinates are sorted: restrict to [box.lo(dim), box.hi(dim)]
    // with two binary searches, pruning whole subtrees outside the box.
    const auto begin = ids.begin() + static_cast<std::ptrdiff_t>(lo);
    const auto end = ids.begin() + static_cast<std::ptrdiff_t>(hi);
    const auto first = std::lower_bound(begin, end, box.lo(dim));
    const auto last = std::upper_bound(first, end, box.hi(dim));
    for (auto it = first; it != last; ++it) {
      const auto fi = static_cast<std::size_t>(it - ids.begin());
      point[dim] = *it;
      if (level + 1 == fids.size()) {
        points.append(point);
        slots.push_back(fi);
      } else {
        scan(level + 1, fptr[level][fi], fptr[level][fi + 1]);
      }
    }
  }
};

}  // namespace

void CsfFormat::scan_box(const Box& box, CoordBuffer& points,
                         std::vector<std::size_t>& slots) const {
  detail::require(box.rank() == shape_.rank(),
                  "scan box rank does not match tensor rank");
  if (fids_.empty() || fids_[0].empty()) return;
  CsfScanner scanner{fids_,  fptr_, dim_order_,
                     box,    points, slots,
                     std::vector<index_t>(shape_.rank(), 0)};
  scanner.scan(0, 0, fids_[0].size());
}

std::size_t CsfFormat::index_words() const {
  std::size_t words = nfibs_.size() + dim_order_.size();
  for (const auto& level : fids_) words += level.size();
  for (const auto& level : fptr_) words += level.size();
  return words;
}

void CsfFormat::declare(IndexLayout& layout) {
  layout.shape(shape_);
  layout.array(dim_order_);
  layout.array(nfibs_);
  layout.levels(fids_);
  layout.levels(fptr_);
  // lookup() walks one level per dimension, reading
  // point[dim_order_[level]] and each level through the fptr of the one
  // above: a tree has exactly rank() levels and dim_order_ permutes the
  // dimensions, or the tree is empty.
  const std::size_t levels = fids_.size();
  layout.equal("csf.levels", nfibs_.size(), levels);
  layout.equal("csf.levels", dim_order_.size(), levels);
  layout.equal("csf.levels", fptr_.size(), levels == 0 ? 0 : levels - 1);
  if (levels != 0) layout.equal("csf.levels", levels, shape_.rank());
  for (std::size_t level = 0; level < levels; ++level) {
    layout.equal("csf.levels", fids_[level].size(), nfibs_[level]);
  }
  layout.structural("csf.dim_order.range", [&]() -> std::string {
    std::vector<bool> seen(levels, false);
    for (const index_t dim : dim_order_) {
      if (dim >= levels || seen[dim]) {
        return "dimension " + std::to_string(dim) + " repeats or is past rank";
      }
      seen[dim] = true;
    }
    return {};
  });
  for (std::size_t level = 0; level + 1 < levels; ++level) {
    layout.pointers("csf.fptr", fptr_[level], fids_[level].size(),
                    fids_[level + 1].size());
  }

  // lookup() binary-searches each fiber's child range: coordinates are
  // sorted within every range (duplicates occur only at the leaves, where
  // duplicate input points keep their own slots).
  for (std::size_t level = 0; level < levels; ++level) {
    layout.bounded("csf.fids.in_shape", fids_[level],
                   shape_.extent(dim_order_[level]));
    if (level == 0) {
      layout.sorted("csf.fids.sorted", fids_[0], Order::kAscending);
    } else {
      layout.sorted_within("csf.fids.sorted", fids_[level],
                           fptr_[level - 1], Order::kAscending);
    }
  }
}

}  // namespace artsparse
