#include "formats/compressed_2d.hpp"

#include <algorithm>

#include "check/issues.hpp"
#include "core/linearize.hpp"
#include "core/parallel.hpp"
#include "core/sort.hpp"
#include "core/timer.hpp"

namespace artsparse {

namespace {

/// Per-axis literals: load()'s messages, check_invariants()'s rule ids and
/// the array and axis names their details use. Looked up, never built:
/// load()'s monotone check runs once per line.
struct AxisText {
  const char* without_box;
  const char* box_rank;
  const char* not_tiling;
  const char* ptr_length;
  const char* ptr_cover;
  const char* ptr_monotone;
  const char* rule_length;
  const char* rule_monotone;
  const char* rule_cover;
  const char* rule_range;
  const char* ptr;    ///< offsets array name
  const char* ind;    ///< minor index array name
  const char* line;   ///< one major line
  const char* lines;  ///< major lines
  const char* minor;  ///< minor extent
};

constexpr AxisText kRowText{
    "GCSR 2-D shape without a local box",
    "GCSR local box rank does not match shape rank",
    "GCSR 2-D shape does not tile the local box",
    "GCSR row_ptr length mismatch", "GCSR row_ptr does not cover col_ind",
    "GCSR row_ptr not monotone", "gcsr.row_ptr.length", "gcsr.row_ptr.monotone",
    "gcsr.row_ptr.cover", "gcsr.col_ind.range", "row_ptr", "col_ind", "row",
    "rows", "cols"};

constexpr AxisText kColText{
    "GCSC 2-D shape without a local box",
    "GCSC local box rank does not match shape rank",
    "GCSC 2-D shape does not tile the local box",
    "GCSC col_ptr length mismatch", "GCSC col_ptr does not cover row_ind",
    "GCSC col_ptr not monotone", "gcsc.col_ptr.length", "gcsc.col_ptr.monotone",
    "gcsc.col_ptr.cover", "gcsc.row_ind.range", "col_ptr", "row_ind", "column",
    "columns", "rows"};

template <MajorAxis Axis>
constexpr const AxisText& text() {
  return Axis == MajorAxis::kRows ? kRowText : kColText;
}

}  // namespace

bool Mapped2DFormat::fit_2d(const CoordBuffer& coords, const Shape& shape,
                            bool smallest_is_cols) {
  detail::require(coords.rank() == shape.rank(),
                  "coordinate rank does not match shape rank");
  shape_ = shape;
  if (coords.empty()) {
    local_box_ = Box();
    rows_ = 0;
    cols_ = 0;
    return false;
  }
  // Algorithm 1 lines 5-6: extract the local boundary, pick its smallest
  // extent as one side of the matrix, the product of the rest as the other.
  local_box_ = Box::bounding(coords);
  const Flat2D flat = local_box_.shape().flatten_2d();
  rows_ = smallest_is_cols ? flat.cols : flat.rows;
  cols_ = smallest_is_cols ? flat.rows : flat.cols;
  return true;
}

bool Mapped2DFormat::to_2d(std::span<const index_t> point, index_t& row,
                           index_t& col) const {
  if (point.size() != shape_.rank() || local_box_.empty() ||
      !local_box_.contains(point)) {
    return false;
  }
  // Lines 8-9: row-major linearize within the local boundary, then
  // reverse-transform the address into the 2-D shape.
  const index_t address = linearize_local(point, local_box_);
  row = address / cols_;
  col = address % cols_;
  return true;
}

void Mapped2DFormat::save_2d(BufferWriter& out) const {
  out.put_u64_vec(shape_.extents());
  out.put_u8(local_box_.empty() ? 0 : 1);
  if (!local_box_.empty()) {
    out.put_u64_vec(local_box_.lo());
    out.put_u64_vec(local_box_.hi());
  }
  out.put_u64(rows_);
  out.put_u64(cols_);
}

void Mapped2DFormat::load_2d(BufferReader& in) {
  shape_ = Shape(in.get_u64_vec());
  local_box_ = Box();
  if (in.get_u8() != 0) {
    auto lo = in.get_u64_vec();
    auto hi = in.get_u64_vec();
    local_box_ = Box(std::move(lo), std::move(hi));
  }
  rows_ = in.get_u64();
  cols_ = in.get_u64();
}

void Mapped2DFormat::require_tiling(const char* without_box,
                                    const char* box_rank,
                                    const char* not_tiling) const {
  if (local_box_.empty()) {
    detail::require(rows_ == 0 && cols_ == 0, without_box);
  } else {
    detail::require(local_box_.rank() == shape_.rank(), box_rank);
    const index_t cells = local_box_.shape().element_count();
    detail::require(cols_ > 0 && cols_ <= cells && rows_ == cells / cols_ &&
                        cells % cols_ == 0,
                    not_tiling);
  }
}

template <MajorAxis Axis>
std::vector<std::size_t> Compressed2DFormat<Axis>::build(
    const CoordBuffer& coords, const Shape& shape) {
  ptr_.clear();
  ind_.clear();
  build_sort_seconds_ = 0.0;
  // GCSC++'s smallest extent is its column count: difference (1).
  if (!fit_2d(coords, shape, Axis == MajorAxis::kCols)) {
    ptr_.assign(1, 0);
    return {};
  }

  // Lines 7-11: transform each point to its 2-D coordinates.
  const std::size_t n = coords.size();
  std::vector<index_t> major_of(n);
  std::vector<index_t> minor_of(n);
  map_to_2d(coords, [&](std::size_t i, index_t row, index_t col) {
    major_of[i] = Axis == MajorAxis::kRows ? row : col;
    minor_of[i] = Axis == MajorAxis::kRows ? col : row;
  });

  // Lines 12-13 fused (GCSC++'s differences (2) and (3)): lines are bounded
  // by the smallest boundary extent, so one stable counting pass yields the
  // permutation *and* ptr_ in O(n + lines) — no comparison sort, no second
  // pass over sorted data. Counting sort is stable, so the permutation is
  // identical to the comparison path's for any thread count (input order
  // within a line is what keeps line searches linear scans).
  WallTimer sort_timer;
  const auto n_lines = static_cast<std::size_t>(lines());
  std::vector<std::size_t> perm;
  if (counting_sort_applicable(n, n_lines)) {
    CountingSort counting = counting_sort_permutation(major_of, n_lines);
    ptr_ = std::move(counting.ptr);
    perm = std::move(counting.perm);
  } else {
    perm = parallel_sort_permutation(major_of);
    ptr_ = histogram_prefix(major_of, n_lines);
  }
  build_sort_seconds_ = sort_timer.seconds();

  ind_ = parallel_gather<index_t>(minor_of, perm);
  return invert_permutation(perm);
}

template <MajorAxis Axis>
std::size_t Compressed2DFormat<Axis>::search_line(index_t major,
                                                  index_t minor) const {
  const std::size_t begin = ptr_[static_cast<std::size_t>(major)];
  const std::size_t end = ptr_[static_cast<std::size_t>(major) + 1];
  for (std::size_t i = begin; i < end; ++i) {
    if (ind_[i] == minor) return i;
  }
  return kNotFound;
}

template <MajorAxis Axis>
std::size_t Compressed2DFormat<Axis>::lookup(
    std::span<const index_t> point) const {
  index_t major = 0;
  index_t minor = 0;
  if (!to_line(point, major, minor)) return kNotFound;
  return search_line(major, minor);
}

template <MajorAxis Axis>
std::vector<std::size_t> Compressed2DFormat<Axis>::read(
    const CoordBuffer& queries) const {
  // One pass converts every query to 2-D (the "+ n" term of the read
  // complexity), then each query scans its line.
  const std::size_t q = queries.size();
  std::vector<index_t> major_of(q);
  std::vector<index_t> minor_of(q);
  std::vector<bool> in_box(q);
  for (std::size_t i = 0; i < q; ++i) {
    in_box[i] = to_line(queries.point(i), major_of[i], minor_of[i]);
  }
  std::vector<std::size_t> slots(q, kNotFound);
  const auto resolve = [&](std::size_t i) {
    if (in_box[i]) slots[i] = search_line(major_of[i], minor_of[i]);
  };
  if constexpr (Axis == MajorAxis::kRows) {
    // Each query touches only its own slot: safe to chunk across workers.
    parallel_for(0, q, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) resolve(i);
    });
  } else {
    // Difference (4): reads proceed column by column, so each column's
    // range is walked while hot.
    std::vector<std::size_t> order(q);
    for (std::size_t i = 0; i < q; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return major_of[a] < major_of[b];
                     });
    for (std::size_t i : order) resolve(i);
  }
  return slots;
}

template <MajorAxis Axis>
void Compressed2DFormat<Axis>::scan_box(
    const Box& box, CoordBuffer& points,
    std::vector<std::size_t>& slots) const {
  detail::require(box.rank() == shape_.rank(),
                  "scan box rank does not match tensor rank");
  if (local_box_.empty() || !local_box_.overlaps(box)) return;
  const Box clipped = box.intersect(local_box_);
  const index_t lo_addr = linearize_local(clipped.lo(), local_box_);
  const index_t hi_addr = linearize_local(clipped.hi(), local_box_);
  // Rows partition the local address space into contiguous [r*cols,
  // (r+1)*cols) windows, so GCSR++ visits only the rows intersecting the
  // box's address range. Columns interleave through it (col = addr mod
  // cols), so GCSC++ cannot prune a whole column and walks them all. Each
  // surviving entry is reconstructed and filtered by the window + box test;
  // the window lies inside the box just linearized, so the rebuild needs
  // no checks of its own.
  index_t line = 0;
  index_t end = lines();
  if constexpr (Axis == MajorAxis::kRows) {
    line = lo_addr / cols_;
    end = std::min(hi_addr / cols_ + 1, rows_);
  }
  std::vector<index_t> point(shape_.rank());
  for (; line < end; ++line) {
    const std::size_t begin = ptr_[static_cast<std::size_t>(line)];
    const std::size_t stop = ptr_[static_cast<std::size_t>(line) + 1];
    for (std::size_t i = begin; i < stop; ++i) {
      const index_t address = Axis == MajorAxis::kRows
                                  ? line * cols_ + ind_[i]
                                  : ind_[i] * cols_ + line;
      if (address < lo_addr || address > hi_addr) continue;
      detail::local_point(address, local_box_, point);
      if (box.contains(point)) {
        points.append(point);
        slots.push_back(i);
      }
    }
  }
}

template <MajorAxis Axis>
void Compressed2DFormat<Axis>::save(BufferWriter& out) const {
  save_2d(out);
  out.put_u64_vec(ptr_);
  out.put_u64_vec(ind_);
}

template <MajorAxis Axis>
void Compressed2DFormat<Axis>::load(BufferReader& in) {
  const AxisText& t = text<Axis>();
  load_2d(in);
  ptr_ = in.get_u64_vec();
  ind_ = in.get_u64_vec();
  // search_line() indexes ptr_[line + 1].
  require_tiling(t.without_box, t.box_rank, t.not_tiling);
  detail::require(ptr_.size() == static_cast<std::size_t>(lines()) + 1,
                  t.ptr_length);
  detail::require(ptr_.empty() || ptr_.back() == ind_.size(), t.ptr_cover);
  for (std::size_t l = 1; l < ptr_.size(); ++l) {
    detail::require(ptr_[l - 1] <= ptr_[l], t.ptr_monotone);
  }
}

template <MajorAxis Axis>
void Compressed2DFormat<Axis>::check_invariants(check::Issues& issues) const {
  const AxisText& t = text<Axis>();
  if (lines() == 0 && ptr_.empty() && ind_.empty()) {
    return;  // default-constructed / empty index
  }
  if (ptr_.size() != static_cast<std::size_t>(lines()) + 1) {
    issues.add(t.rule_length,
               std::string(t.ptr) + " has " + std::to_string(ptr_.size()) +
                   " entries for " + std::to_string(lines()) + " " +
                   t.lines);
    return;
  }
  for (std::size_t l = 1; l < ptr_.size(); ++l) {
    if (ptr_[l - 1] > ptr_[l]) {
      issues.add(t.rule_monotone, std::string(t.ptr) + " decreases at " +
                                      t.line + " " + std::to_string(l));
      return;
    }
  }
  if (!ptr_.empty() && ptr_.back() != ind_.size()) {
    issues.add(t.rule_cover,
               std::string(t.ptr) + " ends at " +
                   std::to_string(ptr_.back()) + " but " + t.ind + " has " +
                   std::to_string(ind_.size()) + " entries");
    return;
  }
  const index_t minor_extent = Axis == MajorAxis::kRows ? cols_ : rows_;
  for (std::size_t i = 0; i < ind_.size(); ++i) {
    if (ind_[i] >= minor_extent) {
      issues.add(t.rule_range, std::string(t.ind) + "[" + std::to_string(i) +
                                   "] = " + std::to_string(ind_[i]) +
                                   " >= " + t.minor + " " +
                                   std::to_string(minor_extent));
      break;
    }
  }
}

template class Compressed2DFormat<MajorAxis::kRows>;
template class Compressed2DFormat<MajorAxis::kCols>;

}  // namespace artsparse
