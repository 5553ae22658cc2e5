#include "patterns/workload.hpp"

#include "core/error.hpp"
#include "patterns/calibrate.hpp"

namespace artsparse {

Box Workload::read_region() const {
  std::vector<index_t> origin(shape.rank());
  std::vector<index_t> size(shape.rank());
  for (std::size_t i = 0; i < shape.rank(); ++i) {
    origin[i] = shape.extent(i) / 2;
    size[i] = std::max<index_t>(1, shape.extent(i) / 10);
  }
  return Box::from_origin_size(origin, size);
}

Shape grid_shape(std::size_t rank, ScaleKind scale) {
  detail::require(rank >= 2 && rank <= 4, "grid shapes cover 2D..4D");
  if (scale == ScaleKind::kPaper) {
    switch (rank) {
      case 2:
        return Shape::uniform(2, 8192);
      case 3:
        return Shape::uniform(3, 512);
      default:
        return Shape::uniform(4, 128);
    }
  }
  switch (rank) {
    case 2:
      return Shape::uniform(2, 1024);
    case 3:
      return Shape::uniform(3, 128);
    default:
      return Shape::uniform(4, 48);
  }
}

double table2_density(std::size_t rank, PatternKind pattern) {
  detail::require(rank >= 2 && rank <= 4, "grid densities cover 2D..4D");
  // Table II, in fractional form.
  switch (pattern) {
    case PatternKind::kTsp:
      return rank == 2 ? 0.0167 : rank == 3 ? 0.0347 : 0.0822;
    case PatternKind::kGsp:
      return rank == 2 ? 0.0099 : rank == 3 ? 0.0099 : 0.0090;
    case PatternKind::kMsp:
      return rank == 2 ? 0.0019 : rank == 3 ? 0.0019 : 0.0021;
  }
  throw FormatError("unknown PatternKind value");
}

Workload make_workload(std::size_t rank, PatternKind pattern,
                       ScaleKind scale, std::uint64_t seed) {
  Workload workload;
  workload.shape = grid_shape(rank, scale);
  workload.pattern = pattern;
  workload.seed = seed;
  workload.name = std::to_string(rank) + "D-" + to_string(pattern);
  const double density = table2_density(rank, pattern);
  switch (pattern) {
    case PatternKind::kTsp:
      workload.spec = calibrate_tsp(workload.shape, density);
      break;
    case PatternKind::kGsp:
      workload.spec = calibrate_gsp(density);
      break;
    case PatternKind::kMsp:
      workload.spec = calibrate_msp(workload.shape, density);
      break;
  }
  return workload;
}

std::vector<Workload> paper_grid(ScaleKind scale, std::uint64_t seed) {
  std::vector<Workload> grid;
  for (PatternKind pattern :
       {PatternKind::kTsp, PatternKind::kGsp, PatternKind::kMsp}) {
    for (std::size_t rank = 2; rank <= 4; ++rank) {
      grid.push_back(make_workload(rank, pattern, scale, seed));
    }
  }
  return grid;
}

}  // namespace artsparse
