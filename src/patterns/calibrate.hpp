// Density calibration for the synthetic generators.
//
// Table II reports *measured* densities (e.g. 2-D TSP 1.67%) that the
// paper's stated generator parameters do not produce on their own (see
// DESIGN.md Section 5). These helpers solve for generator parameters that
// hit a target density, so the benchmark workloads can reproduce Table II's
// data volumes while keeping the patterns' character.
#pragma once

#include "patterns/pattern.hpp"

namespace artsparse {

/// Cells of the TSP band of `half_width`, i.e. generate_tsp(shape,
/// {half_width}).size(), counted in closed form: O(rank * min_extent)
/// integer work, no allocation.
index_t tsp_cell_count(const Shape& shape, index_t half_width);

/// Smallest half-width whose band density reaches at least
/// `target_density`. Exponential + binary search over closed-form counts
/// (tsp_cell_count); no band is generated.
TspConfig calibrate_tsp(const Shape& shape, double target_density);

/// Exact: a Bernoulli process's expected density equals its probability.
GspConfig calibrate_gsp(double target_density);

/// Holds the background at `background_probability` and solves the region
/// fill rate so the expected total density matches `target_density`.
/// Throws FormatError when the target is unreachable (region too small).
MspConfig calibrate_msp(const Shape& shape, double target_density,
                        double background_probability = 0.001);

}  // namespace artsparse
