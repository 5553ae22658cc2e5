// The paper's experiment grid: {2D, 3D, 4D} x {TSP, GSP, MSP}, with the
// read test extracting the contiguous region at origin (m/2, ...) of size
// (m/10, ...). Shapes come in two scales: the paper's Perlmutter sizes and
// a laptop-friendly default that preserves densities and every qualitative
// ordering (DESIGN.md Section 4).
#pragma once

#include <string>
#include <vector>

#include "patterns/dataset.hpp"

namespace artsparse {

/// Benchmark problem: one (shape, pattern) cell of the paper's grid.
struct Workload {
  std::string name;  ///< e.g. "2D-TSP"
  Shape shape;
  PatternKind pattern = PatternKind::kGsp;
  PatternSpec spec;
  std::uint64_t seed = 42;

  /// The paper's read region: origin (m_i/2), size (m_i/10), clamped to at
  /// least one cell per dimension.
  Box read_region() const;
};

enum class ScaleKind : std::uint8_t {
  kSmall = 0,  ///< 1024^2, 128^3, 48^4 — laptop default
  kPaper = 1,  ///< 8192^2, 512^3, 128^4 — Table II sizes
};

/// The cubic shape the grid uses for `rank` dimensions at `scale`.
Shape grid_shape(std::size_t rank, ScaleKind scale);

/// Table II's measured density for (rank, pattern); used to calibrate the
/// generators so data volumes match the paper.
double table2_density(std::size_t rank, PatternKind pattern);

/// One workload cell, generators calibrated to Table II's density.
Workload make_workload(std::size_t rank, PatternKind pattern,
                       ScaleKind scale, std::uint64_t seed = 42);

/// The full 3x3 grid in the paper's order (pattern-major: TSP 2/3/4D, ...).
std::vector<Workload> paper_grid(ScaleKind scale, std::uint64_t seed = 42);

}  // namespace artsparse
