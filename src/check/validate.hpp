// Fragment-level deep validation: the engine behind paranoid loads and the
// `artsparse check` (fsck) command. Validation is layered by Depth so a
// store walk can trade coverage for cost:
//
//   kHeader    — checksum + header parse only (what discovery already pays)
//   kStructure — + open the fragment as a read does (view_fragment, then
//                open_fragment) and run the format's check_invariants()
//   kFull      — + O(n * d) cross-checks between index, header, and values
//                (slot coverage is a permutation, recomputed bounding box
//                and value statistics match the header)
#pragma once

#include <span>
#include <string>

#include "check/issues.hpp"
#include "core/types.hpp"
#include "storage/fragment.hpp"

namespace artsparse::check {

/// How much of a fragment to validate.
enum class Depth {
  kHeader = 0,
  kStructure = 1,
  kFull = 2,
};

/// Parses "header" / "structure" / "full"; throws FormatError otherwise.
Depth depth_from_string(const std::string& name);
std::string to_string(Depth depth);

/// Validates one encoded fragment at `depth`, appending any violations to
/// `issues`, and returns the header it parsed (default when the checksum
/// or the header parse failed). Never throws on malformed input: parse
/// failures are reported as issues. "fragment.decode" means view_fragment()
/// rejected the framing; "format.load" means open_fragment() rejected the
/// index (its codec or the format's load()).
FragmentInfo check_fragment_bytes(std::span<const std::byte> data,
                                  Depth depth, Issues& issues);

}  // namespace artsparse::check
