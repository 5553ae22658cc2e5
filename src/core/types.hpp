// Core type aliases and enumerations shared across the library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace artsparse {

/// Coordinate / linear-address integer type. The paper standardizes on
/// `unsigned long long int` (8 bytes) for coordinates; we do the same.
using index_t = std::uint64_t;

/// Value payload type used by the benchmark system. The paper notes the
/// value size is constant across organizations, so a single type suffices.
using value_t = double;

/// Byte buffer used for serialized index structures and fragment payloads.
using Bytes = std::vector<std::byte>;

/// The five storage organizations studied by the paper, plus the sorted-COO
/// variant the paper discusses as a build/read trade-off (Section II-A).
enum class OrgKind : std::uint8_t {
  kCoo = 0,
  kLinear = 1,
  kGcsr = 2,    ///< GCSR++ (Algorithm 1)
  kGcsc = 3,    ///< GCSC++ (Section II-D)
  kCsf = 4,     ///< Compressed Sparse Fiber tree (Algorithm 2)
  kSortedCoo = 5,
  kBcsr = 6,  ///< Block-CSR extension (Related Work [30]); not in the
              ///< paper's evaluated five
};

/// Number of OrgKind values (one past the largest).
inline constexpr std::size_t kOrgKindCount = 7;

/// All organizations evaluated in the paper's figures, in the paper's order.
inline constexpr OrgKind kPaperOrgs[] = {
    OrgKind::kCoo, OrgKind::kLinear, OrgKind::kGcsr, OrgKind::kGcsc,
    OrgKind::kCsf};

/// Human-readable name as used in the paper ("COO", "LINEAR", ...).
std::string to_string(OrgKind kind);

/// Inverse of to_string(); throws FormatError on unknown names.
OrgKind org_kind_from_string(const std::string& name);

}  // namespace artsparse
