#include "formats/registry.hpp"

#include "check/contracts.hpp"
#include "formats/bcsr.hpp"
#include "formats/compressed_2d.hpp"
#include "formats/coo.hpp"
#include "formats/csf.hpp"
#include "formats/linear.hpp"
#include "formats/sorted_coo.hpp"

namespace artsparse {

std::unique_ptr<SparseFormat> make_format(OrgKind kind) {
  switch (kind) {
    case OrgKind::kCoo:
      return std::make_unique<CooFormat>();
    case OrgKind::kLinear:
      return std::make_unique<LinearFormat>();
    case OrgKind::kGcsr:
      return std::make_unique<GcsrFormat>();
    case OrgKind::kGcsc:
      return std::make_unique<GcscFormat>();
    case OrgKind::kCsf:
      return std::make_unique<CsfFormat>();
    case OrgKind::kSortedCoo:
      return std::make_unique<SortedCooFormat>();
    case OrgKind::kBcsr:
      return std::make_unique<BcsrFormat>();
  }
  throw FormatError("unknown OrgKind value");
}

std::unique_ptr<SparseFormat> make_format(const std::string& name) {
  return make_format(org_kind_from_string(name));
}

std::unique_ptr<SparseFormat> load_format(OrgKind kind,
                                          std::span<const std::byte> bytes) {
  auto format = make_format(kind);
  BufferReader reader(bytes);
  format->load(reader);
  // load() enforces only the cheap memory-safety invariants; paranoid mode
  // (ARTSPARSE_PARANOID) adds the full O(n) structural pass on every load.
  if (check::paranoid_enabled()) {
    format->validate();
  }
  return format;
}

std::vector<OrgKind> all_org_kinds() {
  return {OrgKind::kCoo,       OrgKind::kLinear, OrgKind::kGcsr,
          OrgKind::kGcsc,      OrgKind::kCsf,    OrgKind::kSortedCoo,
          OrgKind::kBcsr};
}

}  // namespace artsparse
