// Fuzz target for SparseFormat::load() — the layer below the fragment
// decoder, reached with attacker-controlled bytes once the fragment CRC is
// forged or the index is corrupted in memory. The first input byte selects
// the organization; the rest is the serialized index. Arbitrary input must
// either load or throw artsparse::Error, and a successful load must leave
// an object whose whole read API is memory-safe and that saves exactly the
// bytes it was loaded from: save and load walk one declaration, so an
// index that loads has one encoding.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "check/issues.hpp"
#include "core/box.hpp"
#include "core/coords.hpp"
#include "core/error.hpp"
#include "formats/format.hpp"
#include "formats/registry.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const auto orgs = artsparse::all_org_kinds();
  const artsparse::OrgKind org = orgs[data[0] % orgs.size()];
  const std::span<const std::byte> payload(
      reinterpret_cast<const std::byte*>(data + 1), size - 1);
  try {
    auto format = artsparse::load_format(org, payload);
    const artsparse::Bytes saved = artsparse::serialize_format(*format);
    if (!std::equal(saved.begin(), saved.end(), payload.begin(),
                    payload.end())) {
      std::abort();
    }
    artsparse::check::Issues issues;
    format->check_invariants(issues);
    const artsparse::Shape& shape = format->tensor_shape();
    if (shape.rank() > 0) {
      const std::vector<artsparse::index_t> probe(shape.rank(), 0);
      format->lookup(probe);
      artsparse::CoordBuffer points(shape.rank());
      std::vector<std::size_t> slots;
      format->scan_box(artsparse::Box::whole(shape), points, slots);
    }
  } catch (const artsparse::Error&) {
    // Expected for malformed input.
  }
  return 0;
}
