// Fuzz target for fragment files — the outermost untrusted surface: bytes
// read from disk go through view_fragment() and open_fragment(), the one
// open path that reads, `artsparse check` and this harness share. The
// contract under fuzzing: arbitrary input either opens or throws
// artsparse::Error, and check_fragment_bytes() reports it without
// throwing. Crashes, sanitizer reports, or foreign exceptions are findings.
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "check/validate.hpp"
#include "core/error.hpp"
#include "formats/format.hpp"
#include "storage/fragment.hpp"
#include "storage/fragment_cache.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::byte> bytes(
      reinterpret_cast<const std::byte*>(data), size);
  // The deep validators may *report* issues, never crash or throw.
  using artsparse::check::Depth;
  artsparse::check::Issues issues;
  artsparse::check::check_fragment_bytes(bytes, Depth::kFull, issues);
  try {
    const artsparse::OpenFragment open =
        artsparse::open_fragment(artsparse::view_fragment(bytes));
    // A fragment that opens must survive the read API without UB.
    if (open.shape.rank() > 0) {
      const std::vector<artsparse::index_t> probe(open.shape.rank(), 0);
      open.format->lookup(probe);
    }
  } catch (const artsparse::Error&) {
    // Expected for malformed input.
  }
  try {
    artsparse::decode_fragment_info(bytes);
  } catch (const artsparse::Error&) {
  }
  return 0;
}
