#include "formats/format.hpp"

#include "check/issues.hpp"
#include "core/types.hpp"
#include "formats/layout.hpp"

namespace artsparse {

std::vector<std::size_t> SparseFormat::read(const CoordBuffer& queries) const {
  std::vector<std::size_t> slots;
  slots.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    slots.push_back(lookup(queries.point(i)));
  }
  return slots;
}

// Saving and checking only read the fields declare() names.
void SparseFormat::save(BufferWriter& out) const {
  IndexLayout layout(out);
  const_cast<SparseFormat*>(this)->declare(layout);
}

void SparseFormat::load(BufferReader& in) {
  IndexLayout layout(in);
  declare(layout);
  detail::require(in.exhausted(), "serialized index has trailing bytes");
}

void SparseFormat::check_invariants(check::Issues& issues) const {
  IndexLayout layout(issues);
  const_cast<SparseFormat*>(this)->declare(layout);
}

void SparseFormat::validate() const {
  check::Issues issues;
  check_invariants(issues);
  issues.raise_if_failed(to_string(kind()) + " index invalid");
}

std::size_t SparseFormat::index_bytes() const {
  BufferWriter sizer = BufferWriter::sizer();
  save(sizer);
  return sizer.size();
}

Bytes serialize_format(const SparseFormat& format) {
  BufferWriter writer(format.index_bytes());
  format.save(writer);
  return writer.take();
}

}  // namespace artsparse
