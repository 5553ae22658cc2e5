// IndexLayout: the one routine behind every format's save, load and deep
// check. A format declares its index once, in SparseFormat::declare(): its
// fields in file order, then the relations between them, each under its
// rule id. The declaration runs against one of three layouts:
//
//   save   writes the fields (or sizes them, through BufferWriter::sizer());
//   load   reads them into the format's own vectors, then enforces each
//          structural relation in order, throwing
//          FormatError("<rule id>: <detail>") on the first violation;
//   check  adds one check::Issue per violated deep rule, its first witness.
//
// Fields are u8 flags (0 or 1), u64 scalars, length-prefixed u64 arrays,
// and compounds of them: a shape, an optional box, coordinates and levels.
// Structural relations keep a format's indexing memory-safe; deep ones
// cost O(n) and guard answers. A built or loaded index holds every
// structural relation, so the deep check does not repeat them, and a deep
// relation may index through the structure they guarantee. A relation's
// arguments are evaluated in every layout, after whatever was declared
// before it.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "check/issues.hpp"
#include "core/box.hpp"
#include "core/coords.hpp"
#include "core/shape.hpp"
#include "core/types.hpp"
#include "storage/serializer.hpp"

namespace artsparse {

/// Rule ids of a pointers() relation, one per clause; a single id names
/// all three.
struct PointerRules {
  PointerRules(const char* all) : length(all), monotone(all), cover(all) {}
  PointerRules(const char* length_rule, const char* monotone_rule,
               const char* cover_rule)
      : length(length_rule), monotone(monotone_rule), cover(cover_rule) {}

  const char* length;    ///< count + 1 offsets
  const char* monotone;  ///< offsets never decrease
  const char* cover;     ///< the last offset is the covered array's length
};

/// How sorted_within() orders each run.
enum class Order { kAscending, kStrictlyAscending };

class IndexLayout {
 public:
  /// Saves the declared fields to `out`.
  explicit IndexLayout(BufferWriter& out) : out_(&out) {}
  /// Loads the declared fields from `in` and enforces the structural
  /// relations.
  explicit IndexLayout(BufferReader& in) : in_(&in) {}
  /// Checks the deep relations, adding issues to `issues`.
  explicit IndexLayout(check::Issues& issues) : issues_(&issues) {}

  // --- Fields, in file order.

  /// A u8 that is 0 or 1: a bool, or an enum of two values.
  template <typename T>
  void flag(T& value) {
    if (out_ != nullptr) out_->put_u8(static_cast<std::uint8_t>(value));
    if (in_ != nullptr) value = static_cast<T>(in_->get_flag());
  }
  void scalar(index_t& value);
  void array(std::vector<index_t>& values);
  void shape(Shape& shape);
  /// A flag, then lo and hi arrays when the box is not empty.
  void box(Box& box);
  /// A rank (0 for no coordinates), then the flat coordinate array.
  void coords(CoordBuffer& coords);
  /// A level count, then one array per level.
  void levels(std::vector<std::vector<index_t>>& levels);

  // --- Structural relations: enforced by every load.

  /// `ptr` holds count + 1 non-decreasing offsets, the last of which is
  /// `covered`, the length of the array whose runs it delimits.
  void pointers(const PointerRules& rules, std::span<const index_t> ptr,
                std::size_t count, std::size_t covered);
  /// A length (or count) equals the one another field implies.
  void equal(const char* rule, std::size_t actual, std::size_t expected);
  /// A rule no relation expresses: `witness()` describes the violation,
  /// or returns an empty string when the rule holds. Called only by loads.
  template <typename Witness>
  void structural(const char* rule, Witness&& witness) {
    if (in_ != nullptr) enforce(rule, witness());
  }

  // --- Deep relations: checked by check_invariants().

  /// values[i] < extents[i % extents.size()]: one extent for a whole
  /// array, or one per dimension of flat coordinates.
  void bounded(const char* rule, std::span<const index_t> values,
               std::span<const index_t> extents);
  void bounded(const char* rule, std::span<const index_t> values,
               index_t extent) {
    bounded(rule, values, std::span<const index_t>(&extent, 1));
  }
  /// Each run [ptr[r], ptr[r + 1]) of `values` is sorted.
  void sorted_within(const char* rule, std::span<const index_t> values,
                     std::span<const index_t> ptr, Order order);
  /// All of `values` is one sorted run.
  void sorted(const char* rule, std::span<const index_t> values,
              Order order) {
    const index_t whole[] = {0, values.size()};
    sorted_within(rule, values, whole, order);
  }
  /// A rule no relation expresses, as structural(), but called only by
  /// the deep check, and not once the rule has a witness.
  template <typename Witness>
  void deep(const char* rule, Witness&& witness) {
    if (checks(rule)) report(rule, witness());
  }

  /// bounded()'s witness: the first value past its extent, or "".
  static std::string unbounded(std::span<const index_t> values,
                               std::span<const index_t> extents);

 private:
  /// Whether this is a deep check and `rule` has no witness yet.
  bool checks(const char* rule) const;
  /// Throws FormatError("<rule>: <witness>") unless `witness` is empty.
  static void enforce(const char* rule, const std::string& witness);
  void report(const char* rule, std::string witness);

  BufferWriter* out_ = nullptr;
  BufferReader* in_ = nullptr;
  check::Issues* issues_ = nullptr;
};

}  // namespace artsparse
