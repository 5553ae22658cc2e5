// The format rule catalog: every rule id a format's index can violate,
// each forged into a built Fig. 1 index. A structural rule must stop the
// load with FormatError("<rule id>: ..."); a deep rule must let the index
// load and be named by check_invariants(), alone, and by a paranoid load.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "check/contracts.hpp"
#include "check/issues.hpp"
#include "check/validate.hpp"
#include "corruption_support.hpp"
#include "formats/linear.hpp"
#include "formats/registry.hpp"
#include "storage/fragment.hpp"

namespace artsparse {
namespace {

using testing::fig1_coords;
using testing::fig1_shape;

/// Walks a serialized index field by field, as a load reads it, and
/// edits the field it stands on. Edits that change the length go last:
/// the walk reads the bytes it was made over.
class Cursor {
 public:
  explicit Cursor(Bytes& index) : index_(index), reader_(index) {}

  /// Steps over a u8 flag, a u64 scalar or a length-prefixed array.
  Cursor& u8() {
    reader_.get_u8();
    return *this;
  }
  Cursor& u64() {
    reader_.get_u64();
    return *this;
  }
  Cursor& vec() {
    reader_.get_u64_vec();
    return *this;
  }
  /// Steps over a box flag and, when set, its lo and hi arrays.
  Cursor& box() {
    if (reader_.get_u8() != 0) vec().vec();
    return *this;
  }
  /// GCSR++/GCSC++/BCSR's prefix: shape | box | rows | cols.
  Cursor& mapping() { return vec().box().u64().u64(); }

  /// Overwrites the u8 or the u64 scalar at the cursor.
  Cursor& set_u8(std::uint8_t value) {
    std::memcpy(index_.data() + reader_.offset(), &value, sizeof(value));
    return *this;
  }
  Cursor& set_u64(std::uint64_t value) {
    std::memcpy(index_.data() + reader_.offset(), &value, sizeof(value));
    return *this;
  }
  /// Overwrites element `i` of the array at the cursor.
  Cursor& set(std::size_t i, std::uint64_t value) {
    const std::size_t at = reader_.offset() + sizeof(std::uint64_t) * (i + 1);
    EXPECT_LT(i, length());
    std::memcpy(index_.data() + at, &value, sizeof(value));
    return *this;
  }
  /// Removes the last element of the array at the cursor.
  void drop_last() {
    const std::uint64_t n = length();
    ASSERT_GT(n, 0u);
    set_u64(n - 1);
    const auto at = static_cast<std::ptrdiff_t>(reader_.offset() +
                                                sizeof(std::uint64_t) * n);
    index_.erase(index_.begin() + at,
                 index_.begin() + at + sizeof(std::uint64_t));
  }
  /// Removes the `count` arrays at the cursor.
  void cut(std::size_t count) {
    const std::size_t from = reader_.offset();
    BufferReader skip(std::span<const std::byte>(index_).subspan(from));
    for (std::size_t i = 0; i < count; ++i) skip.get_u64_vec();
    index_.erase(index_.begin() + static_cast<std::ptrdiff_t>(from),
                 index_.begin() +
                     static_cast<std::ptrdiff_t>(from + skip.offset()));
  }

 private:
  std::uint64_t length() const {
    std::uint64_t n = 0;
    std::memcpy(&n, index_.data() + reader_.offset(), sizeof(n));
    return n;
  }

  Bytes& index_;
  BufferReader reader_;
};

/// One rule and an index that violates only it.
struct Forge {
  const char* rule;
  OrgKind org;
  void (*edit)(Bytes& index);
  bool local_linear = false;  ///< build LINEAR with block-local addresses
};

std::unique_ptr<SparseFormat> built(const Forge& forge) {
  std::unique_ptr<SparseFormat> format =
      forge.local_linear
          ? std::make_unique<LinearFormat>(LinearAddressing::kLocal)
          : make_format(forge.org);
  format->build(fig1_coords(), fig1_shape());
  return format;
}

Bytes forged_index(const Forge& forge) {
  Bytes index = serialize_format(*built(forge));
  forge.edit(index);
  return index;
}

/// An identity-codec Fig. 1 fragment of `forge`'s org whose index section
/// is `index`, with its header length and checksum made to match.
Bytes fragment_with_index(const Forge& forge, const Bytes& index) {
  FragmentInfo info;
  info.org = forge.org;
  info.shape = fig1_shape();
  info.bbox = Box::bounding(fig1_coords());
  info.point_count = fig1_coords().size();
  const Bytes valid =
      encode_fragment(info, *built(forge), testing::fig1_values());
  const FragmentView view = view_fragment(valid);
  const auto at = static_cast<std::size_t>(view.index.data() - valid.data());
  Bytes data(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(at));
  data.insert(data.end(), index.begin(), index.end());
  data.insert(data.end(),
              valid.begin() +
                  static_cast<std::ptrdiff_t>(at + view.index.size()),
              valid.end());
  // The index length precedes the value count, min and max.
  testing::poke_u64(data, at - 4 * sizeof(std::uint64_t), index.size());
  testing::reseal(data);
  return data;
}

/// What load_format() throws for `index`, or "" when it loads.
std::string load_error(OrgKind org, const Bytes& index) {
  try {
    load_format(org, index);
  } catch (const FormatError& e) {
    return e.what();
  }
  return {};
}

/// Whether a load error is FormatError("<rule>: ...").
::testing::AssertionResult names_rule(const std::string& error,
                                      const std::string& rule) {
  if (error.rfind(rule + ": ", 0) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "'" << error << "' does not name " << rule;
}

bool has_rule(const check::Issues& issues, const std::string& rule) {
  for (const check::Issue& issue : issues.items()) {
    if (issue.rule == rule) return true;
  }
  return false;
}

/// Drops the last dimension of a mapped format's local box.
void drop_box_dimension(Bytes& b) {
  Cursor(b).vec().u8().drop_last();
  Cursor(b).vec().u8().vec().drop_last();
}

/// A cursor on a mapped format's column count.
Cursor cols_of(Bytes& b) {
  Cursor cursor(b);
  cursor.vec().box().u64();
  return cursor;
}

// Fig. 1 built as each org (3x3x3, five points):
// - GCSR++: rows 2, cols 9, row_ptr [0 3 5]; GCSC++: col_ptr [0 3 5].
// - CSF: dim_order [2 0 1], nfibs [2 4 5], fids[0] [1 2], fptr[0] [0 2 4].
// - BCSR: rows 2, cols 9, block_row_ptr [0 2], block_col [0 1], bitmaps
//   with 4 and 1 cells (the second at (1, 8)).
const Forge kStructural[] = {
    {"gcsr.row_ptr.length", OrgKind::kGcsr,
     [](Bytes& b) { Cursor(b).mapping().drop_last(); }},
    {"gcsr.row_ptr.monotone", OrgKind::kGcsr,
     [](Bytes& b) { Cursor(b).mapping().set(1, 1000); }},
    {"gcsr.row_ptr.cover", OrgKind::kGcsr,
     [](Bytes& b) { Cursor(b).mapping().set(2, 4); }},
    {"gcsc.col_ptr.length", OrgKind::kGcsc,
     [](Bytes& b) { Cursor(b).mapping().drop_last(); }},
    {"gcsc.col_ptr.monotone", OrgKind::kGcsc,
     [](Bytes& b) { Cursor(b).mapping().set(1, 1000); }},
    {"gcsc.col_ptr.cover", OrgKind::kGcsc,
     [](Bytes& b) { Cursor(b).mapping().set(2, 4); }},
    {"csf.levels", OrgKind::kCsf,
     [](Bytes& b) { Cursor(b).vec().vec().drop_last(); }},
    {"csf.fptr", OrgKind::kCsf,
     [](Bytes& b) {
       Cursor(b).vec().vec().vec().u64().vec().vec().vec().u64().set(1,
                                                                     1000);
     }},
    {"csf.dim_order.range", OrgKind::kCsf,
     [](Bytes& b) { Cursor(b).vec().set(0, 7); }},
    {"bcsr.structure", OrgKind::kBcsr,
     [](Bytes& b) { Cursor(b).mapping().u64().set(1, 1); }},
    {"linear.box.rank", OrgKind::kLinear,
     [](Bytes& b) {
       Cursor(b).u8().vec().u8().drop_last();
       Cursor(b).u8().vec().u8().vec().drop_last();
     },
     true},
    {"coo.rank", OrgKind::kCoo, [](Bytes& b) { Cursor(b).vec().set_u64(1); }},
    {"gcsr.box.rank", OrgKind::kGcsr, drop_box_dimension},
    {"gcsr.box.tiling", OrgKind::kGcsr, [](Bytes& b) { cols_of(b).set_u64(5); }},
    {"gcsc.box.rank", OrgKind::kGcsc, drop_box_dimension},
    {"gcsc.box.tiling", OrgKind::kGcsc, [](Bytes& b) { cols_of(b).set_u64(5); }},
    {"bcsr.box.rank", OrgKind::kBcsr, drop_box_dimension},
    {"bcsr.box.tiling", OrgKind::kBcsr, [](Bytes& b) { cols_of(b).set_u64(5); }},
    {"sorted_coo.rank", OrgKind::kSortedCoo,
     [](Bytes& b) { Cursor(b).vec().set_u64(1); }},
};

const Forge kDeep[] = {
    {"gcsr.col_ind.range", OrgKind::kGcsr,
     [](Bytes& b) { Cursor(b).mapping().vec().set(0, 1000); }},
    {"gcsc.row_ind.range", OrgKind::kGcsc,
     [](Bytes& b) { Cursor(b).mapping().vec().set(0, 1000); }},
    {"csf.fids.in_shape", OrgKind::kCsf,
     [](Bytes& b) { Cursor(b).vec().vec().vec().u64().set(1, 7); }},
    {"csf.fids.sorted", OrgKind::kCsf,
     [](Bytes& b) { Cursor(b).vec().vec().vec().u64().set(0, 2).set(1, 1); }},
    {"bcsr.block_col.range", OrgKind::kBcsr,
     [](Bytes& b) { Cursor(b).mapping().u64().vec().set(1, 5); }},
    {"bcsr.block_col.sorted", OrgKind::kBcsr,
     [](Bytes& b) { Cursor(b).mapping().u64().vec().set(1, 0); }},
    {"bcsr.bitmap.empty", OrgKind::kBcsr,
     [](Bytes& b) {
       // One point fewer keeps the bitmaps' popcounts consistent.
       Cursor(b).mapping().set_u64(4).u64().vec().vec().set(1, 0);
     }},
    {"bcsr.bitmap.in_shape", OrgKind::kBcsr,
     [](Bytes& b) {
       // Cell (1, 8) moves to (1, 9), past the 9 columns.
       Cursor(b).mapping().u64().vec().vec().set(1, index_t{1} << 9);
     }},
    {"linear.box.missing", OrgKind::kLinear,
     [](Bytes& b) { Cursor(b).u8().vec().set_u8(0).u8().cut(2); }, true},
    {"linear.addresses.bounded", OrgKind::kLinear,
     [](Bytes& b) { Cursor(b).u8().vec().set(0, 27); }},
    {"coo.coords.in_shape", OrgKind::kCoo,
     [](Bytes& b) { Cursor(b).vec().u64().set(0, 99); }},
    {"sorted_coo.coords.in_shape", OrgKind::kSortedCoo,
     [](Bytes& b) { Cursor(b).vec().u64().set(14, 7); }},
    {"sorted_coo.order", OrgKind::kSortedCoo,
     [](Bytes& b) { Cursor(b).vec().u64().set(0, 2); }},
};

TEST(RuleCatalog, EveryStructuralRuleStopsTheLoad) {
  const check::ParanoidGuard cheap_load(false);
  for (const Forge& forge : kStructural) {
    SCOPED_TRACE(forge.rule);
    const Bytes index = forged_index(forge);
    EXPECT_TRUE(names_rule(load_error(forge.org, index), forge.rule));
    check::Issues issues;
    check::check_fragment_bytes(fragment_with_index(forge, index),
                                check::Depth::kStructure, issues);
    ASSERT_TRUE(has_rule(issues, "format.load")) << issues.summary();
    EXPECT_TRUE(names_rule(issues.items()[0].detail, forge.rule));
  }
}

TEST(RuleCatalog, EveryDeepRuleIsReportedAloneByItsId) {
  for (const Forge& forge : kDeep) {
    SCOPED_TRACE(forge.rule);
    const Bytes index = forged_index(forge);
    {
      const check::ParanoidGuard cheap_load(false);
      const auto format = load_format(forge.org, index);
      check::Issues issues;
      format->check_invariants(issues);
      ASSERT_EQ(issues.size(), 1u) << issues.summary();
      EXPECT_EQ(issues.items()[0].rule, forge.rule);
    }
    const check::ParanoidGuard paranoid_load(true);
    EXPECT_THROW(load_format(forge.org, index), FormatError);
  }
}

TEST(RuleCatalog, TheForgesStartFromIndexesThatPass) {
  std::vector<Forge> forges(std::begin(kStructural), std::end(kStructural));
  forges.insert(forges.end(), std::begin(kDeep), std::end(kDeep));
  const check::ParanoidGuard paranoid_load(true);
  for (const Forge& forge : forges) {
    SCOPED_TRACE(forge.rule);
    EXPECT_NO_THROW(load_format(forge.org, serialize_format(*built(forge))));
  }
}

// An index has one encoding: the load refuses bytes a save would not
// write, so a loaded index re-saves to exactly what it was loaded from
// (FormatRoundTrip.SerializationPreservesBehaviour checks the re-save).
TEST(CanonicalIndex, TrailingBytesAreRejectedForEveryOrg) {
  for (OrgKind org : all_org_kinds()) {
    SCOPED_TRACE(to_string(org));
    const Forge forge{"", org,
                      [](Bytes& b) { b.resize(b.size() + 8, std::byte{7}); }};
    const Bytes index = forged_index(forge);
    EXPECT_THROW(load_format(org, index), FormatError);
    EXPECT_NO_THROW(load_format(org, serialize_format(*built(forge))));
  }
}

const Forge kFlagOfTwo[] = {
    {"box", OrgKind::kGcsr, [](Bytes& b) { Cursor(b).vec().set_u8(2); }},
    {"box", OrgKind::kGcsc, [](Bytes& b) { Cursor(b).vec().set_u8(2); }},
    {"box", OrgKind::kBcsr, [](Bytes& b) { Cursor(b).vec().set_u8(2); }},
    {"addressing", OrgKind::kLinear, [](Bytes& b) { Cursor(b).set_u8(2); }},
    {"box", OrgKind::kLinear,
     [](Bytes& b) { Cursor(b).u8().vec().set_u8(2); }, true},
};

TEST(CanonicalIndex, FlagsOtherThanZeroOrOneAreRejected) {
  for (const Forge& forge : kFlagOfTwo) {
    SCOPED_TRACE(to_string(forge.org) + " " + forge.rule);
    EXPECT_THROW(load_format(forge.org, forged_index(forge)), FormatError);
  }
}

TEST(CanonicalIndex, ResealedFragmentsWithNonCanonicalIndexesFailToLoad) {
  const Forge trailing{"", OrgKind::kSortedCoo,
                       [](Bytes& b) { b.resize(b.size() + 8); }};
  for (const Forge& forge : {trailing, kFlagOfTwo[0]}) {
    SCOPED_TRACE(to_string(forge.org));
    const Bytes data = fragment_with_index(forge, forged_index(forge));
    check::Issues issues;
    check::check_fragment_bytes(data, check::Depth::kStructure, issues);
    EXPECT_TRUE(has_rule(issues, "format.load")) << issues.summary();
  }
}

TEST(CanonicalIndex, HeaderBboxFlagOtherThanZeroOrOneIsRejected) {
  Bytes data = testing::valid_fragment_bytes(OrgKind::kCoo);
  // magic u32 | version u32 | org u8 | codec u8 | 3 extents | bbox flag
  const std::size_t flag_at = 4 + 4 + 1 + 1 + 8 * 4;
  ASSERT_EQ(data[flag_at], std::byte{1});
  data[flag_at] = std::byte{2};
  testing::reseal(data);
  EXPECT_THROW(decode_fragment_info(data), FormatError);
  EXPECT_THROW(view_fragment(data), FormatError);
  check::Issues issues;
  check::check_fragment_bytes(data, check::Depth::kHeader, issues);
  EXPECT_TRUE(has_rule(issues, "fragment.header")) << issues.summary();
}

}  // namespace
}  // namespace artsparse
