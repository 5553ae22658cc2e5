#include "formats/layout.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace artsparse {

void IndexLayout::scalar(index_t& value) {
  if (out_ != nullptr) out_->put_u64(value);
  if (in_ != nullptr) value = in_->get_u64();
}

void IndexLayout::array(std::vector<index_t>& values) {
  if (out_ != nullptr) out_->put_u64_vec(values);
  if (in_ != nullptr) values = in_->get_u64_vec();
}

void IndexLayout::shape(Shape& shape) {
  if (out_ != nullptr) out_->put_u64_vec(shape.extents());
  if (in_ != nullptr) shape = Shape(in_->get_u64_vec());
}

void IndexLayout::box(Box& box) {
  bool present = !box.empty();
  flag(present);
  if (out_ != nullptr && present) {
    out_->put_u64_vec(box.lo());
    out_->put_u64_vec(box.hi());
  }
  if (in_ != nullptr && present) {
    auto lo = in_->get_u64_vec();
    box = Box(std::move(lo), in_->get_u64_vec());
  }
}

void IndexLayout::coords(CoordBuffer& coords) {
  if (out_ != nullptr) {
    out_->put_u64(coords.rank());
    out_->put_u64_vec(coords.flat());
  }
  if (in_ != nullptr) {
    const std::uint64_t rank = in_->get_u64();
    auto flat = in_->get_u64_vec();
    // Rank 0 means no coordinates; CoordBuffer refuses rank 0 with any.
    coords = rank == 0 && flat.empty()
                 ? CoordBuffer()
                 : CoordBuffer(static_cast<std::size_t>(rank), std::move(flat));
  }
}

void IndexLayout::levels(std::vector<std::vector<index_t>>& levels) {
  if (out_ != nullptr) {
    out_->put_u64(levels.size());
    for (const auto& level : levels) out_->put_u64_vec(level);
  }
  if (in_ != nullptr) {
    // Every level costs at least its length prefix: bound the count by the
    // remaining bytes before allocating.
    const std::uint64_t count = in_->get_u64();
    detail::require(count <= in_->remaining() / sizeof(std::uint64_t),
                    "serialized level count exceeds buffer size");
    levels.assign(static_cast<std::size_t>(count), {});
    for (auto& level : levels) level = in_->get_u64_vec();
  }
}

void IndexLayout::pointers(const PointerRules& rules,
                           std::span<const index_t> ptr, std::size_t count,
                           std::size_t covered) {
  if (in_ == nullptr) return;
  if (ptr.empty() || ptr.size() - 1 != count) {
    enforce(rules.length, std::to_string(ptr.size()) + " offsets for " +
                              std::to_string(count) + " runs");
  }
  for (std::size_t i = 1; i < ptr.size(); ++i) {
    if (ptr[i - 1] > ptr[i]) {
      enforce(rules.monotone, "offset " + std::to_string(i) + " decreases");
    }
  }
  if (ptr.back() != covered) {
    enforce(rules.cover, "last offset " + std::to_string(ptr.back()) +
                             " != " + std::to_string(covered) + " entries");
  }
}

void IndexLayout::equal(const char* rule, std::size_t actual,
                        std::size_t expected) {
  if (in_ != nullptr && actual != expected) {
    enforce(rule, std::to_string(actual) + " != " + std::to_string(expected));
  }
}

std::string IndexLayout::unbounded(std::span<const index_t> values,
                                   std::span<const index_t> extents) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    const index_t extent = extents[i % extents.size()];
    if (values[i] >= extent) {
      return "[" + std::to_string(i) + "] = " + std::to_string(values[i]) +
             " >= " + std::to_string(extent);
    }
  }
  return {};
}

void IndexLayout::bounded(const char* rule, std::span<const index_t> values,
                          std::span<const index_t> extents) {
  if (checks(rule)) report(rule, unbounded(values, extents));
}

void IndexLayout::sorted_within(const char* rule,
                                std::span<const index_t> values,
                                std::span<const index_t> ptr, Order order) {
  if (!checks(rule)) return;
  for (std::size_t r = 0; r + 1 < ptr.size(); ++r) {
    for (auto i = static_cast<std::size_t>(ptr[r]) + 1; i < ptr[r + 1]; ++i) {
      if (order == Order::kAscending ? values[i - 1] <= values[i]
                                     : values[i - 1] < values[i]) {
        continue;
      }
      report(rule, "run " + std::to_string(r) + ": [" +
                       std::to_string(i - 1) + "] = " +
                       std::to_string(values[i - 1]) + " then [" +
                       std::to_string(i) + "] = " + std::to_string(values[i]));
      return;
    }
  }
}

bool IndexLayout::checks(const char* rule) const {
  if (issues_ == nullptr) return false;
  const auto& items = issues_->items();
  return std::none_of(items.begin(), items.end(),
                      [&](const check::Issue& issue) {
                        return issue.rule == rule;
                      });
}

void IndexLayout::enforce(const char* rule, const std::string& witness) {
  if (!witness.empty()) throw FormatError(rule + (": " + witness));
}

void IndexLayout::report(const char* rule, std::string witness) {
  if (!witness.empty()) issues_->add(rule, std::move(witness));
}

}  // namespace artsparse
