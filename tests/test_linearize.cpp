#include "core/linearize.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <typeinfo>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace artsparse {
namespace {

std::vector<index_t> v(std::initializer_list<index_t> init) { return init; }

TEST(Linearize, PaperFig1Addresses) {
  // Fig. 1(a): the five example points of the 3x3x3 tensor and their
  // LINEAR addresses.
  const Shape shape{3, 3, 3};
  EXPECT_EQ(linearize(v({0, 0, 1}), shape), 1u);
  EXPECT_EQ(linearize(v({0, 1, 1}), shape), 4u);
  EXPECT_EQ(linearize(v({0, 1, 2}), shape), 5u);
  EXPECT_EQ(linearize(v({2, 2, 1}), shape), 25u);
  EXPECT_EQ(linearize(v({2, 2, 2}), shape), 26u);
}

TEST(Linearize, RowMajorLastDimFastest) {
  const Shape shape{4, 6};
  EXPECT_EQ(linearize(v({0, 1}), shape), 1u);
  EXPECT_EQ(linearize(v({1, 0}), shape), 6u);
}

TEST(Linearize, DelinearizeRoundTrip) {
  const Shape shape{5, 7, 3};
  std::vector<index_t> point(3);
  for (index_t address = 0; address < shape.element_count(); ++address) {
    delinearize(address, shape, point);
    EXPECT_EQ(linearize(point, shape), address);
  }
}

TEST(Linearize, OutOfShapeRejected) {
  const Shape shape{3, 3};
  EXPECT_THROW(linearize(v({3, 0}), shape), FormatError);
  std::vector<index_t> out(2);
  EXPECT_THROW(delinearize(9, shape, out), FormatError);
}

TEST(Linearize, RankMismatchRejected) {
  const Shape shape{3, 3};
  EXPECT_THROW(linearize(v({1, 1, 1}), shape), FormatError);
}

TEST(Linearize, LinearizeAll) {
  const Shape shape{3, 3, 3};
  CoordBuffer coords(3);
  coords.append({0, 0, 1});
  coords.append({2, 2, 2});
  const auto addresses = linearize_all(coords, shape);
  ASSERT_EQ(addresses.size(), 2u);
  EXPECT_EQ(addresses[0], 1u);
  EXPECT_EQ(addresses[1], 26u);
}

TEST(Linearize, LocalAddressingSubtractsOrigin) {
  // Box [10..12, 20..24]: local shape 3x5.
  const Box box({10, 20}, {12, 24});
  EXPECT_EQ(linearize_local(v({10, 20}), box), 0u);
  EXPECT_EQ(linearize_local(v({10, 21}), box), 1u);
  EXPECT_EQ(linearize_local(v({11, 20}), box), 5u);
  EXPECT_EQ(linearize_local(v({12, 24}), box), 14u);
}

TEST(Linearize, LocalRoundTrip) {
  const Box box({3, 7, 1}, {5, 9, 4});
  std::vector<index_t> point(3);
  for (index_t address = 0; address < box.cell_count(); ++address) {
    delinearize_local(address, box, point);
    EXPECT_EQ(linearize_local(point, box), address);
    EXPECT_TRUE(box.contains(point));
  }
}

TEST(Linearize, LocalOutsideBoxRejected) {
  const Box box({5, 5}, {6, 6});
  EXPECT_THROW(linearize_local(v({4, 5}), box), FormatError);
}

TEST(Linearize, LocalAvoidsGlobalOverflow) {
  // A tensor too large to linearize globally, but whose occupied block is
  // tiny — the paper's block-based overflow remedy.
  const Box box({1ull << 62, 1ull << 62}, {(1ull << 62) + 1, (1ull << 62) + 1});
  EXPECT_EQ(linearize_local(v({(1ull << 62) + 1, (1ull << 62) + 1}), box),
            3u);
}

TEST(Linearize, LocalMatchesGlobalOfOffsetOnRandomBoxes) {
  // Box-local addressing is the global row-major address of p - lo in the
  // box's dense shape, at any rank and wherever the box sits (up against
  // UINT64_MAX included).
  constexpr index_t kMax = std::numeric_limits<index_t>::max();
  Xoshiro256 rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t rank = 1 + rng.next_below(6);
    std::vector<index_t> lo(rank);
    std::vector<index_t> hi(rank);
    for (std::size_t i = 0; i < rank; ++i) {
      const index_t extent = 1 + rng.next_below(9);
      lo[i] = trial % 3 == 0 ? kMax - extent + 1 - rng.next_below(4)
                             : rng.next_below(1'000'000);
      hi[i] = lo[i] + extent - 1;
    }
    const Box box(lo, hi);
    const Shape local = box.shape();
    std::vector<index_t> point(rank);
    std::vector<index_t> offset(rank);
    std::vector<index_t> back(rank);
    for (int sample = 0; sample < 20; ++sample) {
      for (std::size_t i = 0; i < rank; ++i) {
        offset[i] = rng.next_below(hi[i] - lo[i] + 1);
        point[i] = lo[i] + offset[i];
      }
      const index_t address = linearize_local(point, box);
      ASSERT_EQ(address, linearize(offset, local)) << box.to_string();
      delinearize_local(address, box, back);
      ASSERT_EQ(back, point) << box.to_string();
    }
  }
}

/// Runs `call` and expects it to throw exactly `Expected` with `message`.
template <typename Expected, typename Call>
void expect_error(Call call, const std::string& message) {
  try {
    call();
    ADD_FAILURE() << "no exception; expected: " << message;
  } catch (const Expected& e) {
    EXPECT_EQ(typeid(e), typeid(Expected));
    EXPECT_EQ(std::string(e.what()), message);
  }
}

TEST(Linearize, LocalErrorsKeepTypeAndMessage) {
  constexpr index_t kMax = std::numeric_limits<index_t>::max();
  std::vector<index_t> out2(2);
  const Box small({5, 5}, {6, 6});
  expect_error<FormatError>([&] { linearize_local(v({4, 5}), small); },
                            "point outside local bounding box");
  expect_error<FormatError>([&] { linearize_local(v({5, 5, 5}), small); },
                            "point rank does not match box rank");
  expect_error<FormatError>([&] { delinearize_local(4, small, out2); },
                            "linear address outside tensor shape");
  std::vector<index_t> out3(3);
  expect_error<FormatError>([&] { delinearize_local(0, small, out3); },
                            "output rank does not match shape rank");

  // hi - lo + 1 wraps to 0: the extent check, before any overflow check.
  const Box wrapped({0, 0}, {kMax, 3});
  expect_error<FormatError>([&] { linearize_local(v({7, 1}), wrapped); },
                            "shape extents must be positive");
  expect_error<FormatError>([&] { delinearize_local(0, wrapped, out2); },
                            "shape extents must be positive");
  const Box wrapped_and_huge({0, 0, 0}, {kMax, 1ull << 40, 1ull << 40});
  expect_error<FormatError>(
      [&] { linearize_local(v({1, 1, 1}), wrapped_and_huge); },
      "shape extents must be positive");

  // (2^32 + 1)^2 cells: more than index_t can address.
  const Box huge({0, 0}, {1ull << 32, 1ull << 32});
  expect_error<OverflowError>([&] { linearize_local(v({1, 1}), huge); },
                              "shape element count overflows 64-bit index "
                              "space");
  expect_error<OverflowError>([&] { delinearize_local(0, huge, out2); },
                              "shape element count overflows 64-bit index "
                              "space");
}

}  // namespace
}  // namespace artsparse
