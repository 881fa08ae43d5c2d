#include "common/inline_vector.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace opass {
namespace {

using Vec = InlineVector<std::uint32_t, 4>;

/// True while the elements live inside the object rather than on the heap.
bool is_inline(const Vec& v) {
  const auto* begin = reinterpret_cast<const char*>(&v);
  const auto* data = reinterpret_cast<const char*>(v.data());
  return data >= begin && data < begin + sizeof v;
}

Vec filled(std::uint32_t n) {
  Vec v;
  for (std::uint32_t i = 0; i < n; ++i) v.push_back(10 + i);
  return v;
}

std::vector<std::uint32_t> items(const Vec& v) { return {v.begin(), v.end()}; }

TEST(InlineVector, HoldsNInlineAndSpillsAtNPlusOne) {
  Vec v = filled(4);
  EXPECT_TRUE(is_inline(v));
  EXPECT_EQ(v.capacity(), Vec::kInlineCapacity);
  v.push_back(14);
  EXPECT_FALSE(is_inline(v));
  EXPECT_GT(v.capacity(), Vec::kInlineCapacity);
  EXPECT_EQ(items(v), (std::vector<std::uint32_t>{10, 11, 12, 13, 14}));
  for (std::uint32_t i = 15; i < 40; ++i) v.push_back(i);
  ASSERT_EQ(v.size(), 30u);
  for (std::uint32_t i = 0; i < 30; ++i) EXPECT_EQ(v[i], 10 + i);
  EXPECT_EQ(v.front(), 10u);
}

TEST(InlineVector, ConstructsFromListsAndRanges) {
  const Vec list{7, 8, 9};
  EXPECT_EQ(items(list), (std::vector<std::uint32_t>{7, 8, 9}));
  const std::vector<std::uint32_t> six{1, 2, 3, 4, 5, 6};
  const Vec range(six.begin(), six.end());
  EXPECT_EQ(items(range), six);
  Vec assigned;
  assigned = {5, 6};
  EXPECT_EQ(items(assigned), (std::vector<std::uint32_t>{5, 6}));
  assigned.assign(six.begin(), six.end());
  EXPECT_EQ(items(assigned), six);
  EXPECT_TRUE(Vec{}.empty());
}

TEST(InlineVector, CopiesFromInlineAndHeapState) {
  for (std::uint32_t n : {0u, 3u, 4u, 5u, 9u}) {
    const Vec source = filled(n);
    const Vec copy(source);
    EXPECT_EQ(items(copy), items(source)) << n;
    EXPECT_EQ(is_inline(copy), n <= 4) << n;
    for (std::uint32_t m : {2u, 7u}) {
      Vec target = filled(m);
      target = source;
      EXPECT_EQ(items(target), items(source)) << n << " over " << m;
    }
  }
}

TEST(InlineVector, MovesFromInlineAndHeapStateAndEmptiesTheSource) {
  for (std::uint32_t n : {0u, 3u, 4u, 5u, 9u}) {
    Vec source = filled(n);
    const auto expected = items(source);
    const std::uint32_t* heap = n > 4 ? source.data() : nullptr;
    Vec moved(std::move(source));
    EXPECT_EQ(items(moved), expected) << n;
    if (heap != nullptr) {
      EXPECT_EQ(moved.data(), heap) << "the heap block is adopted, not copied";
    }
    EXPECT_TRUE(source.empty());  // the moved-from vector is empty and inline
    EXPECT_TRUE(is_inline(source));
    for (std::uint32_t m : {2u, 7u}) {
      Vec donor = filled(n);
      Vec target = filled(m);
      target = std::move(donor);
      EXPECT_EQ(items(target), expected) << n << " over " << m;
      EXPECT_TRUE(donor.empty());
      EXPECT_TRUE(is_inline(donor));
    }
  }
}

TEST(InlineVector, SelfAssignmentKeepsTheContents) {
  for (std::uint32_t n : {3u, 6u}) {
    Vec v = filled(n);
    const auto expected = items(v);
    Vec& alias = v;
    v = alias;
    EXPECT_EQ(items(v), expected) << n;
    v = std::move(alias);
    EXPECT_EQ(items(v), expected) << n;
  }
}

TEST(InlineVector, EqualityComparesElementsNotStorage) {
  Vec spilled = filled(6);
  spilled.erase(spilled.begin() + 4);
  spilled.erase(spilled.begin() + 4);
  ASSERT_FALSE(is_inline(spilled));
  EXPECT_EQ(spilled, filled(4));
  EXPECT_NE(spilled, filled(3));
  EXPECT_NE(spilled, (Vec{10, 11, 12, 99}));
  EXPECT_EQ(Vec{}, filled(0));
}

TEST(InlineVector, EraseKeepsTheOrderOfTheRest) {
  for (std::uint32_t n : {4u, 7u}) {
    Vec v = filled(n);
    std::vector<std::uint32_t> expected = items(v);
    auto it = v.erase(v.begin() + 1);
    expected.erase(expected.begin() + 1);
    EXPECT_EQ(*it, expected[1]);
    EXPECT_EQ(items(v), expected);
    v.erase(v.begin());
    expected.erase(expected.begin());
    EXPECT_EQ(items(v), expected);
    it = v.erase(v.end() - 1);
    expected.pop_back();
    EXPECT_EQ(it, v.end());
    EXPECT_EQ(items(v), expected);
  }
}

TEST(InlineVector, ClearKeepsAHeapBlockForReuse) {
  Vec v = filled(8);
  const std::size_t capacity = v.capacity();
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), capacity);
  v.push_back(1);
  EXPECT_EQ(items(v), (std::vector<std::uint32_t>{1}));
  v = Vec{};
  EXPECT_TRUE(is_inline(v));
  EXPECT_EQ(v.capacity(), Vec::kInlineCapacity);
}

}  // namespace
}  // namespace opass
