#include "common/units.hpp"

#include <gtest/gtest.h>

namespace opass {
namespace {

TEST(Units, Constants) {
  EXPECT_EQ(kKiB, 1024u);
  EXPECT_EQ(kMiB, 1024u * 1024u);
  EXPECT_EQ(kGiB, 1024ull * 1024 * 1024);
  EXPECT_EQ(kDefaultChunkSize, 64u * kMiB);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(to_mib(64 * kMiB), 64.0);
  EXPECT_DOUBLE_EQ(to_gib(kGiB / 2), 0.5);
  EXPECT_DOUBLE_EQ(to_mib(kMiB / 2), 0.5);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2 * kKiB), "2.0 KiB");
  EXPECT_EQ(format_bytes(64 * kMiB), "64.0 MiB");
  EXPECT_EQ(format_bytes(3 * kGiB + kGiB / 2), "3.5 GiB");
}

}  // namespace
}  // namespace opass
