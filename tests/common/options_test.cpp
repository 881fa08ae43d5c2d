#include "common/options.hpp"

#include <gtest/gtest.h>

namespace opass {
namespace {

Options make_opts() {
  Options o;
  o.add("nodes", "64", "cluster size")
      .add("rate", "1.5", "a real")
      .add("name", "abc", "a string")
      .add("verbose", "false", "a boolean");
  return o;
}

bool parse(Options& o, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return o.parse(static_cast<int>(args.size()), args.data());
}

TEST(Options, DefaultsApply) {
  auto o = make_opts();
  ASSERT_TRUE(parse(o, {}));
  EXPECT_EQ(o.integer("nodes"), 64);
  EXPECT_DOUBLE_EQ(o.real("rate"), 1.5);
  EXPECT_EQ(o.str("name"), "abc");
  EXPECT_FALSE(o.boolean("verbose"));
}

TEST(Options, EqualsForm) {
  auto o = make_opts();
  ASSERT_TRUE(parse(o, {"--nodes=128", "--name=xyz"}));
  EXPECT_EQ(o.integer("nodes"), 128);
  EXPECT_EQ(o.str("name"), "xyz");
}

TEST(Options, SpaceForm) {
  auto o = make_opts();
  ASSERT_TRUE(parse(o, {"--nodes", "32"}));
  EXPECT_EQ(o.integer("nodes"), 32);
}

TEST(Options, BareBooleanFlag) {
  auto o = make_opts();
  ASSERT_TRUE(parse(o, {"--verbose"}));
  EXPECT_TRUE(o.boolean("verbose"));
}

TEST(Options, BooleanExplicitValue) {
  auto o = make_opts();
  ASSERT_TRUE(parse(o, {"--verbose=true"}));
  EXPECT_TRUE(o.boolean("verbose"));
  auto o2 = make_opts();
  ASSERT_TRUE(parse(o2, {"--verbose=0"}));
  EXPECT_FALSE(o2.boolean("verbose"));
}

TEST(Options, UnknownFlagFails) {
  auto o = make_opts();
  EXPECT_FALSE(parse(o, {"--bogus=1"}));
  EXPECT_NE(o.error().find("bogus"), std::string::npos);
}

TEST(Options, MissingValueFails) {
  auto o = make_opts();
  EXPECT_FALSE(parse(o, {"--nodes"}));
}

TEST(Options, PositionalArgumentFails) {
  // A bare value is not silently dropped: `tool 8` must not run with the
  // default in place of --nodes=8.
  auto o = make_opts();
  EXPECT_FALSE(parse(o, {"--nodes=8", "more"}));
  EXPECT_NE(o.error().find("unexpected argument 'more'"), std::string::npos) << o.error();
  auto negative = make_opts();
  EXPECT_FALSE(parse(negative, {"-3"}));
}

TEST(Options, TypeErrorsThrow) {
  auto o = make_opts();
  ASSERT_TRUE(parse(o, {"--name=notanumber"}));
  EXPECT_THROW(o.integer("name"), std::invalid_argument);
  EXPECT_THROW(o.real("name"), std::invalid_argument);
  EXPECT_THROW(o.boolean("name"), std::invalid_argument);
}

/// The std::invalid_argument message `read` throws ("" when it does not).
template <typename Read>
std::string error_of(Read read) {
  try {
    read();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Options, UnsignedIntegerInRange) {
  auto o = make_opts();
  ASSERT_TRUE(parse(o, {"--nodes=128"}));
  const std::uint32_t nodes = o.unsigned_integer("nodes", 1);
  EXPECT_EQ(nodes, 128u);
  EXPECT_EQ(o.unsigned_integer("nodes", 128, 128), 128u);
  EXPECT_EQ(o.unsigned_integer<std::uint64_t>("nodes"), 128u);
}

TEST(Options, UnsignedIntegerRejectsNegativesInsteadOfWrapping) {
  for (const char* arg : {"--nodes=-1", "--nodes=-5"}) {
    auto o = make_opts();
    ASSERT_TRUE(parse(o, {arg}));
    const std::string err = error_of([&] { (void)o.unsigned_integer("nodes"); });
    EXPECT_NE(err.find("--nodes"), std::string::npos) << arg;
    EXPECT_NE(err.find("must be in [0, 4294967295]"), std::string::npos) << err;
    EXPECT_NE(error_of([&] { (void)o.unsigned_integer<std::uint64_t>("nodes"); }), "");
  }
}

TEST(Options, UnsignedIntegerChecksBounds) {
  auto o = make_opts();
  ASSERT_TRUE(parse(o, {"--nodes=0"}));
  EXPECT_EQ(error_of([&] { (void)o.unsigned_integer("nodes", 1); }),
            "flag --nodes must be in [1, 4294967295], got 0");
  auto o2 = make_opts();
  ASSERT_TRUE(parse(o2, {"--nodes=9"}));
  EXPECT_EQ(error_of([&] { (void)o2.unsigned_integer("nodes", 1, 4); }),
            "flag --nodes must be in [1, 4], got 9");
  auto o3 = make_opts();
  ASSERT_TRUE(parse(o3, {"--nodes=4294967296"}));
  EXPECT_NE(error_of([&] { (void)o3.unsigned_integer("nodes"); }).find("--nodes"),
            std::string::npos);
  EXPECT_EQ(o3.unsigned_integer<std::uint64_t>("nodes"), 4294967296ULL);
}

TEST(Options, MalformedNumbersNameTheFlag) {
  auto o = make_opts();
  ASSERT_TRUE(parse(o, {"--nodes=abc", "--rate=x", "--name=99999999999999999999"}));
  EXPECT_EQ(error_of([&] { (void)o.unsigned_integer("nodes"); }),
            "flag --nodes is not a 64-bit integer: 'abc'");
  EXPECT_EQ(error_of([&] { (void)o.real("rate"); }), "flag --rate is not a number: 'x'");
  // Out of int64 range: rejected, not clamped to INT64_MAX.
  EXPECT_NE(error_of([&] { (void)o.integer("name"); }).find("--name"), std::string::npos);
  // strtod parses these, but no flag means an infinite or NaN value.
  for (const char* v : {"inf", "-inf", "nan", "1e999"}) {
    const std::string arg = std::string("--rate=") + v;
    ASSERT_TRUE(parse(o, {arg.c_str()}));
    EXPECT_EQ(error_of([&] { (void)o.real("rate"); }),
              "flag --rate is not a finite number: '" + std::string(v) + "'");
  }
}

TEST(Options, IsDefaultComparesTheText) {
  auto o = make_opts();
  ASSERT_TRUE(parse(o, {"--nodes=64", "--rate=1.50", "--verbose"}));
  EXPECT_TRUE(o.is_default("nodes"));   // set, but to the default text
  EXPECT_TRUE(o.is_default("name"));    // never set
  EXPECT_FALSE(o.is_default("rate"));   // same number, different text
  EXPECT_FALSE(o.is_default("verbose"));
  EXPECT_THROW((void)o.is_default("nope"), std::invalid_argument);
}

TEST(Options, UndeclaredAccessThrows) {
  auto o = make_opts();
  EXPECT_THROW(o.str("nope"), std::invalid_argument);
}

TEST(Options, DuplicateDeclarationThrows) {
  Options o;
  o.add("x", "1", "");
  EXPECT_THROW(o.add("x", "2", ""), std::invalid_argument);
}

TEST(Options, UsageListsFlags) {
  auto o = make_opts();
  const auto u = o.usage("prog");
  EXPECT_NE(u.find("--nodes"), std::string::npos);
  EXPECT_NE(u.find("cluster size"), std::string::npos);
  EXPECT_NE(u.find("default: 64"), std::string::npos);
}

TEST(Options, LastValueWins) {
  auto o = make_opts();
  ASSERT_TRUE(parse(o, {"--nodes=1", "--nodes=2"}));
  EXPECT_EQ(o.integer("nodes"), 2);
}

}  // namespace
}  // namespace opass
