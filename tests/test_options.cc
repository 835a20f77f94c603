/**
 * @file
 * The shared Options registry: typed parsing, registry defaults,
 * the exit-2 contract for unknown / duplicate / malformed /
 * out-of-range keys and values outside a key's fixed set, per-point
 * overrides, and the generated help table.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "simcore/options.hh"

using namespace via;

namespace
{

Options
makeOpts()
{
    Options opts("optest", "options test harness");
    opts.addString("name", "default", "a string")
        .addString("shape", "open", "a fixed set: open|closed",
                   {"open", "closed"})
        .addString("list", "1,2", "a comma list of count values")
        .addInt("delta", -3, "a signed int", -10, 10)
        .addUInt("count", 7, "an unsigned int", 1, 100)
        .addDouble("ratio", 0.5, "a double", 0.0, 1.0)
        .addBool("fast", true, "a bool")
        .addFlag("verbose", "a flag");
    return opts;
}

} // namespace

TEST(Options, DefaultsApplyWhenNotGiven)
{
    Options opts = makeOpts();
    opts.parse({});
    EXPECT_EQ(opts.getString("name"), "default");
    EXPECT_EQ(opts.getInt("delta"), -3);
    EXPECT_EQ(opts.getUInt("count"), 7u);
    EXPECT_DOUBLE_EQ(opts.getDouble("ratio"), 0.5);
    EXPECT_TRUE(opts.getBool("fast"));
    EXPECT_FALSE(opts.getBool("verbose"));
    EXPECT_FALSE(opts.given("count"));
}

TEST(Options, TypedValuesParse)
{
    Options opts = makeOpts();
    opts.parse({"name=via", "delta=-7", "count=42", "ratio=0.25",
                "fast=no", "verbose=1"});
    EXPECT_EQ(opts.getString("name"), "via");
    EXPECT_EQ(opts.getInt("delta"), -7);
    EXPECT_EQ(opts.getUInt("count"), 42u);
    EXPECT_DOUBLE_EQ(opts.getDouble("ratio"), 0.25);
    EXPECT_FALSE(opts.getBool("fast"));
    EXPECT_TRUE(opts.getBool("verbose"));
    EXPECT_TRUE(opts.given("count"));
}

TEST(Options, ConfigHoldsOnlyGivenKeys)
{
    // machineParamsFrom depends on given() meaning "explicitly
    // overridden" (cam_kb= follows sspm_kb= otherwise), so a
    // default must not count as given.
    Options opts = makeOpts();
    opts.parse({"count=42"});
    EXPECT_TRUE(opts.given("count"));
    EXPECT_FALSE(opts.given("name"));
    EXPECT_FALSE(opts.given("ratio"));
}

TEST(Options, FixedSetAcceptsItsValues)
{
    Options opts = makeOpts();
    opts.parse({});
    EXPECT_EQ(opts.getString("shape"), "open");
    Options closed = makeOpts();
    closed.parse({"shape=closed"});
    EXPECT_EQ(closed.getString("shape"), "closed");
}

TEST(Options, WithOverridesOneKey)
{
    Options opts = makeOpts();
    opts.parse({"count=42", "name=via"});
    Options point = opts.with("count", "9").with("ratio", "0.75");
    EXPECT_EQ(point.getUInt("count"), 9u);
    EXPECT_DOUBLE_EQ(point.getDouble("ratio"), 0.75);
    EXPECT_TRUE(point.given("ratio"));
    EXPECT_EQ(point.getString("name"), "via");
    // The original keeps its values.
    EXPECT_EQ(opts.getUInt("count"), 42u);
    EXPECT_FALSE(opts.given("ratio"));
}

TEST(Options, ListItemsAreCheckedAsTheirKey)
{
    Options opts = makeOpts();
    opts.parse({"list=5,,60,"});
    EXPECT_EQ(opts.getList("list", "count"),
              (std::vector<std::string>{"5", "60"}));
}

TEST(Options, BoolSpellings)
{
    for (const char *spelling : {"1", "true", "yes", "on"}) {
        Options opts = makeOpts();
        opts.parse({std::string("verbose=") + spelling});
        EXPECT_TRUE(opts.getBool("verbose")) << spelling;
    }
    for (const char *spelling : {"0", "false", "no", "off"}) {
        Options opts = makeOpts();
        opts.parse({std::string("fast=") + spelling});
        EXPECT_FALSE(opts.getBool("fast")) << spelling;
    }
}

TEST(Options, KeysAreSortedAndIncludeHelp)
{
    Options opts = makeOpts();
    auto keys = opts.keys();
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    EXPECT_NE(std::find(keys.begin(), keys.end(), "help"),
              keys.end());
    EXPECT_NE(std::find(keys.begin(), keys.end(), "count"),
              keys.end());
}

TEST(Options, HelpTableListsEveryKey)
{
    Options opts = makeOpts();
    std::ostringstream os;
    opts.printHelp(os);
    std::string text = os.str();
    for (const std::string &key : opts.keys())
        EXPECT_NE(text.find(key), std::string::npos) << key;
    EXPECT_NE(text.find("optest"), std::string::npos);
    EXPECT_NE(text.find("a signed int"), std::string::npos);
}

TEST(Options, GroupHelpersRegisterSharedKeys)
{
    Options opts("grouped", "group test");
    addThreadsOption(opts);
    addSelfProfOption(opts);
    EXPECT_TRUE(opts.knows("threads"));
    EXPECT_TRUE(opts.knows("selfprof"));
    opts.parse({"threads=4"});
    EXPECT_EQ(opts.getUInt("threads"), 4u);
    EXPECT_FALSE(opts.getBool("selfprof"));
}

using OptionsDeath = ::testing::Test;

TEST(OptionsDeath, UnknownKeyExits2)
{
    Options opts = makeOpts();
    EXPECT_EXIT(opts.parse({"bogus=1"}),
                ::testing::ExitedWithCode(2),
                "unknown key 'bogus'");
}

TEST(OptionsDeath, UnknownKeyListsValidKeysSorted)
{
    Options opts = makeOpts();
    EXPECT_EXIT(opts.parse({"treads=4"}),
                ::testing::ExitedWithCode(2),
                "valid keys: count delta fast help list name ratio "
                "shape verbose");
}

TEST(OptionsDeath, DuplicateKeyExits2)
{
    Options opts = makeOpts();
    EXPECT_EXIT(opts.parse({"count=1", "count=2"}),
                ::testing::ExitedWithCode(2),
                "duplicate key 'count'");
}

TEST(OptionsDeath, MalformedIntExits2)
{
    Options opts = makeOpts();
    EXPECT_EXIT(opts.parse({"count=abc"}),
                ::testing::ExitedWithCode(2),
                "expected an integer");
}

TEST(OptionsDeath, NegativeUIntExits2)
{
    Options opts = makeOpts();
    EXPECT_EXIT(opts.parse({"count=-4"}),
                ::testing::ExitedWithCode(2),
                "non-negative integer");
}

TEST(OptionsDeath, OutOfRangeExits2)
{
    Options opts = makeOpts();
    EXPECT_EXIT(opts.parse({"count=500"}),
                ::testing::ExitedWithCode(2),
                "out of range \\[1, 100\\]");
    Options opts2 = makeOpts();
    EXPECT_EXIT(opts2.parse({"ratio=1.5"}),
                ::testing::ExitedWithCode(2),
                "out of range \\[0, 1\\]");
}

TEST(OptionsDeath, ValueOutsideFixedSetExits2)
{
    Options opts = makeOpts();
    EXPECT_EXIT(opts.parse({"shape=ajar"}),
                ::testing::ExitedWithCode(2),
                "key 'shape': unknown value 'ajar' \\(expected "
                "open\\|closed\\)");
}

TEST(OptionsDeath, WithChecksTheValue)
{
    Options opts = makeOpts();
    opts.parse({});
    EXPECT_EXIT(opts.with("count", "0"), ::testing::ExitedWithCode(2),
                "key 'count': value 0 out of range \\[1, 100\\]");
    EXPECT_EXIT(opts.with("shape", "ajar"),
                ::testing::ExitedWithCode(2), "unknown value 'ajar'");
}

TEST(OptionsDeath, BadListItemExits2)
{
    Options out_of_range = makeOpts();
    out_of_range.parse({"list=4,0"});
    EXPECT_EXIT(out_of_range.getList("list", "count"),
                ::testing::ExitedWithCode(2),
                "key 'list': item '0' \\(count\\): value 0 out of "
                "range \\[1, 100\\]");
    Options malformed = makeOpts();
    malformed.parse({"list=abc"});
    EXPECT_EXIT(malformed.getList("list", "count"),
                ::testing::ExitedWithCode(2),
                "item 'abc' \\(count\\): expected an integer");
    Options empty = makeOpts();
    empty.parse({"list=,"});
    EXPECT_EXIT(empty.getList("list", "count"),
                ::testing::ExitedWithCode(2), "key 'list': empty list");
}

TEST(OptionsDeath, MalformedArgumentExits2)
{
    Options opts = makeOpts();
    EXPECT_EXIT(opts.parse({"count"}),
                ::testing::ExitedWithCode(2),
                "expected key=value");
}

TEST(OptionsDeath, HelpExitsZero)
{
    Options key_form = makeOpts();
    EXPECT_EXIT(key_form.parse({"help=1"}),
                ::testing::ExitedWithCode(0), "");
    Options flag_form = makeOpts();
    EXPECT_EXIT(flag_form.parse({"--help"}),
                ::testing::ExitedWithCode(0), "");
}
