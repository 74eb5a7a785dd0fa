/**
 * @file
 * Unit tests for src/common: bit utilities, stats, RNG, table printer,
 * strict CLI value parsers.
 */

#include <gtest/gtest.h>

#include "common/bitutil.hpp"
#include "common/cli.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace lmi {
namespace {

TEST(BitUtil, IsPow2)
{
    EXPECT_FALSE(isPow2(0));
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(2));
    EXPECT_FALSE(isPow2(3));
    EXPECT_TRUE(isPow2(uint64_t(1) << 63));
    EXPECT_FALSE(isPow2((uint64_t(1) << 63) + 1));
}

TEST(BitUtil, Log2Floor)
{
    EXPECT_EQ(log2Floor(1), 0u);
    EXPECT_EQ(log2Floor(2), 1u);
    EXPECT_EQ(log2Floor(3), 1u);
    EXPECT_EQ(log2Floor(256), 8u);
    EXPECT_EQ(log2Floor(257), 8u);
    EXPECT_EQ(log2Floor(~uint64_t(0)), 63u);
}

TEST(BitUtil, Log2Ceil)
{
    EXPECT_EQ(log2Ceil(1), 0u);
    EXPECT_EQ(log2Ceil(2), 1u);
    EXPECT_EQ(log2Ceil(3), 2u);
    EXPECT_EQ(log2Ceil(256), 8u);
    EXPECT_EQ(log2Ceil(257), 9u);
}

TEST(BitUtil, RoundUpPow2)
{
    EXPECT_EQ(roundUpPow2(0), 1u);
    EXPECT_EQ(roundUpPow2(1), 1u);
    EXPECT_EQ(roundUpPow2(3), 4u);
    EXPECT_EQ(roundUpPow2(256), 256u);
    EXPECT_EQ(roundUpPow2(257), 512u);
    EXPECT_EQ(roundUpPow2(uint64_t(1) << 38), uint64_t(1) << 38);
}

TEST(BitUtil, AlignUpDown)
{
    EXPECT_EQ(alignUp(0, 256), 0u);
    EXPECT_EQ(alignUp(1, 256), 256u);
    EXPECT_EQ(alignUp(256, 256), 256u);
    EXPECT_EQ(alignDown(257, 256), 256u);
    EXPECT_EQ(alignDown(255, 256), 0u);
}

TEST(BitUtil, LowMask)
{
    EXPECT_EQ(lowMask(0), 0u);
    EXPECT_EQ(lowMask(1), 1u);
    EXPECT_EQ(lowMask(8), 0xFFu);
    EXPECT_EQ(lowMask(64), ~uint64_t(0));
}

TEST(BitUtil, BitsOfInsertBitsRoundTrip)
{
    const uint64_t v = 0x0123'4567'89AB'CDEFull;
    EXPECT_EQ(bitsOf(v, 7, 0), 0xEFu);
    EXPECT_EQ(bitsOf(v, 63, 56), 0x01u);
    uint64_t w = insertBits(0, 31, 16, 0xBEEF);
    EXPECT_EQ(bitsOf(w, 31, 16), 0xBEEFu);
    EXPECT_EQ(bitsOf(w, 15, 0), 0u);
    w = insertBits(w, 31, 16, 0x1234);
    EXPECT_EQ(bitsOf(w, 31, 16), 0x1234u);
}

TEST(Stats, CountersAndGauges)
{
    StatRegistry r;
    EXPECT_EQ(r.counter("x"), 0u);
    r.inc("x");
    r.inc("x", 4);
    EXPECT_EQ(r.counter("x"), 5u);
    r.set("g", 2.5);
    EXPECT_DOUBLE_EQ(r.gauge("g"), 2.5);
    r.clear();
    EXPECT_EQ(r.counter("x"), 0u);
}

TEST(Stats, Merge)
{
    StatRegistry a, b;
    a.inc("n", 2);
    b.inc("n", 3);
    b.set("g", 1.0);
    a.merge(b);
    EXPECT_EQ(a.counter("n"), 5u);
    EXPECT_DOUBLE_EQ(a.gauge("g"), 1.0);
}

TEST(Stats, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 4.0}), 4.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_THROW(geomean({1.0, 0.0}), FatalError);
}

TEST(Stats, OverheadPct)
{
    EXPECT_NEAR(overheadPct(110.0, 100.0), 10.0, 1e-9);
    EXPECT_DOUBLE_EQ(overheadPct(100.0, 100.0), 0.0);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, RangeBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const uint64_t v = rng.range(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Rng, RealInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Table, RendersAlignedColumns)
{
    TextTable t({"a", "bench"});
    t.addRow({"1", "x"});
    t.addRow({"22", "yy"});
    const std::string s = t.render();
    EXPECT_NE(s.find("| a  | bench |"), std::string::npos);
    EXPECT_NE(s.find("| 22 | yy    |"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, RejectsWrongArity)
{
    TextTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), FatalError);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(fmtF(1.234, 2), "1.23");
    EXPECT_EQ(fmtPct(18.73), "18.73%");
    EXPECT_EQ(fmtX(32.98), "32.98x");
}

TEST(Logging, FatalThrows)
{
    EXPECT_THROW(lmi_fatal("bad config value %d", 3), FatalError);
    try {
        lmi_fatal("value=%d", 7);
    } catch (const FatalError& e) {
        EXPECT_STREQ(e.what(), "value=7");
    }
}

TEST(Cli, ParseUnsignedAcceptsWholeDecimal)
{
    unsigned v = 99;
    EXPECT_TRUE(parseUnsigned("4", &v));
    EXPECT_EQ(v, 4u);
    EXPECT_TRUE(parseUnsigned("0", &v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseUnsigned("4294967295", &v));
    EXPECT_EQ(v, 4294967295u);
}

TEST(Cli, ParseUnsignedRejectsMalformed)
{
    unsigned v = 7;
    for (const char* bad : {"", "4x", "x4", "-1", "+1", " 4", "4 ",
                            "garbage", "1.5", "4294967296",
                            "99999999999999999999999"}) {
        SCOPED_TRACE(bad);
        EXPECT_FALSE(parseUnsigned(bad, &v));
        EXPECT_EQ(v, 7u); // untouched on failure
    }
}

TEST(Cli, ParseUint64Range)
{
    uint64_t v = 0;
    EXPECT_TRUE(parseUint64("18446744073709551615", &v));
    EXPECT_EQ(v, ~uint64_t(0));
    EXPECT_FALSE(parseUint64("18446744073709551616", &v)); // overflow
    EXPECT_EQ(v, ~uint64_t(0));
}

TEST(Cli, ParseDouble)
{
    double v = -1.0;
    EXPECT_TRUE(parseDouble("4", &v));
    EXPECT_EQ(v, 4.0);
    EXPECT_TRUE(parseDouble("0.25", &v));
    EXPECT_EQ(v, 0.25);
    EXPECT_TRUE(parseDouble("1e1", &v));
    EXPECT_EQ(v, 10.0);
    for (const char* bad :
         {"", "x", "4x", " 4", "4 ", "nan", "inf", "1e999"}) {
        SCOPED_TRACE(bad);
        EXPECT_FALSE(parseDouble(bad, &v));
        EXPECT_EQ(v, 10.0);
    }
}

TEST(Cli, ParseScale)
{
    double v = 1.0;
    EXPECT_TRUE(parseScale("0.25", &v));
    EXPECT_EQ(v, 0.25);
    for (const char* bad : {"0", "-1", "0.0", "abc", ""}) {
        SCOPED_TRACE(bad);
        EXPECT_FALSE(parseScale(bad, &v));
        EXPECT_EQ(v, 0.25);
    }
}

TEST(Cli, ParseList)
{
    std::vector<std::string> v;
    EXPECT_TRUE(parseList("bfs", &v));
    EXPECT_EQ(v, std::vector<std::string>{"bfs"});
    EXPECT_TRUE(parseList("bfs,gaussian", &v));
    EXPECT_EQ(v, (std::vector<std::string>{"bfs", "gaussian"}));
    for (const char* bad : {"", ",", "bfs,", ",bfs", "bfs,,gaussian"}) {
        SCOPED_TRACE(bad);
        EXPECT_FALSE(parseList(bad, &v));
        EXPECT_EQ(v.size(), 2u);
    }
}

TEST(Cli, ParseUnsignedList)
{
    std::vector<unsigned> v;
    EXPECT_TRUE(parseUnsignedList("1,2,4", &v));
    EXPECT_EQ(v, (std::vector<unsigned>{1, 2, 4}));
    EXPECT_FALSE(parseUnsignedList("1,x", &v));
    EXPECT_FALSE(parseUnsignedList("1,-2", &v));
    EXPECT_FALSE(parseUnsignedList("", &v));
    EXPECT_EQ(v.size(), 3u);
}

} // namespace
} // namespace lmi
