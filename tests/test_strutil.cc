/**
 * @file
 * Unit tests for common/strutil.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/strutil.hh"
#include "common/types.hh"

namespace dlw
{
namespace
{

TEST(Split, BasicFields)
{
    auto f = split("a,b,c", ',');
    ASSERT_EQ(f.size(), 3u);
    EXPECT_EQ(f[0], "a");
    EXPECT_EQ(f[1], "b");
    EXPECT_EQ(f[2], "c");
}

TEST(Split, KeepsEmptyFields)
{
    auto f = split("a,,c,", ',');
    ASSERT_EQ(f.size(), 4u);
    EXPECT_EQ(f[1], "");
    EXPECT_EQ(f[3], "");
}

TEST(Split, SingleField)
{
    auto f = split("lonely", ',');
    ASSERT_EQ(f.size(), 1u);
    EXPECT_EQ(f[0], "lonely");
}

TEST(Split, EmptyString)
{
    auto f = split("", ',');
    ASSERT_EQ(f.size(), 1u);
    EXPECT_EQ(f[0], "");
}

TEST(Trim, StripsBothEnds)
{
    EXPECT_EQ(trim("  hello \t\n"), "hello");
    EXPECT_EQ(trim("x"), "x");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
}

TEST(SplitFields, MatchesSplit)
{
    for (const char *line : {"a,b,c", "a,,c,", "lonely", "", ",", ",,,"}) {
        const std::vector<std::string> want = split(line, ',');
        std::string_view got[8];
        ASSERT_EQ(splitFields(line, ',', got, 8), want.size()) << line;
        for (std::size_t i = 0; i < want.size(); ++i)
            EXPECT_EQ(got[i], want[i]) << line << " field " << i;
    }
}

TEST(SplitFields, CountsPastTheCap)
{
    std::string_view f[2];
    EXPECT_EQ(splitFields("1,2,3,4,5", ',', f, 2), 5u);
    EXPECT_EQ(f[0], "1");
    EXPECT_EQ(f[1], "2");
    EXPECT_EQ(splitFields("1,2,3", ',', nullptr, 0), 3u);
}

TEST(TrimView, MatchesTrimWithoutCopying)
{
    const std::string s = " \t\r\v\f x y \n\r";
    const std::string_view v = trimView(s);
    EXPECT_EQ(v, "x y");
    EXPECT_EQ(v, trim(s));
    EXPECT_EQ(v.data(), s.data() + 6);
    EXPECT_EQ(trimView(" \t\r\n"), "");
    EXPECT_EQ(trimView(""), "");
}

TEST(TryParseInt, TrimsSurroundingWhitespaceAndCr)
{
    std::int64_t v = 0;
    EXPECT_TRUE(tryParseInt(" \t42\r", v));
    EXPECT_EQ(v, 42);
    EXPECT_TRUE(tryParseInt("\r-17 \n", v));
    EXPECT_EQ(v, -17);
    std::uint64_t u = 0;
    EXPECT_TRUE(tryParseUint("\t7\r\n", u));
    EXPECT_EQ(u, 7u);
}

TEST(TryParseInt, AcceptsExactlyWhatItDid)
{
    std::int64_t v = 5;
    EXPECT_TRUE(tryParseInt("-0", v));
    EXPECT_EQ(v, 0);
    EXPECT_TRUE(tryParseInt("-9223372036854775808", v));
    EXPECT_EQ(v, INT64_MIN);
    v = 5;
    // Rejections leave the output untouched.
    for (const char *bad : {"+1", "", "  ", "1 2", "1x", "0x1", "1.0",
                            "9223372036854775808", "--1", "- 1"}) {
        EXPECT_FALSE(tryParseInt(bad, v)) << bad;
        EXPECT_EQ(v, 5) << bad;
    }
}

TEST(TryParseUint, AcceptsExactlyWhatItDid)
{
    std::uint64_t v = 5;
    EXPECT_TRUE(tryParseUint("18446744073709551615", v));
    EXPECT_EQ(v, 18446744073709551615ULL);
    EXPECT_TRUE(tryParseUint("007", v));
    EXPECT_EQ(v, 7u);
    v = 5;
    // 2^64 overflows; signs are not digits.
    for (const char *bad : {"18446744073709551616", "-0", "-1", "+1",
                            "", "\r", "1,2"}) {
        EXPECT_FALSE(tryParseUint(bad, v)) << bad;
        EXPECT_EQ(v, 5u) << bad;
    }
}

TEST(StartsWith, Matches)
{
    EXPECT_TRUE(startsWith("# dlw-ms-v1", "# dlw"));
    EXPECT_FALSE(startsWith("dlw", "dlww"));
    EXPECT_TRUE(startsWith("abc", ""));
}

TEST(EndsWith, Matches)
{
    EXPECT_TRUE(endsWith("trace.csv", ".csv"));
    EXPECT_TRUE(endsWith("trace.bin", ".bin"));
    EXPECT_FALSE(endsWith("trace.csv", ".bin"));
    EXPECT_FALSE(endsWith("csv", ".csv"));
    EXPECT_TRUE(endsWith("abc", ""));
    EXPECT_TRUE(endsWith(".csv", ".csv"));
}

TEST(FormatDouble, Precision)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatDouble(1.0, 0), "1");
}

TEST(FormatBytes, PicksUnit)
{
    EXPECT_EQ(formatBytes(512), "512.00 B");
    EXPECT_EQ(formatBytes(1536.0), "1.50 KiB");
    EXPECT_EQ(formatBytes(1.5 * 1024 * 1024 * 1024), "1.50 GiB");
}

TEST(FormatDuration, PicksUnit)
{
    EXPECT_EQ(formatDuration(500), "500 ns");
    EXPECT_EQ(formatDuration(1500), "1.50 us");
    EXPECT_EQ(formatDuration(2 * kMsec), "2.00 ms");
    EXPECT_EQ(formatDuration(90 * kSec), "90.00 s");
    EXPECT_EQ(formatDuration(3 * kHour), "3.00 h");
    EXPECT_EQ(formatDuration(2 * kDay), "2.00 d");
}

TEST(Pad, LeftAndRight)
{
    EXPECT_EQ(padLeft("ab", 4), "  ab");
    EXPECT_EQ(padRight("ab", 4), "ab  ");
    EXPECT_EQ(padLeft("abcd", 2), "abcd");
}

TEST(ParseDouble, ValidValues)
{
    EXPECT_DOUBLE_EQ(parseDouble("3.5", "t"), 3.5);
    EXPECT_DOUBLE_EQ(parseDouble(" -1e3 ", "t"), -1000.0);
}

TEST(ParseDoubleDeathTest, RejectsGarbage)
{
    EXPECT_EXIT(parseDouble("abc", "field"),
                ::testing::ExitedWithCode(1), "malformed number");
    EXPECT_EXIT(parseDouble("", "field"),
                ::testing::ExitedWithCode(1), "empty field");
    EXPECT_EXIT(parseDouble("1.5x", "field"),
                ::testing::ExitedWithCode(1), "malformed number");
}

TEST(ParseInt, ValidValues)
{
    EXPECT_EQ(parseInt("42", "t"), 42);
    EXPECT_EQ(parseInt("-7", "t"), -7);
    EXPECT_EQ(parseInt(" 1000000000000 ", "t"), 1000000000000LL);
}

TEST(ParseIntDeathTest, RejectsGarbage)
{
    EXPECT_EXIT(parseInt("4.5", "field"),
                ::testing::ExitedWithCode(1), "malformed integer");
}

TEST(ParseUint, ValidValues)
{
    EXPECT_EQ(parseUint("18446744073709551615", "t"),
              18446744073709551615ULL);
}

TEST(ParseUintDeathTest, RejectsNegative)
{
    EXPECT_EXIT(parseUint("-3", "field"),
                ::testing::ExitedWithCode(1), "malformed unsigned");
}

TEST(Ticks, SecondsRoundTrip)
{
    EXPECT_DOUBLE_EQ(ticksToSeconds(kSec), 1.0);
    EXPECT_EQ(secondsToTicks(1.0), kSec);
    EXPECT_EQ(secondsToTicks(0.001), kMsec);
    EXPECT_DOUBLE_EQ(ticksToSeconds(kHour), 3600.0);
}

} // anonymous namespace
} // namespace dlw
