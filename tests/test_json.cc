/**
 * @file
 * The JSON module: the writer's escaping, separators and number
 * forms, the reader's acceptance rules, and writer -> reader round
 * trips over every byte class the escaper treats specially.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/json.hh"

namespace dlw
{
namespace
{

// ---------------------------------------------------------------------------
// Writer

TEST(JsonWriter, SeparatorsAndNesting)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject()
        .key("a").num(1)
        .key("b").beginArray().num(-2).str("x").null().boolean(true)
        .beginObject().endObject().beginArray().endArray().endArray()
        .key("c").raw("{\"pre\":1}")
        .endObject();
    EXPECT_EQ(out, "{\"a\":1,\"b\":[-2,\"x\",null,true,{},[]],"
                   "\"c\":{\"pre\":1}}");
}

TEST(JsonWriter, NumberForms)
{
    std::string out;
    JsonWriter w(out);
    w.beginArray()
        .num(std::uint64_t{18446744073709551615u})
        .num(std::int64_t{-5})
        .num(2.0 / 3.0)
        .num(1e-7)
        .num(42.0)
        .fixed(6000.0, 1)
        .fixed(1.4899, 3)
        .endArray();
    EXPECT_EQ(out, "[18446744073709551615,-5,0.666666666667,1e-07,42,"
                   "6000.0,1.490]");
    EXPECT_EQ(formatNumber(0.1 + 0.2), "0.3");

    out.clear();
    JsonWriter(out).fixed(-1e300, 1);
    EXPECT_EQ(out.size(), 304u); // '-', 301 digits, ".0"
    EXPECT_EQ(out.substr(0, 4), "-100");
    EXPECT_EQ(out.substr(out.size() - 2), ".0");
}

TEST(JsonWriter, EscapesQuotesBackslashesAndControlBytes)
{
    std::string out;
    JsonWriter(out).str("q\"b\\n\nr\rt\tc\x01\x1f");
    EXPECT_EQ(out, "\"q\\\"b\\\\n\\nr\\rt\\tc\\u0001\\u001f\"");
}

TEST(JsonWriter, RoundTripsThroughTheReader)
{
    const std::string inputs[] = {
        "plain",
        "quote\"inside",
        "back\\slash",
        "new\nline",
        "carriage\rreturn",
        "tab\there",
        "ctl\x01" "byte",
        "utf8 \xc3\xa9\xe2\x82\xac\xf0\x9f\x92\xbe",
        "all\"\\\n\r\t\x01\xc3\xa9",
        "",
    };
    for (const std::string &in : inputs) {
        std::string out;
        JsonWriter w(out);
        w.beginObject().key(in).str(in).endObject();
        StatusOr<JsonValue> doc = parseJson(out);
        ASSERT_TRUE(doc.ok()) << doc.status().toString() << ": " << out;
        ASSERT_EQ(doc.value().members.size(), 1u);
        EXPECT_EQ(doc.value().members[0].first, in);
        EXPECT_EQ(doc.value().members[0].second.str, in);
    }
}

// ---------------------------------------------------------------------------
// Reader

TEST(Json, ParsesScalarsAndNesting)
{
    StatusOr<JsonValue> doc = parseJson(
        "{\"a\":1.5,\"b\":\"x\\\"y\",\"c\":[true,false,null],"
        "\"d\":{\"e\":-2e3}}");
    ASSERT_TRUE(doc.ok());
    const JsonValue &v = doc.value();
    ASSERT_EQ(v.type, JsonValue::Type::kObject);
    EXPECT_DOUBLE_EQ(v.find("a")->number, 1.5);
    EXPECT_EQ(v.find("b")->str, "x\"y");
    ASSERT_EQ(v.find("c")->items.size(), 3u);
    EXPECT_TRUE(v.find("c")->items[0].boolean);
    EXPECT_EQ(v.find("c")->items[2].type, JsonValue::Type::kNull);
    EXPECT_DOUBLE_EQ(v.find("d")->find("e")->number, -2000.0);
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, RejectsMalformedInput)
{
    EXPECT_FALSE(parseJson("").ok());
    EXPECT_FALSE(parseJson("{").ok());
    EXPECT_FALSE(parseJson("{\"a\":}").ok());
    EXPECT_FALSE(parseJson("[1,2,]").ok());
    EXPECT_FALSE(parseJson("{\"a\":1} trailing").ok());
    EXPECT_FALSE(parseJson("nul").ok());
}

TEST(Json, RejectsRunawayNesting)
{
    std::string deep;
    for (int i = 0; i < 200; ++i)
        deep += '[';
    EXPECT_FALSE(parseJson(deep).ok());
}

TEST(Json, LookupHelpersFallBack)
{
    StatusOr<JsonValue> doc = parseJson("{\"n\":3,\"s\":\"x\"}");
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(jsonNumberAt(&doc.value(), "n"), 3.0);
    EXPECT_EQ(jsonNumberAt(&doc.value(), "s", -1.0), -1.0);
    EXPECT_EQ(jsonNumberAt(nullptr, "n", 7.0), 7.0);
    EXPECT_EQ(jsonStringAt(&doc.value(), "s"), "x");
    EXPECT_EQ(jsonStringAt(&doc.value(), "n"), "");
}

} // anonymous namespace
} // namespace dlw
