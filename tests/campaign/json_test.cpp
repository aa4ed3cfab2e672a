#include "campaign/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

namespace ctc::campaign {
namespace {

TEST(CampaignJsonTest, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true"), Json(true));
  EXPECT_EQ(Json::parse("false"), Json(false));
  EXPECT_EQ(Json::parse("42").as_int(), 42);
  EXPECT_EQ(Json::parse("-7").as_int(), -7);
  EXPECT_TRUE(Json::parse("42").is_integer());
  EXPECT_FALSE(Json::parse("42.0").is_integer());
  EXPECT_DOUBLE_EQ(Json::parse("42.5").as_number(), 42.5);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_number(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(CampaignJsonTest, IntegerAndDoubleAreDistinctButBothNumbers) {
  const Json i = Json::parse("3");
  const Json d = Json::parse("3.5");
  EXPECT_TRUE(i.is_number());
  EXPECT_TRUE(d.is_number());
  EXPECT_TRUE(i.is_integer());
  EXPECT_FALSE(d.is_integer());
  EXPECT_DOUBLE_EQ(i.as_number(), 3.0);
}

TEST(CampaignJsonTest, ObjectsPreserveInsertionOrder) {
  const Json json = Json::parse(R"({"z":1,"a":2,"m":3})");
  EXPECT_EQ(json.dump(), R"({"z":1,"a":2,"m":3})");
}

TEST(CampaignJsonTest, SetReplacesInPlaceAndAppendsAtEnd) {
  Json json = Json::object();
  json.set("a", Json(1));
  json.set("b", Json(2));
  json.set("a", Json(9));  // replace keeps position
  json.set("c", Json(3));
  EXPECT_EQ(json.dump(), R"({"a":9,"b":2,"c":3})");
}

TEST(CampaignJsonTest, RejectsDuplicateKeys) {
  EXPECT_THROW(Json::parse(R"({"a":1,"a":2})"), JsonError);
}

TEST(CampaignJsonTest, RejectsTrailingGarbageAndMalformedInput) {
  EXPECT_THROW(Json::parse("1 2"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\":}"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("'single'"), JsonError);
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  // Pathologically deep nesting is an error, not a stack overflow.
  EXPECT_THROW(Json::parse(std::string(100000, '[')), JsonError);
  std::string deep_objects;
  for (int i = 0; i < 100000; ++i) deep_objects += "{\"a\":";
  EXPECT_THROW(Json::parse(deep_objects), JsonError);
  // One level past the 256-deep bound, even when well formed.
  EXPECT_THROW(Json::parse(std::string(257, '[') + std::string(257, ']')),
               JsonError);
}

TEST(CampaignJsonTest, ParsesStringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\"b\\c\/d")").as_string(), "a\"b\\c/d");
  EXPECT_EQ(Json::parse(R"("\n\t")").as_string(), "\n\t");
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
  // Surrogate pair: U+1F600 -> 4-byte UTF-8.
  EXPECT_EQ(Json::parse(R"("😀")").as_string(), "\xF0\x9F\x98\x80");
  EXPECT_THROW(Json::parse(R"("\ud83d")"), JsonError);  // lone high surrogate
}

TEST(CampaignJsonTest, DoublesSurviveDumpParseDumpByteForByte) {
  // The checkpoint contract: a %.17g double round-trips exactly, so results
  // loaded from a manifest reduce bit-identically to fresh ones.
  for (double value : {1.0 / 3.0, 0.1, 1e-300, 3.141592653589793,
                       123456789.123456789, 5e-324}) {
    char expected[40];
    std::snprintf(expected, sizeof expected, "%.17g", value);
    const Json parsed = Json::parse(expected);
    EXPECT_DOUBLE_EQ(parsed.as_number(), value);
    const Json reparsed = Json::parse(parsed.dump());
    EXPECT_EQ(reparsed.dump(), parsed.dump());
  }
}

TEST(CampaignJsonTest, NestedDocumentRoundTrips) {
  const std::string text =
      R"({"name":"x","grid":[{"axis":"snr_db","list":[7,9.5,-1]}],"ok":true,"none":null})";
  EXPECT_EQ(Json::parse(text).dump(), text);
  // Exactly at the 256-deep nesting bound.
  const std::string deepest = std::string(255, '[') + R"({"a":1})" +
                              std::string(255, ']');
  EXPECT_EQ(Json::parse(deepest).dump(), deepest);
}

TEST(CampaignJsonTest, Uint64AboveInt64MaxWidensToDouble) {
  const Json big(std::uint64_t{1} << 63);
  EXPECT_FALSE(big.is_integer());
  EXPECT_DOUBLE_EQ(big.as_number(), 9223372036854775808.0);
  const Json small(std::uint64_t{20190707});
  EXPECT_TRUE(small.is_integer());
  EXPECT_EQ(small.as_uint(), 20190707u);
}

TEST(CampaignJsonTest, RejectsNonFiniteNumbers) {
  // Out-of-range literals would become +/-inf via strtod; parse must reject
  // them instead of producing a value dump() cannot round-trip.
  EXPECT_THROW(Json::parse("1e400"), JsonError);
  EXPECT_THROW(Json::parse("-1e400"), JsonError);
  EXPECT_THROW(Json::parse(R"({"x":[1,2,1e999]})"), JsonError);
  // Tiny literals underflow toward zero, which is fine.
  EXPECT_DOUBLE_EQ(Json::parse("1e-400").as_number(), 0.0);

  EXPECT_THROW(Json(std::numeric_limits<double>::infinity()).dump(), JsonError);
  EXPECT_THROW(Json(-std::numeric_limits<double>::infinity()).dump(), JsonError);
  EXPECT_THROW(Json(std::numeric_limits<double>::quiet_NaN()).dump(), JsonError);
  Json array = Json::array();
  array.push_back(Json(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_THROW(array.dump(), JsonError);
}

TEST(CampaignJsonTest, AccessorsThrowOnTypeMismatch) {
  const Json json = Json::parse("[1]");
  EXPECT_THROW(json.as_object(), JsonError);
  EXPECT_THROW(json.as_string(), JsonError);
  EXPECT_THROW(json.at("x"), JsonError);
  EXPECT_THROW(Json::parse("\"s\"").as_number(), JsonError);
  EXPECT_THROW(Json::parse("1.5").as_int(), JsonError);
}

TEST(CampaignJsonTest, FindAndAtOnObjects) {
  const Json json = Json::parse(R"({"a":1,"b":"x"})");
  ASSERT_NE(json.find("a"), nullptr);
  EXPECT_EQ(json.find("a")->as_int(), 1);
  EXPECT_EQ(json.find("missing"), nullptr);
  EXPECT_EQ(json.at("b").as_string(), "x");
  EXPECT_THROW(json.at("missing"), JsonError);
}

}  // namespace
}  // namespace ctc::campaign
