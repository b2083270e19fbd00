// parse_json <-> write_json: the writer must be a strict, canonical
// inverse of the parser — the store's object files and index rely on
// parse(write(v)) == v and on equal values serializing to equal bytes.
#include "common/json.hpp"

#include <gtest/gtest.h>

namespace {

using hs::JsonArray;
using hs::JsonObject;
using hs::JsonValue;

std::string rewrite(const std::string& text) {
  std::string error;
  const JsonValue value = hs::parse_json(text, &error);
  EXPECT_EQ(error, "") << text;
  return hs::write_json(value);
}

TEST(JsonWriter, ScalarsRoundTrip) {
  EXPECT_EQ(rewrite("null"), "null");
  EXPECT_EQ(rewrite("true"), "true");
  EXPECT_EQ(rewrite("false"), "false");
  EXPECT_EQ(rewrite("0"), "0");
  EXPECT_EQ(rewrite("-17"), "-17");
  EXPECT_EQ(rewrite("0.5"), "0.5");
  EXPECT_EQ(rewrite("\"hello\""), "\"hello\"");
}

TEST(JsonWriter, DoubleRoundTripIsExact) {
  // %.17g re-parses to the identical bit pattern for any double.
  for (const double value :
       {1.0 / 3.0, 1e-300, 1.7976931348623157e308, 6.25e-2, 23.17}) {
    std::string error;
    const JsonValue back =
        hs::parse_json(hs::write_json(JsonValue{value}), &error);
    ASSERT_EQ(error, "");
    ASSERT_TRUE(back.is_number());
    EXPECT_EQ(back.number(), value);
  }
}

TEST(JsonWriter, CompactAndSortedKeysAreCanonical) {
  // Two textual spellings of the same object serialize identically.
  const std::string a = rewrite("{\"b\": 1, \"a\": [1, 2,3 ]}");
  const std::string b = rewrite("{ \"a\":[1,2,3],\"b\":1.0}");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, "{\"a\":[1,2,3],\"b\":1}");
}

TEST(JsonWriter, StringEscapingRoundTrips) {
  std::string nasty = "quote\" backslash\\ tab\t newline\n cr\r ctrl";
  nasty.push_back('\x01');
  nasty += " utf8 \xc3\xa9\xe2\x82\xac";  // é €
  const std::string text = hs::write_json(JsonValue{nasty});
  std::string error;
  const JsonValue back = hs::parse_json(text, &error);
  ASSERT_EQ(error, "");
  ASSERT_TRUE(back.is_string());
  EXPECT_EQ(back.string(), nasty);
}

TEST(JsonWriter, EscapeUsesNamedEscapesAndHex) {
  EXPECT_EQ(hs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(hs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(hs::json_escape("\n\t\r"), "\\n\\t\\r");
  EXPECT_EQ(hs::json_escape(std::string_view("\x01", 1)), "\\u0001");
  EXPECT_EQ(hs::json_escape("\xc3\xa9"), "\xc3\xa9");  // UTF-8 verbatim
}

TEST(JsonParser, UnicodeEscapesDecodeToUtf8) {
  std::string error;
  const JsonValue value = hs::parse_json("\"\\u00e9 \\u20ac\"", &error);
  ASSERT_EQ(error, "");
  EXPECT_EQ(value.string(), "\xc3\xa9 \xe2\x82\xac");
  // Surrogate pair: U+1F600.
  const JsonValue emoji = hs::parse_json("\"\\ud83d\\ude00\"", &error);
  ASSERT_EQ(error, "");
  EXPECT_EQ(emoji.string(), "\xf0\x9f\x98\x80");
}

TEST(JsonParser, UnpairedSurrogateIsAnError) {
  std::string error;
  hs::parse_json("\"\\ud83d\"", &error);
  EXPECT_NE(error, "");
  hs::parse_json("\"\\ud83dx\"", &error);
  EXPECT_NE(error, "");
}

TEST(JsonWriter, NestedDocumentRoundTripsThroughItself) {
  JsonObject inner;
  inner["pi"] = JsonValue{3.141592653589793};
  inner["label"] = JsonValue{std::string("a\"b\\c\nd")};
  JsonArray list;
  list.push_back(JsonValue{nullptr});
  list.push_back(JsonValue{true});
  list.push_back(JsonValue{std::move(inner)});
  JsonObject root;
  root["list"] = JsonValue{std::move(list)};
  root["empty_array"] = JsonValue{JsonArray{}};
  root["empty_object"] = JsonValue{JsonObject{}};
  const JsonValue document{std::move(root)};

  const std::string once = hs::write_json(document);
  std::string error;
  const JsonValue back = hs::parse_json(once, &error);
  ASSERT_EQ(error, "");
  // Writer(parse(writer(v))) is a fixed point: canonical form.
  EXPECT_EQ(hs::write_json(back), once);
}

}  // namespace
