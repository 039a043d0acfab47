#include "util/json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "util/rng.h"

namespace panoptes::util {
namespace {

TEST(Json, DumpPrimitives) {
  EXPECT_EQ(Json(nullptr).Dump(), "null");
  EXPECT_EQ(Json(true).Dump(), "true");
  EXPECT_EQ(Json(false).Dump(), "false");
  EXPECT_EQ(Json(42).Dump(), "42");
  EXPECT_EQ(Json(-1.5).Dump(), "-1.5");
  EXPECT_EQ(Json("hi").Dump(), "\"hi\"");
}

TEST(Json, DumpEscapes) {
  EXPECT_EQ(Json("a\"b\\c\nd").Dump(), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(Json(std::string("\x01", 1)).Dump(), "\"\\u0001\"");
}

// The per-char escape loop JsonEscapeTo replaced; its bytes are the
// contract the bulk-append version must keep.
std::string ReferenceJsonEscape(std::string_view s) {
  std::string out;
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

TEST(JsonEscape, MatchesPerCharReference) {
  std::vector<std::string> inputs = {
      "",
      "creative|creative|creative|...",
      "\"quoted at start",
      "escape in \\ the middle",
      "newline at end\n",
      "\t\r\n\b\f",
      std::string("nul\0and\x01\x1f controls", 18),
      "\"\\\"\\",
      "caf\xc3\xa9 \xff\x80 bytes \x7f",
      std::string(5000, 'a') + "\"" + std::string(5000, 'b'),
  };
  // Every single byte value, alone and between escape-free runs.
  for (int c = 0; c < 256; ++c) {
    inputs.push_back(std::string(1, static_cast<char>(c)));
    inputs.push_back("ab" + std::string(1, static_cast<char>(c)) + "cd");
  }
  for (const auto& input : inputs) {
    std::string expected = ReferenceJsonEscape(input);
    std::string escaped;
    JsonEscapeTo(input, escaped);
    EXPECT_EQ(escaped, expected) << input;
    std::string appended = "prefix";
    JsonEscapeTo(input, appended);
    EXPECT_EQ(appended, "prefix" + expected) << input;
    EXPECT_EQ(Json(input).Dump(), "\"" + expected + "\"") << input;
  }
}

TEST(Json, DumpStructures) {
  JsonObject obj;
  obj["b"] = JsonArray{Json(1), Json("x")};
  obj["a"] = true;
  // std::map orders keys.
  EXPECT_EQ(Json(std::move(obj)).Dump(), "{\"a\":true,\"b\":[1,\"x\"]}");
}

TEST(Json, ParsePrimitives) {
  EXPECT_TRUE(Json::Parse("null")->is_null());
  EXPECT_TRUE(Json::Parse("true")->as_bool());
  EXPECT_EQ(Json::Parse("3.25")->as_number(), 3.25);
  EXPECT_EQ(Json::Parse("-17")->as_number(), -17);
  EXPECT_EQ(Json::Parse("\"s\"")->as_string(), "s");
}

TEST(Json, ParseStructures) {
  auto v = Json::Parse(R"({"a":[1,2,{"b":null}],"c":"d"})");
  ASSERT_TRUE(v.has_value());
  const auto* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->as_array().size(), 3u);
  EXPECT_TRUE(a->as_array()[2].Find("b")->is_null());
  EXPECT_EQ(v->Find("c")->as_string(), "d");
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(Json, ParseEscapes) {
  auto v = Json::Parse(R"("a\"b\\c\ndA")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "a\"b\\c\ndA");
}

TEST(Json, ParseUnicodeEscape) {
  auto v = Json::Parse(R"("é€")");  // é €
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "\xc3\xa9\xe2\x82\xac");
}

TEST(Json, ParseWhitespace) {
  auto v = Json::Parse("  { \"a\" :\n[ 1 ,\t2 ] }  ");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->Find("a")->as_array().size(), 2u);
}

TEST(Json, ParseRejectsGarbage) {
  EXPECT_FALSE(Json::Parse("").has_value());
  EXPECT_FALSE(Json::Parse("{").has_value());
  EXPECT_FALSE(Json::Parse("[1,]").has_value());
  EXPECT_FALSE(Json::Parse("{\"a\":}").has_value());
  EXPECT_FALSE(Json::Parse("tru").has_value());
  EXPECT_FALSE(Json::Parse("1 2").has_value());   // trailing garbage
  EXPECT_FALSE(Json::Parse("\"open").has_value());
  EXPECT_FALSE(Json::Parse("{'a':1}").has_value());
}

TEST(Json, RoundTripListing1Shape) {
  // The Opera oleads body shape from the paper's Listing 1.
  JsonObject body;
  body["channelId"] = "adxsdk_for_opera_ofa_final";
  body["deviceScreenWidth"] = 1200;
  body["latitude"] = 35.3387;
  body["userConsent"] = "false";
  body["supportedAdTypes"] = JsonArray{Json("SINGLE")};
  std::string dumped = Json(std::move(body)).Dump();

  auto parsed = Json::Parse(dumped);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Find("channelId")->as_string(),
            "adxsdk_for_opera_ofa_final");
  EXPECT_EQ(parsed->Find("deviceScreenWidth")->as_number(), 1200);
  EXPECT_NEAR(parsed->Find("latitude")->as_number(), 35.3387, 1e-9);
  EXPECT_EQ(parsed->Dump(), dumped);  // stable re-serialisation
}

// Property: Parse(Dump(x)) == Dump-identical for generated documents.
class JsonRoundTrip : public ::testing::TestWithParam<int> {};

Json GenerateValue(uint64_t& state, int depth) {
  switch (SplitMix64(state) % (depth > 2 ? 4 : 6)) {
    case 0: return Json(nullptr);
    case 1: return Json(static_cast<bool>(SplitMix64(state) & 1));
    case 2: return Json(static_cast<double>(SplitMix64(state) % 100000));
    case 3: {
      std::string s;
      for (int i = 0; i < 8; ++i) {
        s.push_back(static_cast<char>('a' + SplitMix64(state) % 26));
      }
      return Json(std::move(s));
    }
    case 4: {
      JsonArray arr;
      for (int i = 0; i < 3; ++i) {
        arr.push_back(GenerateValue(state, depth + 1));
      }
      return Json(std::move(arr));
    }
    default: {
      JsonObject obj;
      for (int i = 0; i < 3; ++i) {
        std::string key(1, static_cast<char>('a' + i));
        obj[key] = GenerateValue(state, depth + 1);
      }
      return Json(std::move(obj));
    }
  }
}

TEST_P(JsonRoundTrip, Holds) {
  uint64_t state = static_cast<uint64_t>(GetParam()) * 1337 + 7;
  Json value = GenerateValue(state, 0);
  std::string dumped = value.Dump();
  auto parsed = Json::Parse(dumped);
  ASSERT_TRUE(parsed.has_value()) << dumped;
  EXPECT_EQ(parsed->Dump(), dumped);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTrip, ::testing::Range(0, 32));

}  // namespace
}  // namespace panoptes::util
