// Tests for the from-scratch JSON component (support/json.hpp).

#include "support/json.hpp"

#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace aa::support {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(json_parse("null").is_null());
  EXPECT_TRUE(json_parse("true").as_bool());
  EXPECT_FALSE(json_parse("false").as_bool());
  EXPECT_DOUBLE_EQ(json_parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(json_parse("-3.5").as_number(), -3.5);
  EXPECT_DOUBLE_EQ(json_parse("1e3").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(json_parse("2.5E-2").as_number(), 0.025);
  EXPECT_EQ(json_parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, IntAccessorRequiresIntegral) {
  EXPECT_EQ(json_parse("7").as_int(), 7);
  EXPECT_EQ(json_parse("-9").as_int(), -9);
  EXPECT_THROW((void)json_parse("7.5").as_int(), std::runtime_error);
}

TEST(JsonParse, NestedStructures) {
  const JsonValue v = json_parse(
      R"({"a": [1, 2, {"b": true}], "c": {"d": null}, "e": "x"})");
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[1].as_number(), 2.0);
  EXPECT_TRUE(v.at("a").as_array()[2].at("b").as_bool());
  EXPECT_TRUE(v.at("c").at("d").is_null());
  EXPECT_EQ(v.at("e").as_string(), "x");
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(json_parse(R"("a\nb\t\"q\"\\")").as_string(), "a\nb\t\"q\"\\");
  EXPECT_EQ(json_parse(R"("Aé")").as_string(), "A\xc3\xa9");
  EXPECT_EQ(json_parse(R"("中")").as_string(), "\xe4\xb8\xad");
}

TEST(JsonParse, WhitespaceTolerance) {
  const JsonValue v = json_parse("  {\n\t\"k\" :\r [ 1 , 2 ]\n} ");
  EXPECT_EQ(v.at("k").as_array().size(), 2u);
}

TEST(JsonParse, ErrorsCarryPosition) {
  try {
    (void)json_parse("{\n  \"a\": nope\n}");
    FAIL() << "must throw";
  } catch (const JsonError& error) {
    EXPECT_EQ(error.line(), 2u);
    EXPECT_GT(error.column(), 1u);
  }
}

TEST(JsonParse, RejectsMalformedDocuments) {
  EXPECT_THROW((void)json_parse(""), JsonError);
  EXPECT_THROW((void)json_parse("{"), JsonError);
  EXPECT_THROW((void)json_parse("[1,]"), JsonError);
  EXPECT_THROW((void)json_parse("{\"a\" 1}"), JsonError);
  EXPECT_THROW((void)json_parse("\"unterminated"), JsonError);
  EXPECT_THROW((void)json_parse("01"), JsonError);   // Trailing garbage.
  EXPECT_THROW((void)json_parse("1 2"), JsonError);  // Two documents.
  EXPECT_THROW((void)json_parse("nul"), JsonError);
  EXPECT_THROW((void)json_parse("-"), JsonError);
  EXPECT_THROW((void)json_parse("1."), JsonError);
  EXPECT_THROW((void)json_parse("1e"), JsonError);
  EXPECT_THROW((void)json_parse("\"\\u12g4\""), JsonError);
  EXPECT_THROW((void)json_parse("\"\x01\""), JsonError);
}

TEST(JsonValue, TypeMismatchThrows) {
  const JsonValue v = json_parse("[1]");
  EXPECT_THROW((void)v.as_object(), std::runtime_error);
  EXPECT_THROW((void)v.as_string(), std::runtime_error);
  EXPECT_THROW((void)v.at("x"), std::runtime_error);
}

TEST(JsonValue, FindAndAt) {
  const JsonValue v = json_parse(R"({"a": 1})");
  EXPECT_NE(v.find("a"), nullptr);
  EXPECT_EQ(v.find("b"), nullptr);
  EXPECT_THROW((void)v.at("b"), std::runtime_error);
}

TEST(JsonValue, SetBuildsAndOverwrites) {
  JsonValue v;
  v.set("x", 1);
  v.set("y", "two");
  v.set("x", 3);
  EXPECT_DOUBLE_EQ(v.at("x").as_number(), 3.0);
  EXPECT_EQ(v.at("y").as_string(), "two");
  EXPECT_EQ(v.as_object().size(), 2u);
}

TEST(JsonDump, CompactRoundTrip) {
  const std::string doc =
      R"({"a":[1,2.5,true,null],"b":{"c":"x,\"y\""},"d":-7})";
  const JsonValue parsed = json_parse(doc);
  const JsonValue reparsed = json_parse(parsed.dump());
  EXPECT_DOUBLE_EQ(reparsed.at("a").as_array()[1].as_number(), 2.5);
  EXPECT_EQ(reparsed.at("b").at("c").as_string(), "x,\"y\"");
  EXPECT_EQ(reparsed.at("d").as_int(), -7);
}

TEST(JsonDump, PrettyPrintIsReparsable) {
  JsonValue v;
  v.set("numbers", JsonValue(JsonValue::Array{1, 2, 3}));
  v.set("nested", [] {
    JsonValue inner;
    inner.set("k", true);
    return inner;
  }());
  const std::string pretty = v.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  const JsonValue reparsed = json_parse(pretty);
  EXPECT_TRUE(reparsed.at("nested").at("k").as_bool());
}

TEST(JsonDump, IntegersStayExact) {
  EXPECT_EQ(JsonValue(std::int64_t{1000000007}).dump(), "1000000007");
  EXPECT_EQ(JsonValue(0.5).dump(), "0.5");
}

TEST(JsonDump, PreservesMemberOrder) {
  JsonValue v;
  v.set("zebra", 1);
  v.set("alpha", 2);
  const std::string out = v.dump();
  EXPECT_LT(out.find("zebra"), out.find("alpha"));
}

TEST(JsonDump, DoubleRoundTripsAtFullPrecision) {
  const double value = 0.1234567890123456789;
  const JsonValue parsed = json_parse(JsonValue(value).dump());
  EXPECT_DOUBLE_EQ(parsed.as_number(), value);
}

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

/// parse(dump(x)) must give back x bit for bit.
void expect_round_trips(double value) {
  const std::string text = JsonValue(value).dump();
  EXPECT_EQ(bits_of(json_parse(text).as_number()), bits_of(value))
      << text;
}

TEST(JsonDump, NumbersRoundTripBitwise) {
  std::vector<double> values = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::nextafter(std::numeric_limits<double>::min(), 0.0),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::epsilon(),
      0.1,
      1.0 / 3.0,
  };
  // Integers on both sides of 2^53, where the integer form hands over to
  // the shortest-digits form.
  for (std::int64_t delta = -3; delta <= 3; ++delta) {
    const double near = 9007199254740992.0 + static_cast<double>(delta);
    values.push_back(near);
    values.push_back(-near);
  }
  std::mt19937_64 bits(20261017);
  while (values.size() < 20000) {
    const std::uint64_t pattern = bits();
    double value = 0.0;
    std::memcpy(&value, &pattern, sizeof value);
    if (std::isfinite(value)) values.push_back(value);
    // Subnormals: the exponent field cleared.
    const std::uint64_t subnormal = pattern & 0x800FFFFFFFFFFFFFull;
    std::memcpy(&value, &subnormal, sizeof value);
    values.push_back(value);
  }
  for (const double value : values) expect_round_trips(value);
}

TEST(JsonDump, EscapesOnlyWhatJsonRequires) {
  EXPECT_EQ(JsonValue(std::string("plain \xc3\xa9 text")).dump(),
            "\"plain \xc3\xa9 text\"");
  EXPECT_EQ(JsonValue(std::string("a\x01\"b\\c\nd\x1f")).dump(),
            R"("a\u0001\"b\\c\nd\u001f")");
}

TEST(JsonDump, NegativeZeroKeepsItsSign) {
  EXPECT_EQ(JsonValue(-0.0).dump(), "-0");
  EXPECT_EQ(JsonValue(0.0).dump(), "0");
  EXPECT_TRUE(std::signbit(json_parse("-0").as_number()));
}

TEST(JsonDump, NonIntegersUseTheShortestDigits) {
  EXPECT_EQ(JsonValue(0.1).dump(), "0.1");
  EXPECT_EQ(JsonValue(2.5e-7).dump(), "2.5e-07");
  EXPECT_EQ(JsonValue(1e20).dump(), "1e+20");
}

TEST(JsonParse, AcceptsSubnormalLiterals) {
  EXPECT_EQ(json_parse("4.9406564584124654e-324").as_number(),
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(json_parse("-2.2250738585072009e-308").as_number(),
            -std::nextafter(std::numeric_limits<double>::min(), 0.0));
  EXPECT_THROW((void)json_parse("1e-400"), JsonError);
  EXPECT_THROW((void)json_parse("1e400"), JsonError);
}

// Numbers are read and written the same way whatever LC_NUMERIC says.
TEST(JsonLocale, CommaDecimalLocaleLeavesNumbersAlone) {
  constexpr const char* kCommaLocales[] = {"de_DE.UTF-8", "de_DE.utf8",
                                           "fr_FR.UTF-8", "fr_FR.utf8",
                                           "nl_NL.UTF-8", "ru_RU.UTF-8"};
  const std::string saved = std::setlocale(LC_NUMERIC, nullptr);
  bool comma = false;
  for (const char* name : kCommaLocales) {
    if (std::setlocale(LC_NUMERIC, name) != nullptr &&
        std::string(std::localeconv()->decimal_point) == ",") {
      comma = true;
      break;
    }
  }
  if (!comma) {
    std::setlocale(LC_NUMERIC, saved.c_str());
    GTEST_SKIP() << "no comma-decimal locale is installed";
  }
  const std::string dumped = JsonValue(1.25).dump();
  const JsonValue parsed = json_parse("[0.5, 2.5e-3]");
  std::setlocale(LC_NUMERIC, saved.c_str());
  EXPECT_EQ(dumped, "1.25");
  EXPECT_EQ(parsed.as_array()[0].as_number(), 0.5);
  EXPECT_EQ(parsed.as_array()[1].as_number(), 2.5e-3);
}

}  // namespace
}  // namespace aa::support
