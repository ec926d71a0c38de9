// The strict JSON codec: the RFC 8259 accept/reject boundary (the cases
// Python's json.load also rejects), \u decoding to UTF-8, and the writer
// round trip through the reader.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <string>

namespace gv {
namespace {

TEST(Json, AcceptsWellFormedDocuments) {
  for (const char* doc :
       {"0", "-0", "12", "-1.5e-3", "1E+9", "0.25", "true", "false", "null",
        "\"\"", "[]", "{}", " \t\r\n[1, 2] \n", "{\"a\": [1, {\"b\": null}]}",
        "\"\\\"\\\\\\/\\b\\f\\n\\r\\t\""}) {
    std::string err;
    EXPECT_TRUE(parse_json(doc, &err).has_value()) << doc << ": " << err;
  }
}

TEST(Json, RejectsWhatRfc8259Rejects) {
  const std::string raw_ctl = std::string("\"a") + '\x01' + "b\"";
  const std::string raw_newline = "\"line\nbreak\"";
  for (const std::string& doc : std::initializer_list<std::string>{
           "", " ", "+1", "01", "-01", "1-2", "1.", ".5", "-", "1e", "1e+",
           "0x10", "nan", "NaN", "Infinity", "-inf", "1e999", "[1,]",
           "{\"a\":1,}", "[,1]", "{\"a\" 1}", "{a:1}", "{\"a\":}", "[1 2]",
           "\"\\q\"", "\"\\x41\"", "\"\\u12\"", "\"\\u12g4\"", "\"\\",
           "\"abc", "\"\\ud800\"", "\"\\udc00\"", "\"\\ud800\\u0041\"",
           raw_ctl, raw_newline, "[1] x", "{} {}", "[1]]", "tru", "nul",
           "True", "'a'", "[\"a\"\x0b]"}) {
    std::string err;
    EXPECT_FALSE(parse_json(doc, &err).has_value()) << "accepted: " << doc;
    EXPECT_FALSE(err.empty()) << doc;
  }
}

TEST(Json, RejectsRunawayNesting) {
  EXPECT_TRUE(parse_json(std::string(100, '[') + std::string(100, ']')));
  EXPECT_FALSE(parse_json(std::string(100000, '[')));
}

TEST(Json, ParsesTypedValuesAndFindChecksTheType) {
  const auto v = parse_json(
      "{\"n\": -2.5e2, \"s\": \"x\", \"b\": true, \"a\": [1, 2], \"o\": {}, "
      "\"z\": null, \"s\": \"last\"}");
  ASSERT_TRUE(v);
  ASSERT_EQ(v->type, JsonValue::Type::kObject);
  ASSERT_NE(v->find("n", JsonValue::Type::kNumber), nullptr);
  EXPECT_EQ(v->find("n", JsonValue::Type::kNumber)->number, -250.0);
  EXPECT_EQ(v->find("n", JsonValue::Type::kString), nullptr);
  EXPECT_EQ(v->find("missing", JsonValue::Type::kNumber), nullptr);
  EXPECT_TRUE(v->find("b", JsonValue::Type::kBool)->boolean);
  EXPECT_EQ(v->find("a", JsonValue::Type::kArray)->array.size(), 2u);
  EXPECT_NE(v->find("o", JsonValue::Type::kObject), nullptr);
  EXPECT_NE(v->find("z", JsonValue::Type::kNull), nullptr);
  // A repeated key keeps the last value, as Python's json.load does.
  EXPECT_EQ(v->find("s", JsonValue::Type::kString)->str, "last");
  // find() on a non-object finds nothing.
  EXPECT_EQ(v->find("a", JsonValue::Type::kArray)->find(
                "x", JsonValue::Type::kNumber),
            nullptr);
}

TEST(Json, DecodesUnicodeEscapesToUtf8) {
  const auto decode = [](const std::string& doc) {
    const auto v = parse_json(doc);
    EXPECT_TRUE(v && v->type == JsonValue::Type::kString) << doc;
    return v ? v->str : std::string();
  };
  EXPECT_EQ(decode("\"\\u0067nn\""), "gnn");
  EXPECT_EQ(decode("\"\\u0000\""), std::string(1, '\0'));
  EXPECT_EQ(decode("\"\\u00e9\""), "\xc3\xa9");           // é
  EXPECT_EQ(decode("\"\\u20AC\""), "\xe2\x82\xac");       // €
  EXPECT_EQ(decode("\"\\ud83d\\ude00\""), "\xf0\x9f\x98\x80");  // U+1F600
  EXPECT_EQ(decode("\"caf\xc3\xa9\""), "caf\xc3\xa9");    // raw UTF-8
}

TEST(Json, EveryAsciiByteRoundTripsThroughWriterAndReader) {
  for (int c = 0x01; c <= 0x7f; ++c) {
    const std::string s = std::string("a") + static_cast<char>(c) + "z";
    std::string doc;
    append_json_string(doc, s);
    for (const char ch : doc) {
      EXPECT_GE(static_cast<unsigned char>(ch), 0x20) << "byte " << c;
    }
    std::string err;
    const auto v = parse_json(doc, &err);
    ASSERT_TRUE(v) << "byte " << c << ": " << err;
    EXPECT_EQ(v->str, s) << "byte " << c;
  }
}

TEST(Json, MultiByteUtf8RoundTripsVerbatim) {
  const std::string s = "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80 \"q\"\n";
  std::string doc;
  append_json_string(doc, s);
  const auto v = parse_json(doc);
  ASSERT_TRUE(v);
  EXPECT_EQ(v->str, s);
}

TEST(Json, NumberWriterKeepsNineSignificantDigits) {
  std::string out;
  append_json_number(out, 1.0 / 3.0);
  out += ' ';
  append_json_number(out, 123456789012.0);
  out += ' ';
  append_json_number(out, 3.0);
  EXPECT_EQ(out, "0.333333333 1.23456789e+11 3");
  for (const double v : {0.0, -2.5, 1e-300, 6.02214076e23}) {
    std::string doc;
    append_json_number(doc, v);
    const auto parsed = parse_json(doc);
    ASSERT_TRUE(parsed) << doc;
    EXPECT_DOUBLE_EQ(parsed->number, v);
  }
}

}  // namespace
}  // namespace gv
