#include "common/table.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/error.hpp"
#include "common/json.hpp"

namespace gv {
namespace {

TEST(Table, AsciiContainsHeaderAndCells) {
  Table t("demo");
  t.set_header({"a", "bb"});
  t.add_row({"1", "2"});
  const std::string s = t.to_ascii();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("bb"), std::string::npos);
  EXPECT_NE(s.find("| 1 "), std::string::npos);
}

TEST(Table, AsciiAlignsColumnWidths) {
  Table t;
  t.set_header({"x"});
  t.add_row({"longcell"});
  const std::string s = t.to_ascii();
  // The header cell must be padded to the widest cell.
  EXPECT_NE(s.find("| x        |"), std::string::npos);
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t;
  t.set_header({"name", "note"});
  t.add_row({"a,b", "say \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, CsvRoundTripSimple) {
  Table t;
  t.set_header({"h1", "h2"});
  t.add_row({"v1", "v2"});
  EXPECT_EQ(t.to_csv(), "h1,h2\nv1,v2\n");
}

TEST(Table, WriteCsvCreatesFile) {
  Table t;
  t.set_header({"k"});
  t.add_row({"v"});
  const std::string path = ::testing::TempDir() + "gv_table_test.csv";
  t.write_csv(path);
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "k");
  std::remove(path.c_str());
}

TEST(Table, WriteCsvBadPathThrows) {
  Table t;
  EXPECT_THROW(t.write_csv("/nonexistent-dir-xyz/out.csv"), Error);
}

TEST(Table, RaggedRowsRenderWithEmptyCells) {
  Table t;
  t.set_header({"a", "b", "c"});
  t.add_row({"1"});
  const std::string s = t.to_ascii();
  EXPECT_NE(s.find("| 1 |"), std::string::npos);
}

TEST(Table, FmtRoundsToPrecision) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(3.0, 0), "3");
  EXPECT_EQ(Table::fmt(-1.005, 1), "-1.0");
}

TEST(Table, PctConvertsFractionToPercent) {
  EXPECT_EQ(Table::pct(0.804), "80.4");
  EXPECT_EQ(Table::pct(1.0), "100.0");
}

TEST(Table, JsonEmitsOnlyValidNumbersBare) {
  // Cells that strtod accepts but JSON does not ("01", "1.") used to be
  // emitted as bare tokens, making the whole document invalid.
  Table t("t\x01");
  t.set_header({"a", "b", "c", "d", "e"});
  t.add_row({"12", "-0.5e3", "01", "1.", "x\"y"});
  std::string err;
  const auto doc = parse_json(t.to_json(), &err);
  ASSERT_TRUE(doc) << err << "\n" << t.to_json();
  EXPECT_EQ(doc->find("title", JsonValue::Type::kString)->str, "t\x01");
  const JsonValue& row = doc->find("rows", JsonValue::Type::kArray)->array[0];
  EXPECT_EQ(row.find("a", JsonValue::Type::kNumber)->number, 12.0);
  EXPECT_EQ(row.find("b", JsonValue::Type::kNumber)->number, -500.0);
  EXPECT_EQ(row.find("c", JsonValue::Type::kString)->str, "01");
  EXPECT_EQ(row.find("d", JsonValue::Type::kString)->str, "1.");
  EXPECT_EQ(row.find("e", JsonValue::Type::kString)->str, "x\"y");
}

TEST(Table, RowCountTracksAdds) {
  Table t;
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"x"});
  t.add_row({"y"});
  EXPECT_EQ(t.rows(), 2u);
}

}  // namespace
}  // namespace gv
