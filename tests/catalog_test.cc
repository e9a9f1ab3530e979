#include <gtest/gtest.h>

#include "src/catalog/catalog.h"

namespace blink {
namespace {

Table SmallTable() {
  Table t(Schema({{"a", DataType::kInt64}, {"b", DataType::kString}}));
  EXPECT_TRUE(t.AppendRow({Value(int64_t{1}), Value("x")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{2}), Value("y")}).ok());
  return t;
}

TEST(CatalogTest, AddAndFindCaseInsensitive) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("Sessions", SmallTable(), 2.0).ok());
  const TableEntry* entry = catalog.Find("sessions");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->name, "Sessions");  // original casing preserved
  EXPECT_DOUBLE_EQ(entry->scale_factor, 2.0);
  EXPECT_FALSE(entry->is_dimension);
  EXPECT_EQ(catalog.Find("SESSIONS"), entry);
  EXPECT_EQ(catalog.Find("other"), nullptr);
}

TEST(CatalogTest, RejectsBadInput) {
  Catalog catalog;
  EXPECT_FALSE(catalog.AddTable("", SmallTable()).ok());
  EXPECT_FALSE(catalog.AddTable("t", SmallTable(), 0.0).ok());
  EXPECT_FALSE(catalog.AddTable("t", SmallTable(), -1.0).ok());
  ASSERT_TRUE(catalog.AddTable("t", SmallTable()).ok());
  EXPECT_FALSE(catalog.AddTable("T", SmallTable()).ok());  // duplicate
}

TEST(CatalogTest, LogicalScaleMath) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("t", SmallTable(), 1000.0).ok());
  const TableEntry* entry = catalog.Find("t");
  EXPECT_DOUBLE_EQ(entry->logical_rows(), 2.0 * 1000.0);
  EXPECT_DOUBLE_EQ(entry->logical_bytes(),
                   2.0 * entry->table.EstimatedBytesPerRow() * 1000.0);
}

TEST(CatalogTest, ReplaceRequiresSameSchema) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("t", SmallTable(), 3.0).ok());
  // Same schema: OK, scale preserved.
  Table bigger(Schema({{"a", DataType::kInt64}, {"b", DataType::kString}}));
  ASSERT_TRUE(bigger.AppendRow({Value(int64_t{9}), Value("z")}).ok());
  ASSERT_TRUE(catalog.ReplaceTable("t", std::move(bigger)).ok());
  EXPECT_EQ(catalog.Find("t")->table.num_rows(), 1u);
  EXPECT_DOUBLE_EQ(catalog.Find("t")->scale_factor, 3.0);
  // Different schema: rejected.
  Table other(Schema({{"c", DataType::kDouble}}));
  EXPECT_FALSE(catalog.ReplaceTable("t", std::move(other)).ok());
  // Unknown table: NotFound.
  Table again = SmallTable();
  EXPECT_EQ(catalog.ReplaceTable("nope", std::move(again)).code(),
            StatusCode::kNotFound);
}

TEST(CatalogTest, ListsTablesAndDimensionFlag) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("a", SmallTable()).ok());
  ASSERT_TRUE(catalog.AddTable("b", SmallTable(), 1.0, /*is_dimension=*/true).ok());
  EXPECT_EQ(catalog.TableNames().size(), 2u);
  EXPECT_TRUE(catalog.Find("b")->is_dimension);
}

}  // namespace
}  // namespace blink
