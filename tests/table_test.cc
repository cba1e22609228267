// Unit tests for src/table: Value, ColumnVector, Schema, Table.

#include <gtest/gtest.h>

#include <limits>

#include "table/column.h"
#include "table/describe.h"
#include "table/schema.h"
#include "table/table.h"
#include "table/value.h"

namespace ddgms {
namespace {

// ----------------------------------------------------------------- Value

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).type(), DataType::kBool);
  EXPECT_EQ(Value::Int(5).int_value(), 5);
  EXPECT_DOUBLE_EQ(Value::Real(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::Str("x").string_value(), "x");
  Date d = Date::FromYmd(2020, 5, 1).value();
  EXPECT_EQ(Value::FromDate(d).date_value(), d);
}

TEST(ValueTest, AsDoubleCoercions) {
  EXPECT_DOUBLE_EQ(*Value::Int(3).AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(*Value::Real(1.5).AsDouble(), 1.5);
  EXPECT_DOUBLE_EQ(*Value::Bool(true).AsDouble(), 1.0);
  EXPECT_FALSE(Value::Str("x").AsDouble().ok());
  EXPECT_FALSE(Value::Null().AsDouble().ok());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::Int(-3).ToString(), "-3");
  EXPECT_EQ(Value::Real(2.5).ToString(), "2.5");
  EXPECT_EQ(Value::Str("hi").ToString(), "hi");
}

TEST(ValueTest, CrossNumericComparison) {
  EXPECT_TRUE(Value::Int(5).Equals(Value::Real(5.0)));
  EXPECT_LT(Value::Int(4), Value::Real(4.5));
  EXPECT_GT(Value::Real(4.5).Compare(Value::Int(4)), 0);
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value::Null(), Value::Int(-1000000));
  EXPECT_LT(Value::Null(), Value::Str(""));
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value::Str("abc"), Value::Str("abd"));
  EXPECT_EQ(Value::Str("x").Compare(Value::Str("x")), 0);
}

TEST(ValueTest, HashConsistentWithEquality) {
  // 5 and 5.0 compare equal, so they must hash equal.
  EXPECT_EQ(Value::Int(5).Hash(), Value::Real(5.0).Hash());
  EXPECT_EQ(Value::Str("a").Hash(), Value::Str("a").Hash());
}

TEST(ValueTest, VectorHashAndEq) {
  ValueVectorHash hash;
  ValueVectorEq eq;
  std::vector<Value> a = {Value::Int(1), Value::Str("x")};
  std::vector<Value> b = {Value::Int(1), Value::Str("x")};
  std::vector<Value> c = {Value::Int(2), Value::Str("x")};
  EXPECT_TRUE(eq(a, b));
  EXPECT_EQ(hash(a), hash(b));
  EXPECT_FALSE(eq(a, c));
}

// ---------------------------------------------------------- ColumnVector

TEST(ColumnTest, AppendAndGet) {
  ColumnVector col("x", DataType::kInt64);
  ASSERT_TRUE(col.Append(Value::Int(1)).ok());
  ASSERT_TRUE(col.Append(Value::Null()).ok());
  ASSERT_TRUE(col.Append(Value::Int(3)).ok());
  EXPECT_EQ(col.size(), 3u);
  EXPECT_EQ(col.null_count(), 1u);
  EXPECT_EQ(col.GetValue(0), Value::Int(1));
  EXPECT_TRUE(col.GetValue(1).is_null());
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.IntAt(2), 3);
}

TEST(ColumnTest, TypeMismatchRejected) {
  ColumnVector col("x", DataType::kInt64);
  EXPECT_TRUE(col.Append(Value::Str("no")).IsInvalidArgument());
  EXPECT_EQ(col.size(), 0u);
}

TEST(ColumnTest, IntPromotesIntoDoubleColumn) {
  ColumnVector col("x", DataType::kDouble);
  ASSERT_TRUE(col.Append(Value::Int(2)).ok());
  EXPECT_DOUBLE_EQ(col.DoubleAt(0), 2.0);
}

TEST(ColumnTest, EqualsAtFollowsValueEquality) {
  ColumnVector ints("i", DataType::kInt64);
  ints.AppendInt(5);
  ints.AppendNull();
  ColumnVector doubles("d", DataType::kDouble);
  doubles.AppendDouble(5.0);
  doubles.AppendNull();
  doubles.AppendDouble(-0.0);
  doubles.AppendDouble(0.0);
  doubles.AppendDouble(std::numeric_limits<double>::quiet_NaN());
  ColumnVector strings("s", DataType::kString);
  strings.AppendString("5");
  strings.AppendNull();
  // int64 5 and double 5.0 are one value, and hash alike.
  EXPECT_TRUE(ints.EqualsAt(0, doubles, 0));
  EXPECT_TRUE(doubles.EqualsAt(0, ints, 0));
  EXPECT_EQ(ints.HashAt(0), doubles.HashAt(0));
  // Null equals null, whatever the column types, and nothing else.
  EXPECT_TRUE(ints.EqualsAt(1, strings, 1));
  EXPECT_EQ(ints.HashAt(1), strings.HashAt(1));
  EXPECT_FALSE(ints.EqualsAt(1, doubles, 0));
  EXPECT_FALSE(ints.EqualsAt(0, strings, 0));
  // -0.0 is 0.0; NaN equals only itself.
  EXPECT_TRUE(doubles.EqualsAt(2, doubles, 3));
  EXPECT_EQ(doubles.HashAt(2), doubles.HashAt(3));
  EXPECT_TRUE(doubles.EqualsAt(4, doubles, 4));
  EXPECT_FALSE(doubles.EqualsAt(4, doubles, 0));
}

TEST(ColumnTest, AppendFromConvertsLikeAppend) {
  ColumnVector ints("i", DataType::kInt64);
  ints.AppendInt(7);
  ints.AppendNull();
  ColumnVector bools("b", DataType::kBool);
  bools.AppendBool(true);
  ColumnVector to("x", DataType::kDouble);
  to.AppendFrom(ints, 0);
  to.AppendFrom(ints, 1);
  to.AppendFrom(bools, 0);
  ASSERT_EQ(to.size(), 3u);
  EXPECT_EQ(to.GetValue(0), Value::Real(7.0));
  EXPECT_TRUE(to.IsNull(1));
  EXPECT_EQ(to.null_count(), 1u);
  EXPECT_EQ(to.GetValue(2), Value::Real(1.0));
}

TEST(ColumnTest, SetValueUpdatesNullCount) {
  ColumnVector col("x", DataType::kString);
  col.AppendString("a");
  col.AppendNull();
  ASSERT_TRUE(col.SetValue(0, Value::Null()).ok());
  ASSERT_TRUE(col.SetValue(1, Value::Str("b")).ok());
  EXPECT_EQ(col.null_count(), 1u);
  EXPECT_TRUE(col.IsNull(0));
  EXPECT_EQ(col.StringAt(1), "b");
}

TEST(ColumnTest, SetValueOutOfRange) {
  ColumnVector col("x", DataType::kInt64);
  EXPECT_TRUE(col.SetValue(0, Value::Int(1)).IsOutOfRange());
}

TEST(ColumnTest, NumericAt) {
  ColumnVector col("x", DataType::kBool);
  col.AppendBool(true);
  col.AppendNull();
  EXPECT_DOUBLE_EQ(*col.NumericAt(0), 1.0);
  EXPECT_FALSE(col.NumericAt(1).ok());

  ColumnVector s("y", DataType::kString);
  s.AppendString("a");
  EXPECT_FALSE(s.NumericAt(0).ok());
}

TEST(ColumnTest, TakeReordersAndDuplicates) {
  ColumnVector col("x", DataType::kInt64);
  for (int i = 0; i < 5; ++i) col.AppendInt(i * 10);
  ColumnVector out = col.Take({4, 0, 0});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.IntAt(0), 40);
  EXPECT_EQ(out.IntAt(1), 0);
  EXPECT_EQ(out.IntAt(2), 0);
}

TEST(ColumnTest, DistinctValuesFirstAppearanceOrder) {
  ColumnVector col("x", DataType::kString);
  for (const char* v : {"b", "a", "b", "c", "a"}) col.AppendString(v);
  col.AppendNull();
  auto distinct = col.DistinctValues();
  ASSERT_EQ(distinct.size(), 3u);
  EXPECT_EQ(distinct[0], Value::Str("b"));
  EXPECT_EQ(distinct[1], Value::Str("a"));
  EXPECT_EQ(distinct[2], Value::Str("c"));
}

TEST(ColumnTest, MinMaxSkipNulls) {
  ColumnVector col("x", DataType::kDouble);
  col.AppendNull();
  col.AppendDouble(2.0);
  col.AppendDouble(-1.0);
  EXPECT_EQ(col.Min(), Value::Real(-1.0));
  EXPECT_EQ(col.Max(), Value::Real(2.0));

  ColumnVector empty("y", DataType::kDouble);
  EXPECT_TRUE(empty.Min().is_null());
}

// ---------------------------------------------------------------- Schema

TEST(SchemaTest, MakeAndLookup) {
  auto schema = Schema::Make(
      {{"a", DataType::kInt64}, {"b", DataType::kString}});
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->num_fields(), 2u);
  EXPECT_EQ(*schema->FieldIndex("b"), 1u);
  EXPECT_TRUE(schema->FieldIndex("c").status().IsNotFound());
  EXPECT_TRUE(schema->HasField("a"));
}

TEST(SchemaTest, RejectsDuplicatesAndNullType) {
  EXPECT_TRUE(Schema::Make({{"a", DataType::kInt64},
                            {"a", DataType::kString}})
                  .status()
                  .IsAlreadyExists());
  EXPECT_TRUE(Schema::Make({{"a", DataType::kNull}})
                  .status()
                  .IsInvalidArgument());
}

TEST(SchemaTest, ToStringListsFields) {
  auto schema =
      Schema::Make({{"a", DataType::kInt64}, {"b", DataType::kDate}});
  EXPECT_EQ(schema->ToString(), "a:int64, b:date");
}

// ----------------------------------------------------------------- Table

Table MakeSampleTable() {
  auto schema = Schema::Make({{"Id", DataType::kInt64},
                              {"Name", DataType::kString},
                              {"Score", DataType::kDouble}});
  Table t(std::move(schema).value());
  EXPECT_TRUE(
      t.AppendRow({Value::Int(1), Value::Str("ann"), Value::Real(3.5)})
          .ok());
  EXPECT_TRUE(
      t.AppendRow({Value::Int(2), Value::Str("bob"), Value::Null()}).ok());
  EXPECT_TRUE(
      t.AppendRow({Value::Int(3), Value::Str("cid"), Value::Real(1.5)})
          .ok());
  return t;
}

TEST(TableTest, AppendAndAccess) {
  Table t = MakeSampleTable();
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_EQ(*t.GetCell(0, "Name"), Value::Str("ann"));
  EXPECT_TRUE((*t.GetCell(1, "Score")).is_null());
  Row row = t.GetRow(2);
  EXPECT_EQ(row[0], Value::Int(3));
}

TEST(TableTest, AppendRowValidatesArityAndTypesAtomically) {
  Table t = MakeSampleTable();
  EXPECT_TRUE(t.AppendRow({Value::Int(4)}).IsInvalidArgument());
  // Type error in the *last* column must not leave partial data.
  EXPECT_TRUE(
      t.AppendRow({Value::Int(4), Value::Str("dee"), Value::Str("bad")})
          .IsInvalidArgument());
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.column(0).size(), t.column(1).size());
}

TEST(TableTest, SetCell) {
  Table t = MakeSampleTable();
  ASSERT_TRUE(t.SetCell(1, "Score", Value::Real(9.0)).ok());
  EXPECT_EQ(*t.GetCell(1, "Score"), Value::Real(9.0));
  EXPECT_TRUE(t.SetCell(99, "Score", Value::Real(0.0)).IsOutOfRange());
  EXPECT_TRUE(t.SetCell(0, "Nope", Value::Real(0.0)).IsNotFound());
}

TEST(TableTest, AddDropRenameColumn) {
  Table t = MakeSampleTable();
  ColumnVector extra("Flag", DataType::kBool);
  extra.AppendBool(true);
  extra.AppendBool(false);
  extra.AppendBool(true);
  ASSERT_TRUE(t.AddColumn(std::move(extra)).ok());
  EXPECT_TRUE(t.schema().HasField("Flag"));

  ColumnVector wrong("Short", DataType::kBool);
  wrong.AppendBool(true);
  EXPECT_TRUE(t.AddColumn(std::move(wrong)).IsInvalidArgument());

  ASSERT_TRUE(t.RenameColumn("Flag", "Active").ok());
  EXPECT_TRUE(t.schema().HasField("Active"));
  EXPECT_TRUE(t.RenameColumn("Active", "Id").IsAlreadyExists());

  ASSERT_TRUE(t.DropColumn("Active").ok());
  EXPECT_FALSE(t.schema().HasField("Active"));
  EXPECT_EQ(*t.GetCell(0, "Name"), Value::Str("ann"));
}

TEST(TableTest, ProjectAndTake) {
  Table t = MakeSampleTable();
  auto proj = t.Project({"Score", "Id"});
  ASSERT_TRUE(proj.ok());
  EXPECT_EQ(proj->num_columns(), 2u);
  EXPECT_EQ(proj->schema().field(0).name, "Score");

  Table taken = t.Take({2, 0});
  EXPECT_EQ(taken.num_rows(), 2u);
  EXPECT_EQ(*taken.GetCell(0, "Id"), Value::Int(3));
}

TEST(TableTest, FilterByPredicateFunction) {
  Table t = MakeSampleTable();
  Table f = t.Filter([](const Table& table, size_t i) {
    return !table.column(2).IsNull(i);
  });
  EXPECT_EQ(f.num_rows(), 2u);
}

TEST(TableTest, SortByWithNullsFirst) {
  Table t = MakeSampleTable();
  auto sorted = t.SortBy({"Score"});
  ASSERT_TRUE(sorted.ok());
  EXPECT_TRUE(sorted->column(2).IsNull(0));  // null first
  EXPECT_EQ(*sorted->GetCell(1, "Score"), Value::Real(1.5));
  auto desc = t.SortBy({"Score"}, /*ascending=*/false);
  EXPECT_EQ(*desc->GetCell(0, "Score"), Value::Real(3.5));
}

TEST(TableTest, ConcatRequiresSameSchema) {
  Table a = MakeSampleTable();
  Table b = MakeSampleTable();
  ASSERT_TRUE(a.Concat(b).ok());
  EXPECT_EQ(a.num_rows(), 6u);
  Table c(Schema::Make({{"Other", DataType::kInt64}}).value());
  EXPECT_TRUE(a.Concat(c).IsInvalidArgument());
}

/// One column of every type, each with a null.
Table MakeAllTypesTable(int64_t base) {
  auto schema = Schema::Make({{"B", DataType::kBool},
                              {"I", DataType::kInt64},
                              {"D", DataType::kDouble},
                              {"S", DataType::kString},
                              {"T", DataType::kDate}});
  Table t(std::move(schema).value());
  const Value null = Value::Null();
  EXPECT_TRUE(t.AppendRow({Value::Bool(true), Value::Int(base),
                           Value::Real(2.5), Value::Str("x"),
                           Value::FromDate(Date(100))})
                  .ok());
  EXPECT_TRUE(t.AppendRow({null, Value::Int(base + 1), null,
                           Value::Str(""), null})
                  .ok());
  EXPECT_TRUE(t.AppendRow({Value::Bool(false), null, Value::Real(-0.0),
                           null, Value::FromDate(Date(-5))})
                  .ok());
  return t;
}

/// Same schema, and every cell the same value of the same type (or null
/// in both).
void ExpectSameCells(const Table& actual, const Table& expected) {
  ASSERT_TRUE(actual.schema() == expected.schema());
  ASSERT_EQ(actual.num_rows(), expected.num_rows());
  for (size_t c = 0; c < actual.num_columns(); ++c) {
    const ColumnVector& a = actual.column(c);
    const ColumnVector& e = expected.column(c);
    EXPECT_EQ(a.null_count(), e.null_count()) << a.name();
    for (size_t i = 0; i < actual.num_rows(); ++i) {
      EXPECT_EQ(a.IsNull(i), e.IsNull(i)) << a.name() << " row " << i;
      EXPECT_EQ(a.GetValue(i).type(), e.GetValue(i).type());
      EXPECT_EQ(a.GetValue(i).ToString(), e.GetValue(i).ToString())
          << a.name() << " row " << i;
    }
  }
  EXPECT_EQ(actual.ApproxBytes(), expected.ApproxBytes());
}

TEST(TableTest, ConcatMatchesRowByRowAppend) {
  Table a = MakeAllTypesTable(1);
  const Table b = MakeAllTypesTable(10);
  Table expected = a;
  for (size_t i = 0; i < b.num_rows(); ++i) {
    ASSERT_TRUE(expected.AppendRow(b.GetRow(i)).ok());
  }
  ASSERT_TRUE(a.Concat(b).ok());
  ExpectSameCells(a, expected);
}

TEST(TableTest, ConcatWithItselfDoublesTheTable) {
  // Its own columns are the source: a separate case from Concat(other).
  Table t = MakeAllTypesTable(1);
  Table expected = t;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    ASSERT_TRUE(expected.AppendRow(t.GetRow(i)).ok());
  }
  ASSERT_TRUE(t.Concat(t).ok());
  ExpectSameCells(t, expected);
}

TEST(TableTest, CsvRoundTrip) {
  Table t = MakeSampleTable();
  std::string csv = t.ToCsv();
  auto back = Table::FromCsv(csv);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 3u);
  EXPECT_EQ(*back->GetCell(0, "Name"), Value::Str("ann"));
  EXPECT_TRUE((*back->GetCell(1, "Score")).is_null());
  EXPECT_EQ(back->schema().field(0).type, DataType::kInt64);
  EXPECT_EQ(back->schema().field(2).type, DataType::kDouble);
}

TEST(TableTest, CsvRoundTripKeepsHugeDoubles) {
  // Doubles with 63 or more integer digits were once written cut short:
  // 1e300 came back as 1e+62.
  const double max = std::numeric_limits<double>::max();
  auto schema = Schema::Make({{"x", DataType::kDouble}});
  Table t(std::move(schema).value());
  for (double v : {1e300, -2.5e200, max, 0.5}) {
    ASSERT_TRUE(t.AppendRow({Value::Real(v)}).ok());
  }
  auto back = Table::FromCsv(t.ToCsv());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->schema().field(0).type, DataType::kDouble);
  ASSERT_EQ(back->num_rows(), 4u);
  EXPECT_EQ(back->column(0).DoubleAt(0), 1e300);
  EXPECT_EQ(back->column(0).DoubleAt(1), -2.5e200);
  EXPECT_EQ(back->column(0).DoubleAt(2), max);
  EXPECT_EQ(back->column(0).DoubleAt(3), 0.5);
}

TEST(TableTest, CsvTypeInference) {
  auto t = Table::FromCsv(
      "i,d,s,b,date\n1,1.5,x,true,2020-01-02\n2,2,y,false,2021-03-04\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().field(0).type, DataType::kInt64);
  EXPECT_EQ(t->schema().field(1).type, DataType::kDouble);
  EXPECT_EQ(t->schema().field(2).type, DataType::kString);
  EXPECT_EQ(t->schema().field(3).type, DataType::kBool);
  EXPECT_EQ(t->schema().field(4).type, DataType::kDate);
}

TEST(TableTest, CsvIntWidensToDouble) {
  auto t = Table::FromCsv("x\n1\n2.5\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().field(0).type, DataType::kDouble);
  EXPECT_EQ(*t->GetCell(0, "x"), Value::Real(1.0));
}

TEST(TableTest, CsvConflictWidensToString) {
  auto t = Table::FromCsv("x\n1\nhello\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().field(0).type, DataType::kString);
}

TEST(TableTest, CsvNullTokens) {
  auto t = Table::FromCsv("x,y\n1,NA\n?,2\n");
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE((*t->GetCell(0, "y")).is_null());
  EXPECT_TRUE((*t->GetCell(1, "x")).is_null());
  EXPECT_EQ(t->schema().field(0).type, DataType::kInt64);
}

TEST(TableTest, CsvRaggedRowIsError) {
  EXPECT_TRUE(Table::FromCsv("a,b\n1\n").status().IsParseError());
}

TEST(TableTest, CsvNoHeader) {
  CsvReadOptions opt;
  opt.has_header = false;
  auto t = Table::FromCsv("1,2\n3,4\n", opt);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_TRUE(t->schema().HasField("col0"));
}

TEST(DescribeTest, ProfilesEveryColumn) {
  Table t = MakeSampleTable();
  auto profile = Describe(t);
  ASSERT_TRUE(profile.ok());
  ASSERT_EQ(profile->num_rows(), 3u);  // Id, Name, Score
  // Score: 2 valid + 1 null, mean of {3.5, 1.5} = 2.5.
  EXPECT_EQ(*profile->GetCell(2, "Column"), Value::Str("Score"));
  EXPECT_EQ(*profile->GetCell(2, "Count"), Value::Int(3));
  EXPECT_EQ(*profile->GetCell(2, "Nulls"), Value::Int(1));
  EXPECT_EQ(*profile->GetCell(2, "Distinct"), Value::Int(2));
  EXPECT_EQ(*profile->GetCell(2, "Min"), Value::Str("1.5"));
  EXPECT_EQ(*profile->GetCell(2, "Max"), Value::Str("3.5"));
  EXPECT_NEAR((*profile->GetCell(2, "Mean")).double_value(), 2.5, 1e-9);
  // Non-numeric columns have null Mean/StdDev but valid Min/Max.
  EXPECT_TRUE((*profile->GetCell(1, "Mean")).is_null());
  EXPECT_EQ(*profile->GetCell(1, "Min"), Value::Str("ann"));
  EXPECT_EQ(*profile->GetCell(1, "Max"), Value::Str("cid"));
}

TEST(TableTest, PrettyStringTruncates) {
  Table t = MakeSampleTable();
  std::string s = t.ToPrettyString(2);
  EXPECT_NE(s.find("(1 more rows)"), std::string::npos);
  EXPECT_NE(s.find("(null)"), std::string::npos);
}

}  // namespace
}  // namespace ddgms
