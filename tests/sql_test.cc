// Tests for the SQL SELECT dialect over the OLTP table engine.

#include <gtest/gtest.h>

#include "table/sql.h"

namespace ddgms {
namespace {

Table MakePatients() {
  auto schema = Schema::Make({{"Id", DataType::kInt64},
                              {"Gender", DataType::kString},
                              {"Age", DataType::kInt64},
                              {"FBG", DataType::kDouble},
                              {"Visit", DataType::kDate},
                              {"Active", DataType::kBool}});
  Table t(std::move(schema).value());
  struct R {
    int64_t id;
    const char* g;
    int64_t age;
    double fbg;
    const char* date;
    bool active;
  };
  const R rows[] = {
      {1, "F", 45, 5.0, "2010-02-01", true},
      {2, "M", 52, 5.4, "2010-03-01", true},
      {3, "F", 61, 6.3, "2011-01-15", false},
      {4, "M", 66, 7.8, "2011-06-20", true},
      {5, "F", 70, 8.4, "2012-09-09", false},
  };
  for (const R& r : rows) {
    EXPECT_TRUE(
        t.AppendRow({Value::Int(r.id), Value::Str(r.g), Value::Int(r.age),
                     Value::Real(r.fbg),
                     Value::FromDate(Date::FromString(r.date).value()),
                     Value::Bool(r.active)})
            .ok());
  }
  EXPECT_TRUE(t.AppendRow({Value::Int(6), Value::Str("M"), Value::Null(),
                           Value::Null(), Value::Null(),
                           Value::Bool(false)})
                  .ok());
  return t;
}

class SqlTest : public ::testing::Test {
 protected:
  SqlTest() : patients_(MakePatients()) {
    engine_.RegisterTable("patients", &patients_);
  }
  Table patients_;
  SqlEngine engine_;
};

TEST_F(SqlTest, SelectStar) {
  auto result = engine_.Execute("SELECT * FROM patients");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 6u);
  EXPECT_EQ(result->num_columns(), 6u);
}

TEST_F(SqlTest, ProjectionAndWhere) {
  auto result = engine_.Execute(
      "SELECT Id, FBG FROM patients WHERE Gender = 'F' AND Age >= 60");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 2u);
  EXPECT_EQ(result->num_columns(), 2u);
  EXPECT_EQ(*result->GetCell(0, "Id"), Value::Int(3));
}

TEST_F(SqlTest, OrPrecedenceAndParens) {
  auto no_parens = engine_.Execute(
      "SELECT Id FROM patients WHERE Gender = 'F' OR Gender = 'M' "
      "AND Age > 60");
  ASSERT_TRUE(no_parens.ok());
  // AND binds tighter: F (3 rows) OR (M AND >60) (1 row) = 4.
  EXPECT_EQ(no_parens->num_rows(), 4u);
  auto parens = engine_.Execute(
      "SELECT Id FROM patients WHERE (Gender = 'F' OR Gender = 'M') "
      "AND Age > 60");
  ASSERT_TRUE(parens.ok());
  EXPECT_EQ(parens->num_rows(), 3u);
}

TEST_F(SqlTest, NotBetweenInNull) {
  EXPECT_EQ(engine_.Execute("SELECT Id FROM patients WHERE Age BETWEEN "
                            "50 AND 66")->num_rows(),
            3u);
  EXPECT_EQ(engine_.Execute("SELECT Id FROM patients WHERE Id IN "
                            "(1, 3, 5)")->num_rows(),
            3u);
  EXPECT_EQ(
      engine_.Execute("SELECT Id FROM patients WHERE FBG IS NULL")
          ->num_rows(),
      1u);
  EXPECT_EQ(
      engine_.Execute("SELECT Id FROM patients WHERE FBG IS NOT NULL")
          ->num_rows(),
      5u);
  EXPECT_EQ(engine_.Execute(
                "SELECT Id FROM patients WHERE NOT Gender = 'F'")
                ->num_rows(),
            3u);
}

TEST_F(SqlTest, BoolAndDateLiterals) {
  EXPECT_EQ(engine_.Execute(
                "SELECT Id FROM patients WHERE Active = TRUE")
                ->num_rows(),
            3u);
  auto result = engine_.Execute(
      "SELECT Id FROM patients WHERE Visit >= DATE '2011-01-01'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 3u);
}

TEST_F(SqlTest, GroupByWithAggregates) {
  auto result = engine_.Execute(
      "SELECT Gender, count(*) AS n, avg(FBG) AS mean_fbg "
      "FROM patients GROUP BY Gender ORDER BY Gender");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 2u);
  EXPECT_EQ(*result->GetCell(0, "Gender"), Value::Str("F"));
  EXPECT_EQ(*result->GetCell(0, "n"), Value::Int(3));
  EXPECT_NEAR((*result->GetCell(0, "mean_fbg")).double_value(),
              (5.0 + 6.3 + 8.4) / 3.0, 1e-9);
}

TEST_F(SqlTest, GlobalAggregate) {
  auto result =
      engine_.Execute("SELECT max(Age) AS oldest FROM patients");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result->GetCell(0, "oldest"), Value::Int(70));
}

TEST_F(SqlTest, OrderByDescAndLimit) {
  auto result = engine_.Execute(
      "SELECT Id FROM patients WHERE Age IS NOT NULL "
      "ORDER BY Age DESC LIMIT 2");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 2u);
  EXPECT_EQ(*result->GetCell(0, "Id"), Value::Int(5));
  EXPECT_EQ(*result->GetCell(1, "Id"), Value::Int(4));
}

TEST_F(SqlTest, QuotedIdentifiersAndCaseInsensitiveKeywords) {
  auto result = engine_.Execute(
      "select \"Id\" from patients where \"Gender\" = 'F' limit 1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 1u);
}

TEST_F(SqlTest, StringEscapes) {
  Table t(Schema::Make({{"s", DataType::kString}}).value());
  ASSERT_TRUE(t.AppendRow({Value::Str("it's")}).ok());
  SqlEngine engine;
  engine.RegisterTable("q", &t);
  auto result = engine.Execute("SELECT s FROM q WHERE s = 'it''s'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 1u);
}

TEST_F(SqlTest, TypeMismatchNeverMatches) {
  auto result =
      engine_.Execute("SELECT Id FROM patients WHERE Gender = 42");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 0u);
}

TEST_F(SqlTest, Errors) {
  EXPECT_TRUE(engine_.Execute("SELECT").status().IsParseError());
  EXPECT_TRUE(engine_.Execute("SELECT * FROM nope").status().IsNotFound());
  EXPECT_TRUE(engine_.Execute("SELECT * FROM patients WHERE")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(engine_.Execute("SELECT Nope FROM patients")
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(engine_.Execute("SELECT * FROM patients GROUP BY Gender")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(
      engine_.Execute("SELECT Age, count(*) FROM patients GROUP BY "
                      "Gender")
          .status()
          .IsInvalidArgument());
  EXPECT_TRUE(engine_.Execute("SELECT bogus(Age) FROM patients")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(engine_.Execute("SELECT * FROM patients LIMIT x")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(engine_.Execute("SELECT * FROM patients extra junk")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(engine_.Execute(
                      "SELECT Id FROM patients WHERE Visit >= DATE 42")
                  .status()
                  .IsParseError());
}

TEST_F(SqlTest, SumCountDistinctStddev) {
  auto result = engine_.Execute(
      "SELECT sum(Age) AS total, count_distinct(Gender) AS genders "
      "FROM patients");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result->GetCell(0, "total"),
            Value::Real(45 + 52 + 61 + 66 + 70));
  EXPECT_EQ(*result->GetCell(0, "genders"), Value::Int(2));
}

TEST_F(SqlTest, AggregateOverZeroRowsAnswersOneRow) {
  auto result = engine_.Execute(
      "SELECT count(*) AS n, count(FBG) AS c, count_valid(FBG) AS v, "
      "count_distinct(Gender) AS d, sum(Age) AS s, avg(FBG) AS a, "
      "min(Age) AS lo, max(Visit) AS hi, stddev(FBG) AS sd "
      "FROM patients WHERE Age > 1000");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 1u);
  for (const char* count : {"n", "c", "v", "d"}) {
    EXPECT_EQ(*result->GetCell(0, count), Value::Int(0)) << count;
    EXPECT_EQ(result->GetCell(0, count)->type(), DataType::kInt64) << count;
  }
  for (const char* other : {"s", "a", "lo", "hi", "sd"}) {
    EXPECT_TRUE(result->GetCell(0, other)->is_null()) << other;
  }
}

TEST_F(SqlTest, AggregateOverAnEmptyTableAnswersOneRow) {
  Table empty(patients_.schema());
  engine_.RegisterTable("nobody", &empty);
  auto result = engine_.Execute("SELECT COUNT(*) FROM nobody");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_EQ(*result->GetCell(0, "count(*)"), Value::Int(0));
  // ORDER BY leaves the one row; LIMIT 0 still answers none.
  auto ordered = engine_.Execute(
      "SELECT sum(Age) AS s FROM nobody ORDER BY s DESC LIMIT 5");
  ASSERT_TRUE(ordered.ok()) << ordered.status().ToString();
  ASSERT_EQ(ordered->num_rows(), 1u);
  EXPECT_TRUE(ordered->GetCell(0, "s")->is_null());
  auto limited = engine_.Execute("SELECT count(*) FROM nobody LIMIT 0");
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  EXPECT_EQ(limited->num_rows(), 0u);
}

TEST_F(SqlTest, GroupByOverZeroRowsAnswersNoRow) {
  auto result = engine_.Execute(
      "SELECT Gender, count(*) AS n FROM patients WHERE Age > 1000 "
      "GROUP BY Gender");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 0u);
  EXPECT_EQ(result->num_columns(), 2u);
  // A non-empty input keeps its usual answer.
  auto some = engine_.Execute(
      "SELECT count(*) AS n FROM patients WHERE Age > 60");
  ASSERT_TRUE(some.ok()) << some.status().ToString();
  ASSERT_EQ(some->num_rows(), 1u);
  EXPECT_EQ(*some->GetCell(0, "n"), Value::Int(3));
}

}  // namespace
}  // namespace ddgms
