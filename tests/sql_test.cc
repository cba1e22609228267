// Tests for the SQL SELECT dialect over the OLTP table engine, and a
// seeded mutation fuzzer over its parser.

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <string_view>

#include "mutate_text.h"
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

// ------------------------------------------------------------- fuzzing

// Statements over every clause, aggregate and literal kind: the inputs
// the fuzzer mutates.
const char* const kFuzzStatements[] = {
    "SELECT * FROM patients",
    "SELECT Id, Age FROM patients WHERE Gender = 'F' AND Age >= 50 "
    "ORDER BY Age DESC LIMIT 3",
    "SELECT Gender, count(*) AS n, avg(FBG) AS a, stddev(Age) "
    "FROM patients GROUP BY Gender ORDER BY n",
    "SELECT Id FROM patients WHERE (Age BETWEEN 40 AND 65 OR FBG IS NULL) "
    "AND NOT Gender IN ('M', 'X') AND Visit >= DATE '2010-06-01'",
    "SELECT count_distinct(Gender) AS g, sum(Age), min(Visit), max(FBG) "
    "FROM \"patients\" WHERE Active = TRUE AND FBG IS NOT NULL",
};

// What an insertion splices in: keywords, operators, punctuation, the
// table's names, literals at the edges of their types, and bytes the
// tokenizer must not trip over.
const std::string_view kSqlTokens[] = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT", "AS",
    "AND", "OR", "NOT", "BETWEEN", "IN", "IS", "NULL", "TRUE", "FALSE",
    "DATE", "ASC", "DESC", " ", "*", "(", ")", ",", "'", "''", "\"", "=",
    "<>", "!=", "!", "<=", ">=", "<", ">", "Id", "Age", "Gender", "FBG",
    "Visit", "Active", "count(", "sum(", "count_distinct(", "variance(",
    "patients", "'2010-13-45'", "0", "-1", "1.5.2", "-",
    "9223372036854775807", "99999999999999999999", "1e309", "\\", "\t\n",
    "\xff", std::string_view("\0", 1)};

// Every mutant either runs or fails with a Status, and a result it
// runs has columns and at most one row per patient. About a second in
// Release over all inputs. A failure names the input and the mutant's
// seed: MutateText(kFuzzStatements[input], seed, kSqlTokens) replays it.
class SqlFuzzTest : public testing::TestWithParam<size_t> {};

TEST_P(SqlFuzzTest, SeededMutantsReturnAStatus) {
  const size_t input = GetParam();
  const Table patients = MakePatients();
  SqlEngine engine;
  engine.RegisterTable("patients", &patients);
  ASSERT_TRUE(engine.Execute(kFuzzStatements[input]).ok());
  for (int i = 0; i < 40000; ++i) {
    const uint64_t seed = 20130408u + (uint64_t{input} << 32) +
                          static_cast<uint64_t>(i);
    const std::string sql =
        MutateText(kFuzzStatements[input], seed, kSqlTokens);
    SCOPED_TRACE(testing::Message() << "replay: input " << input
                                    << ", MutateText seed " << seed << ": "
                                    << testing::PrintToString(sql));
    auto result = engine.Execute(sql);
    if (!result.ok()) {
      EXPECT_FALSE(result.status().message().empty());
    } else {
      EXPECT_GT(result->num_columns(), 0u);
      EXPECT_LE(result->num_rows(), patients.num_rows());
    }
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Statements, SqlFuzzTest,
    testing::Range<size_t>(0, std::size(kFuzzStatements)));

}  // namespace
}  // namespace ddgms
