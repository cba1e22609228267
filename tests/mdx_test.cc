// Unit tests for the MDX dialect: lexer, parser, executor.

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "discri/cohort.h"
#include "discri/model.h"
#include "mdx/executor.h"
#include "mdx/lexer.h"
#include "mdx/parser.h"
#include "mutate_text.h"
#include "warehouse/warehouse.h"

namespace ddgms::mdx {
namespace {

using warehouse::DimensionDef;
using warehouse::Hierarchy;
using warehouse::MeasureDef;
using warehouse::StarSchemaBuilder;
using warehouse::StarSchemaDef;
using warehouse::Warehouse;

// ----------------------------------------------------------------- lexer

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("SELECT { [A].[B] } ON COLUMNS");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 9u);  // incl. EOF
  EXPECT_EQ((*tokens)[0].type, TokenType::kIdent);
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  EXPECT_EQ((*tokens)[1].type, TokenType::kLBrace);
  EXPECT_EQ((*tokens)[2].type, TokenType::kBracketed);
  EXPECT_EQ((*tokens)[2].text, "A");
  EXPECT_EQ((*tokens)[3].type, TokenType::kDot);
  EXPECT_EQ((*tokens)[4].text, "B");
  EXPECT_EQ((*tokens)[5].type, TokenType::kRBrace);
  EXPECT_EQ(tokens->back().type, TokenType::kEof);
}

TEST(LexerTest, BracketEscapes) {
  auto tokens = Tokenize("[a]]b]");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "a]b");
}

TEST(LexerTest, BracketedMayContainSpacesAndPunctuation) {
  auto tokens = Tokenize("[very good].[60-80]");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "very good");
  EXPECT_EQ((*tokens)[2].text, "60-80");
}

TEST(LexerTest, Numbers) {
  auto tokens = Tokenize("42 -3.5");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kNumber);
  EXPECT_EQ((*tokens)[0].text, "42");
  EXPECT_EQ((*tokens)[1].text, "-3.5");
}

TEST(LexerTest, Errors) {
  EXPECT_TRUE(Tokenize("[abc").status().IsParseError());
  EXPECT_TRUE(Tokenize("@").status().IsParseError());
}

// ---------------------------------------------------------------- parser

TEST(ParserTest, FullQuery) {
  auto q = Parse(
      "SELECT NON EMPTY { [P].[Gender].Members } ON COLUMNS, "
      "{ [P].[Age].[<40], [P].[Age].[40-60] } ON ROWS "
      "FROM [Facts] "
      "WHERE ( [C].[Diabetes].[Yes], [Measures].[Count] )");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->axes.size(), 2u);
  EXPECT_TRUE(q->axes[0].non_empty);
  EXPECT_EQ(q->axes[0].target, AxisClause::Target::kColumns);
  ASSERT_EQ(q->axes[0].set.members.size(), 1u);
  EXPECT_EQ(q->axes[0].set.members[0].suffix, MemberRef::Suffix::kMembers);
  EXPECT_EQ(q->axes[1].set.members.size(), 2u);
  EXPECT_EQ(q->axes[1].set.members[1].path,
            (std::vector<std::string>{"P", "Age", "40-60"}));
  EXPECT_EQ(q->cube_name, "Facts");
  ASSERT_EQ(q->where.size(), 2u);
  EXPECT_EQ(q->where[1].path[0], "Measures");
}

TEST(ParserTest, CrossJoin) {
  auto q = Parse(
      "SELECT CROSSJOIN( { [P].[A].Members }, { [P].[B].Members } ) "
      "ON ROWS FROM [Facts]");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->axes.size(), 1u);
  EXPECT_TRUE(q->axes[0].set.is_crossjoin);
  EXPECT_EQ(q->axes[0].set.cross_left->members[0].path[1], "A");
  EXPECT_EQ(q->axes[0].set.cross_right->members[0].path[1], "B");
}

TEST(ParserTest, KeywordsCaseInsensitive) {
  EXPECT_TRUE(
      Parse("select [a].[b] on rows from [c] where [d].[e].[f]").ok());
}

TEST(ParserTest, BareSetWithoutBraces) {
  auto q = Parse("SELECT [P].[Gender].Members ON COLUMNS FROM [F]");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->axes[0].set.members.size(), 1u);
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_TRUE(Parse("FOO").status().IsParseError());
  EXPECT_TRUE(Parse("SELECT [a].[b] ON SIDEWAYS FROM [c]")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(Parse("SELECT [a].[b] ON ROWS").status().IsParseError());
  EXPECT_TRUE(Parse("SELECT { [a].[b] ON ROWS FROM [c]")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(Parse("SELECT [a].[b] ON ROWS FROM [c] junk")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(Parse("SELECT [a].bogus ON ROWS FROM [c]")
                  .status()
                  .IsParseError());
}

TEST(ParserTest, ToStringRoundTrips) {
  auto q = Parse(
      "SELECT { [P].[G].Members } ON COLUMNS FROM [F] "
      "WHERE ( [C].[D].[Yes] )");
  ASSERT_TRUE(q.ok());
  auto q2 = Parse(q->ToString());
  ASSERT_TRUE(q2.ok()) << "rendered: " << q->ToString();
  EXPECT_EQ(q2->cube_name, "F");
}

// -------------------------------------------------------------- executor

Warehouse MakeWarehouse() {
  auto schema = Schema::Make({{"Gender", DataType::kString},
                              {"AgeBand", DataType::kString},
                              {"Diabetes", DataType::kString},
                              {"FBG", DataType::kDouble}});
  Table t(std::move(schema).value());
  struct R {
    const char* g;
    const char* a;
    const char* d;
    double fbg;
  };
  const R rows[] = {
      {"F", "40-60", "No", 5.1},  {"M", "40-60", "No", 5.3},
      {"F", "60-80", "Yes", 8.2}, {"M", "60-80", "Yes", 7.6},
      {"F", "60-80", "No", 5.6},  {"F", ">80", "Yes", 9.1},
  };
  for (const R& r : rows) {
    EXPECT_TRUE(t.AppendRow({Value::Str(r.g), Value::Str(r.a),
                             Value::Str(r.d), Value::Real(r.fbg)})
                    .ok());
  }
  StarSchemaDef def;
  def.fact_name = "MedicalMeasures";
  def.measures = {MeasureDef{"FBG", "FBG"}};
  DimensionDef person;
  person.name = "Person";
  person.attributes = {"Gender", "AgeBand"};
  DimensionDef condition;
  condition.name = "Condition";
  condition.attributes = {"Diabetes"};
  def.dimensions = {person, condition};
  auto wh = StarSchemaBuilder(def).Build(t);
  EXPECT_TRUE(wh.ok());
  return std::move(wh).value();
}

TEST(ExecutorTest, CrossTabWithSlicerAndCount) {
  Warehouse wh = MakeWarehouse();
  MdxExecutor executor(&wh);
  auto result = executor.Execute(
      "SELECT { [Person].[Gender].Members } ON COLUMNS, "
      "{ [Person].[AgeBand].Members } ON ROWS "
      "FROM [MedicalMeasures] "
      "WHERE ( [Condition].[Diabetes].[Yes], [Measures].[Count] )");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->cube.facts_aggregated(), 3u);
  auto grid = result->ToGrid();
  ASSERT_TRUE(grid.ok());
  // Rows: 60-80, >80; columns: F, M.
  EXPECT_EQ(grid->num_rows(), 2u);
  EXPECT_EQ(*grid->GetCell(0, "F"), Value::Int(1));
  EXPECT_EQ(*grid->GetCell(0, "M"), Value::Int(1));
}

TEST(ExecutorTest, ExplicitMembersMergeIntoOneAxis) {
  Warehouse wh = MakeWarehouse();
  MdxExecutor executor(&wh);
  auto result = executor.Execute(
      "SELECT { [Person].[AgeBand].[60-80], [Person].[AgeBand].[>80] } "
      "ON ROWS FROM [MedicalMeasures]");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->cube.num_axes(), 1u);
  EXPECT_EQ(result->cube.facts_aggregated(), 4u);
  EXPECT_EQ(result->cube.AxisMembers(0)[0], Value::Str("60-80"));
}

TEST(ExecutorTest, MeasureSpellings) {
  Warehouse wh = MakeWarehouse();
  MdxExecutor executor(&wh);
  // Explicit aggregate.
  auto avg = executor.Execute(
      "SELECT { [Condition].[Diabetes].Members, [Measures].[Avg(FBG)] } "
      "ON ROWS FROM [MedicalMeasures]");
  ASSERT_TRUE(avg.ok()) << avg.status().ToString();
  EXPECT_NEAR(avg->cube.CellValue({Value::Str("Yes")}, 0).double_value(),
              (8.2 + 7.6 + 9.1) / 3.0, 1e-9);
  // Bare measure name defaults to Avg.
  auto bare = executor.Execute(
      "SELECT { [Condition].[Diabetes].Members, [Measures].[FBG] } "
      "ON ROWS FROM [MedicalMeasures]");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->cube.query().measures[0].fn, AggFn::kAvg);
  // Default measure is count when none named.
  auto none = executor.Execute(
      "SELECT [Condition].[Diabetes].Members ON ROWS "
      "FROM [MedicalMeasures]");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->cube.query().measures[0].fn, AggFn::kCount);
}

TEST(ExecutorTest, CrossJoinProducesTwoAxes) {
  Warehouse wh = MakeWarehouse();
  MdxExecutor executor(&wh);
  auto result = executor.Execute(
      "SELECT CROSSJOIN( { [Person].[AgeBand].Members }, "
      "{ [Person].[Gender].Members } ) ON ROWS FROM [MedicalMeasures]");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->cube.num_axes(), 2u);
  EXPECT_EQ(result->row_axes.size(), 2u);
  auto grid = result->ToGrid();  // falls back to flat table
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->num_columns(), 3u);
}

TEST(ExecutorTest, WhereMembersOfSameLevelUnion) {
  Warehouse wh = MakeWarehouse();
  MdxExecutor executor(&wh);
  auto result = executor.Execute(
      "SELECT [Person].[Gender].Members ON ROWS FROM [MedicalMeasures] "
      "WHERE ( [Person].[AgeBand].[60-80], [Person].[AgeBand].[>80] )");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cube.facts_aggregated(), 4u);
}

TEST(ExecutorTest, Errors) {
  Warehouse wh = MakeWarehouse();
  MdxExecutor executor(&wh);
  EXPECT_TRUE(executor
                  .Execute("SELECT [Person].[Gender].Members ON ROWS "
                           "FROM [WrongCube]")
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(executor
                  .Execute("SELECT [Nope].[X].Members ON ROWS "
                           "FROM [MedicalMeasures]")
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(executor
                  .Execute("SELECT [Person].[Nope].Members ON ROWS "
                           "FROM [MedicalMeasures]")
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(executor
                  .Execute("SELECT [Measures].[Bogus(FBG)] ON ROWS "
                           "FROM [MedicalMeasures]")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(executor
                  .Execute("SELECT [Measures].[Avg(Nope)] ON ROWS "
                           "FROM [MedicalMeasures]")
                  .status()
                  .IsNotFound());
  // WHERE member must be fully qualified.
  EXPECT_TRUE(executor
                  .Execute("SELECT [Person].[Gender].Members ON ROWS "
                           "FROM [MedicalMeasures] WHERE ( [Person].[X] )")
                  .status()
                  .IsParseError());
}

TEST(ExecutorTest, CaseInsensitiveCubeName) {
  Warehouse wh = MakeWarehouse();
  MdxExecutor executor(&wh);
  EXPECT_TRUE(executor
                  .Execute("SELECT [Person].[Gender].Members ON ROWS "
                           "FROM [medicalmeasures]")
                  .ok());
}

// ------------------------------------------------------------- fuzzing

// The paper's Fig 4-6 queries, Fig 5's drill-down, and a query with
// NON EMPTY, .Children and a measure in the WHERE tuple: the inputs the
// fuzzer mutates.
const char* const kFuzzQueries[] = {
    "SELECT { [PersonalInformation].[Gender].Members } ON COLUMNS, "
    "CROSSJOIN( { [PersonalInformation].[AgeBand].Members }, "
    "{ [PersonalInformation].[FamilyHistoryDiabetes].Members } ) "
    "ON ROWS FROM [MedicalMeasures]",
    "SELECT { [PersonalInformation].[Gender].Members } ON COLUMNS, "
    "{ [PersonalInformation].[AgeBand10].Members } ON ROWS "
    "FROM [MedicalMeasures] "
    "WHERE ( [MedicalCondition].[DiabetesStatus].[Type2] )",
    "SELECT { [PersonalInformation].[Gender].Members } ON COLUMNS, "
    "{ [PersonalInformation].[AgeBand10].[70-80].Children } ON ROWS "
    "FROM [MedicalMeasures] "
    "WHERE ( [MedicalCondition].[DiabetesStatus].[Type2] )",
    "SELECT { [MedicalCondition].[DiagnosticHTYearsBand].Members } "
    "ON COLUMNS, { [PersonalInformation].[AgeBand5].Members } ON ROWS "
    "FROM [MedicalMeasures] "
    "WHERE ( [MedicalCondition].[HypertensionStatus].[Yes] )",
    "SELECT NON EMPTY { [PersonalInformation].[AgeBand10].[60-70].Children, "
    "[PersonalInformation].[AgeBand10].[70-80].Children } ON ROWS, "
    "{ [MedicalCondition].[DiabetesStatus].Members } ON COLUMNS "
    "FROM [MedicalMeasures] WHERE ( [PersonalInformation].[Gender].[F], "
    "[Measures].[Avg(FBG)] )",
};

// What an insertion splices in: MDX keywords, punctuation, names the
// warehouse knows, and bytes a lexer must not trip over.
const std::string_view kMdxTokens[] = {
    "SELECT", "ON", "COLUMNS", "ROWS", "FROM", "WHERE", "NON", "EMPTY",
    "CROSSJOIN", "Members", "Children", ".Members", ".Children", "{", "}",
    "(", ")", "[", "]", "]]", ",", ".", " ", "[Measures]", "[Count]",
    "[Avg(FBG)]", "[Sum(Age)]", "[StdDev(HbA1c)]", "[MedicalMeasures]",
    "[PersonalInformation]", "[Gender]", "[AgeBand10]", "[70-80]", "[F]",
    "[MedicalCondition]", "[DiabetesStatus]", "0", "-1", "1e309", "\"",
    "\\", "\xff", "\t\n"};

// A DiScRi warehouse of 300 patients: big enough for every member the
// queries name, small enough that a mutant that compiles scans fast.
class MdxFuzzTest : public testing::TestWithParam<size_t> {
 protected:
  static void SetUpTestSuite() {
    discri::CohortOptions options;
    options.num_patients = 300;
    options.seed = 20130408;
    auto cohort = discri::GenerateCohort(options);
    ASSERT_TRUE(cohort.ok()) << cohort.status().ToString();
    Table extract = std::move(cohort).value();
    ASSERT_TRUE(discri::MakeDiscriPipeline().Run(&extract).ok());
    auto wh = StarSchemaBuilder(discri::MakeDiscriSchemaDef()).Build(extract);
    ASSERT_TRUE(wh.ok()) << wh.status().ToString();
    warehouse_ = new Warehouse(std::move(wh).value());
  }

  static void TearDownTestSuite() {
    delete warehouse_;
    warehouse_ = nullptr;
  }

  static Warehouse* warehouse_;
};

Warehouse* MdxFuzzTest::warehouse_ = nullptr;

// Every mutant either fails with a Status or executes, and an executed
// one renders its grid or fails with a Status; none crashes. About a
// second in Release over all inputs. A failure names the input and the
// mutant's seed: MutateText(kFuzzQueries[input], seed, kMdxTokens)
// replays it.
TEST_P(MdxFuzzTest, SeededMutantsReturnAStatus) {
  const size_t input = GetParam();
  MdxExecutor executor(warehouse_);
  ASSERT_TRUE(executor.Execute(kFuzzQueries[input]).ok());
  for (int i = 0; i < 40000; ++i) {
    const uint64_t seed = 20130408u + (uint64_t{input} << 32) +
                          static_cast<uint64_t>(i);
    const std::string text =
        MutateText(kFuzzQueries[input], seed, kMdxTokens);
    SCOPED_TRACE(testing::Message() << "replay: input " << input
                                    << ", MutateText seed " << seed << ": "
                                    << text);
    auto result = executor.Execute(text);
    if (!result.ok()) {
      EXPECT_FALSE(result.status().message().empty());
      continue;
    }
    auto grid = result->ToGrid();
    if (grid.ok()) {
      EXPECT_TRUE(grid->num_rows() > 0 || result->cube.num_cells() == 0);
    }
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Queries, MdxFuzzTest,
                         testing::Range<size_t>(0, std::size(kFuzzQueries)));

}  // namespace
}  // namespace ddgms::mdx
