// Tests for the extension features: MDX .Children, the caching cube
// engine, warehouse persistence, and wrapper-filter feature selection.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>

#include "common/csv.h"
#include "common/rng.h"
#include "core/dd_dgms.h"
#include "discri/cohort.h"
#include "discri/model.h"
#include "etl/pipeline.h"
#include "mdx/executor.h"
#include "table/sql.h"
#include "mining/feature_selection.h"
#include "mining/naive_bayes.h"
#include "olap/cache.h"
#include "report/render.h"
#include "warehouse/persist.h"
#include "warehouse/snapshot.h"

namespace ddgms {
namespace {

class ExtensionsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    discri::CohortOptions opt;
    opt.num_patients = 250;
    opt.seed = 31;
    auto raw = discri::GenerateCohort(opt);
    ASSERT_TRUE(raw.ok());
    auto dgms = core::DdDgms::Build(std::move(raw).value(),
                                    discri::MakeDiscriPipeline(),
                                    discri::MakeDiscriSchemaDef());
    ASSERT_TRUE(dgms.ok()) << dgms.status().ToString();
    dgms_ = new core::DdDgms(std::move(dgms).value());
  }
  static void TearDownTestSuite() {
    delete dgms_;
    dgms_ = nullptr;
  }
  static core::DdDgms* dgms_;
};

core::DdDgms* ExtensionsTest::dgms_ = nullptr;

// ------------------------------------------------------- MDX .Children

TEST_F(ExtensionsTest, MdxChildrenDrillsIntoHierarchy) {
  auto result = dgms_->QueryMdx(
      "SELECT { [PersonalInformation].[AgeBand10].[70-80].Children } "
      "ON ROWS FROM [MedicalMeasures]");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->cube.num_axes(), 1u);
  EXPECT_EQ(result->cube.query().axes[0].attribute, "AgeBand5");
  // Children of 70-80 are exactly 70-75 and 75-80.
  const auto& members = result->cube.query().axes[0].members;
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[0], Value::Str("70-75"));
  EXPECT_EQ(members[1], Value::Str("75-80"));

  // Children counts sum to the parent's count.
  auto parent = dgms_->QueryMdx(
      "SELECT { [PersonalInformation].[AgeBand10].[70-80] } ON ROWS "
      "FROM [MedicalMeasures]");
  ASSERT_TRUE(parent.ok());
  int64_t parent_count =
      parent->cube.CellValue({Value::Str("70-80")}).int_value();
  int64_t child_sum = 0;
  for (const Value& m : result->cube.AxisMembers(0)) {
    child_sum += result->cube.CellValue({m}).int_value();
  }
  EXPECT_EQ(child_sum, parent_count);
}

TEST_F(ExtensionsTest, MdxChildrenErrors) {
  // Attribute without a finer level.
  EXPECT_FALSE(dgms_
                   ->QueryMdx("SELECT { [PersonalInformation].[AgeBand5]."
                              "[70-75].Children } ON ROWS "
                              "FROM [MedicalMeasures]")
                   .ok());
  // Unknown parent member.
  EXPECT_TRUE(dgms_
                  ->QueryMdx("SELECT { [PersonalInformation].[AgeBand10]."
                             "[999-1000].Children } ON ROWS "
                             "FROM [MedicalMeasures]")
                  .status()
                  .IsNotFound());
  // Level .Children behaves like .Members.
  auto level = dgms_->QueryMdx(
      "SELECT { [PersonalInformation].[Gender].Children } ON ROWS "
      "FROM [MedicalMeasures]");
  ASSERT_TRUE(level.ok());
  EXPECT_EQ(level->cube.AxisMembers(0).size(), 2u);
}

// --------------------------------------------------- CachingCubeEngine

olap::CubeQuery CountByGenderQuery() {
  olap::CubeQuery q;
  q.axes = {{"PersonalInformation", "Gender", {}}};
  q.measures = {{AggFn::kCount, "", "n"}};
  return q;
}

TEST_F(ExtensionsTest, CacheHitsOnRepeatedQuery) {
  olap::CachingCubeEngine engine(&dgms_->warehouse());
  auto first = engine.Execute(CountByGenderQuery());
  ASSERT_TRUE(first.ok());
  auto second = engine.Execute(CountByGenderQuery());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(engine.misses(), 1u);
  EXPECT_EQ(engine.hits(), 1u);
  EXPECT_EQ(first->get(), second->get());  // same materialized cube
  EXPECT_EQ((*first)->CellValue({Value::Str("F")}),
            (*second)->CellValue({Value::Str("F")}));
}

TEST_F(ExtensionsTest, CacheDistinguishesQueries) {
  olap::CachingCubeEngine engine(&dgms_->warehouse());
  ASSERT_TRUE(engine.Execute(CountByGenderQuery()).ok());
  auto q2 = CountByGenderQuery();
  q2.slicers = {{"MedicalCondition", "DiabetesStatus",
                 {Value::Str("Type2")}}};
  ASSERT_TRUE(engine.Execute(q2).ok());
  EXPECT_EQ(engine.misses(), 2u);
  EXPECT_EQ(engine.size(), 2u);
  // non_empty is part of the key.
  auto q3 = CountByGenderQuery();
  q3.non_empty = false;
  ASSERT_TRUE(engine.Execute(q3).ok());
  EXPECT_EQ(engine.misses(), 3u);
}

TEST_F(ExtensionsTest, CacheEvictsAtCapacity) {
  olap::CachingCubeEngine engine(&dgms_->warehouse(), /*capacity=*/2);
  for (const char* attr : {"Gender", "AgeBand", "Education"}) {
    olap::CubeQuery q;
    q.axes = {{"PersonalInformation", attr, {}}};
    q.measures = {{AggFn::kCount, "", "n"}};
    ASSERT_TRUE(engine.Execute(q).ok());
  }
  EXPECT_EQ(engine.size(), 2u);
  // Oldest (Gender) was evicted: querying it again misses.
  size_t misses_before = engine.misses();
  ASSERT_TRUE(engine.Execute(CountByGenderQuery()).ok());
  EXPECT_EQ(engine.misses(), misses_before + 1);
}

TEST(CacheLifecycleTest, InvalidatesOnFactCountChange) {
  discri::CohortOptions opt;
  opt.num_patients = 60;
  opt.seed = 32;
  auto raw = discri::GenerateCohort(opt);
  ASSERT_TRUE(raw.ok());
  auto dgms = core::DdDgms::Build(std::move(raw).value(),
                                  discri::MakeDiscriPipeline(),
                                  discri::MakeDiscriSchemaDef());
  ASSERT_TRUE(dgms.ok());
  olap::CachingCubeEngine engine(&dgms->warehouse());
  ASSERT_TRUE(engine.Execute(CountByGenderQuery()).ok());
  EXPECT_EQ(engine.size(), 1u);

  discri::CohortOptions more;
  more.num_patients = 20;
  more.seed = 33;
  auto extra = discri::GenerateCohort(more);
  ASSERT_TRUE(extra.ok());
  ASSERT_TRUE(dgms->AcquireData(*extra).ok());
  // Next execute detects the fact-count change and recomputes.
  auto after = engine.Execute(CountByGenderQuery());
  ASSERT_TRUE(after.ok());
  int64_t total = (*after)->CellValue({Value::Str("F")}).int_value() +
                  (*after)->CellValue({Value::Str("M")}).int_value();
  EXPECT_EQ(total,
            static_cast<int64_t>(dgms->warehouse().num_fact_rows()));
}

// A cube's answer: its cell count, each axis's members with their types,
// and its flattened cells under their measures' output names.
std::string Answer(const olap::Cube& cube) {
  std::string out = std::to_string(cube.num_cells()) + " cells";
  for (size_t a = 0; a < cube.num_axes(); ++a) {
    out += "\naxis";
    for (const Value& m : cube.AxisMembers(a)) {
      out += ' ';
      out += DataTypeName(m.type());
      out += ':';
      out += m.ToString();
    }
  }
  auto table = cube.ToTable();
  out += '\n';
  out += table.ok() ? table->ToPrettyString(1000) : table.status().ToString();
  return out;
}

Result<core::DdDgms> CacheKeyFacade() {
  discri::CohortOptions opt;
  opt.num_patients = 200;
  opt.seed = 7;
  DDGMS_ASSIGN_OR_RETURN(Table raw, discri::GenerateCohort(opt));
  return core::DdDgms::Build(std::move(raw), discri::MakeDiscriPipeline(),
                             discri::MakeDiscriSchemaDef());
}

// Two members F and M, and one member named "F,M", print alike in
// CubeQuery::ToString; through the facade's cache each query, asked
// first or second, answers like the uncached executor.
TEST(CacheKeyTest, MemberListsThatPrintAlikeKeepTheirOwnEntries) {
  const char* const two =
      "SELECT { [PersonalInformation].[Gender].[F], "
      "[PersonalInformation].[Gender].[M] } ON COLUMNS "
      "FROM [MedicalMeasures]";
  const char* const one =
      "SELECT { [PersonalInformation].[Gender].[F,M] } ON COLUMNS "
      "FROM [MedicalMeasures]";
  for (const auto& order : {std::vector<const char*>{two, one},
                            std::vector<const char*>{one, two}}) {
    auto dgms = CacheKeyFacade();
    ASSERT_TRUE(dgms.ok()) << dgms.status().ToString();
    mdx::MdxExecutor uncached(&dgms->warehouse());
    for (const char* text : order) {
      auto got = dgms->QueryMdx(text);
      auto want = uncached.Execute(text);
      ASSERT_TRUE(got.ok()) << text << ": " << got.status().ToString();
      ASSERT_TRUE(want.ok()) << text << ": " << want.status().ToString();
      EXPECT_EQ(Answer(got->cube), Answer(want->cube))
          << text << " after " << order.front();
      EXPECT_EQ(want->cube.num_cells(), text == two ? 2u : 0u) << text;
    }
  }
}

// Null and "", Int 1 and Str "1", and two aliases of one measure print
// alike too; each query of a pair, run first or second through one
// cache, answers like the engine.
TEST(CacheKeyTest, TypedMembersAndAliasesKeepTheirOwnEntries) {
  auto dgms = CacheKeyFacade();
  ASSERT_TRUE(dgms.ok()) << dgms.status().ToString();
  auto restricted = [](const char* dimension, const char* attribute,
                       Value member, const char* alias) {
    olap::CubeQuery q;
    q.axes = {{dimension, attribute, {std::move(member)}}};
    q.measures = {{AggFn::kCount, "", alias}};
    return q;
  };
  const std::pair<olap::CubeQuery, olap::CubeQuery> pairs[] = {
      {restricted("MedicalCondition", "DiagnosticHTYearsBand", Value::Null(),
                  "n"),
       restricted("MedicalCondition", "DiagnosticHTYearsBand",
                  Value::Str(""), "n")},
      {restricted("Cardinality", "VisitNumber", Value::Int(1), "n"),
       restricted("Cardinality", "VisitNumber", Value::Str("1"), "n")},
      {restricted("Cardinality", "VisitNumber", Value::Int(1), "n"),
       restricted("Cardinality", "VisitNumber", Value::Int(1), "visits")}};
  for (const auto& [a, b] : pairs) {
    ASSERT_EQ(a.ToString(), b.ToString());
    for (const auto& order : {std::vector<const olap::CubeQuery*>{&a, &b},
                              std::vector<const olap::CubeQuery*>{&b, &a}}) {
      olap::CachingCubeEngine cache(&dgms->warehouse());
      for (const olap::CubeQuery* q : order) {
        auto got = cache.Execute(*q);
        auto want = olap::CubeEngine(&dgms->warehouse()).Execute(*q);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        EXPECT_EQ(Answer(**got), Answer(*want)) << q->ToString();
      }
      EXPECT_EQ(cache.misses(), 2u);
    }
  }
  // Each pair's first query finds facts, so the answers differ.
  for (const auto& [a, b] : pairs) {
    auto cube = olap::CubeEngine(&dgms->warehouse()).Execute(a);
    ASSERT_TRUE(cube.ok());
    EXPECT_GT(cube->facts_aggregated(), 0u) << a.ToString();
  }
}

// ------------------------------------------------- warehouse persistence

TEST_F(ExtensionsTest, SaveLoadRoundTrip) {
  std::string dir = testing::TempDir() + "/ddgms_wh";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(
      warehouse::SaveWarehouse(dgms_->warehouse(), dir).ok());
  auto loaded = warehouse::LoadWarehouse(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const auto& original = dgms_->warehouse();
  EXPECT_EQ(loaded->def().fact_name, original.def().fact_name);
  EXPECT_EQ(loaded->num_fact_rows(), original.num_fact_rows());
  ASSERT_EQ(loaded->dimensions().size(), original.dimensions().size());
  for (size_t d = 0; d < original.dimensions().size(); ++d) {
    EXPECT_EQ(loaded->dimensions()[d].name(),
              original.dimensions()[d].name());
    EXPECT_EQ(loaded->dimensions()[d].num_members(),
              original.dimensions()[d].num_members());
  }
  // Same OLAP answers.
  olap::CubeEngine orig_engine(&original);
  olap::CubeEngine loaded_engine(&*loaded);
  auto q = CountByGenderQuery();
  auto a = orig_engine.Execute(q);
  auto b = loaded_engine.Execute(q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (const Value& m : a->AxisMembers(0)) {
    EXPECT_EQ(a->CellValue({m}), b->CellValue({m}));
  }
  // Hierarchies survive (drill-down works on the loaded warehouse).
  olap::CubeQuery hq;
  hq.axes = {{"PersonalInformation", "AgeBand10", {}}};
  hq.measures = {{AggFn::kCount, "", "n"}};
  auto cube = loaded_engine.Execute(hq);
  ASSERT_TRUE(cube.ok());
  EXPECT_TRUE(cube->DrillDown(0).ok());
}

TEST(PersistTest, LoadMissingDirectoryFails) {
  EXPECT_TRUE(warehouse::LoadWarehouse("/nonexistent/zzz")
                  .status()
                  .IsNotFound());
}

TEST(PersistTest, CorruptSchemaRejected) {
  std::string dir = testing::TempDir() + "/ddgms_bad_wh";
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(WriteFile(dir + "/schema.txt", "nonsense line here\n").ok());
  EXPECT_TRUE(
      warehouse::LoadWarehouse(dir).status().IsParseError());
}

// -------------------------------------------------------- PivotShare

TEST_F(ExtensionsTest, PivotShareColumnBasis) {
  // Share of female diabetics per age band within the F column — the
  // paper's "proportion of females with diabetes" reading of Fig 5.
  olap::CubeQuery q;
  q.axes = {{"PersonalInformation", "AgeBand", {}},
            {"PersonalInformation", "Gender", {}}};
  q.slicers = {{"MedicalCondition", "DiabetesStatus",
                {Value::Str("Type2")}}};
  q.measures = {{AggFn::kCount, "", "n"}};
  auto cube = dgms_->Query(q);
  ASSERT_TRUE(cube.ok());
  auto shares =
      cube->PivotShare(0, 1, olap::Cube::ShareBasis::kColumn);
  ASSERT_TRUE(shares.ok()) << shares.status().ToString();
  // Each gender column sums to ~1.
  for (size_t c = 1; c < shares->num_columns(); ++c) {
    double total = 0.0;
    for (size_t r = 0; r < shares->num_rows(); ++r) {
      Value v = shares->column(c).GetValue(r);
      if (!v.is_null()) total += v.double_value();
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST_F(ExtensionsTest, PivotShareRowAndGrandBases) {
  olap::CubeQuery q;
  q.axes = {{"PersonalInformation", "AgeBand", {}},
            {"PersonalInformation", "Gender", {}}};
  q.measures = {{AggFn::kCount, "", "n"}};
  auto cube = dgms_->Query(q);
  ASSERT_TRUE(cube.ok());

  auto row_share = cube->PivotShare(0, 1, olap::Cube::ShareBasis::kRow);
  ASSERT_TRUE(row_share.ok());
  for (size_t r = 0; r < row_share->num_rows(); ++r) {
    double total = 0.0;
    for (size_t c = 1; c < row_share->num_columns(); ++c) {
      Value v = row_share->column(c).GetValue(r);
      if (!v.is_null()) total += v.double_value();
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }

  auto grand = cube->PivotShare(0, 1, olap::Cube::ShareBasis::kGrand);
  ASSERT_TRUE(grand.ok());
  double total = 0.0;
  for (size_t r = 0; r < grand->num_rows(); ++r) {
    for (size_t c = 1; c < grand->num_columns(); ++c) {
      Value v = grand->column(c).GetValue(r);
      if (!v.is_null()) total += v.double_value();
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

// ------------------------------------------------ derived year column

TEST_F(ExtensionsTest, VisitYearDimensionQueryable) {
  // The DeriveYearStep added VisitYear to the Cardinality dimension:
  // attendances per calendar year.
  olap::CubeQuery q;
  q.axes = {{"Cardinality", "VisitYear", {}}};
  q.measures = {{AggFn::kCount, "", "n"}};
  auto cube = dgms_->Query(q);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  int64_t total = 0;
  for (const Value& year : cube->AxisMembers(0)) {
    ASSERT_EQ(year.type(), DataType::kInt64);
    EXPECT_GE(year.int_value(), 2002);
    EXPECT_LE(year.int_value(), 2016);
    total += cube->CellValue({year}).int_value();
  }
  EXPECT_EQ(total,
            static_cast<int64_t>(dgms_->warehouse().num_fact_rows()));
}

TEST(DeriveYearStepTest, Validation) {
  Table t(Schema::Make({{"D", DataType::kString}}).value());
  ASSERT_TRUE(t.AppendRow({Value::Str("x")}).ok());
  auto step = etl::DeriveYearStep("D", "Y");
  EXPECT_TRUE(step(&t).IsInvalidArgument());
  auto missing = etl::DeriveYearStep("Nope", "Y");
  EXPECT_TRUE(missing(&t).IsNotFound());
}

// ----------------------------------------------------- MDX robustness

TEST_F(ExtensionsTest, MdxFuzzNeverCrashes) {
  // Random token soup must produce Status errors, never crashes.
  Rng rng(2024);
  const char* fragments[] = {
      "SELECT", "FROM", "WHERE", "ON", "COLUMNS", "ROWS", "NON",
      "EMPTY", "CROSSJOIN", "(", ")", "{", "}", ",", ".",
      "[PersonalInformation]", "[Gender]", "[MedicalMeasures]",
      "[Measures]", "[Count]", "Members", "Children", "[70-80]", "42"};
  for (int trial = 0; trial < 300; ++trial) {
    std::string query;
    size_t len = static_cast<size_t>(rng.UniformInt(1, 14));
    for (size_t i = 0; i < len; ++i) {
      query += fragments[rng.UniformInt(
          0, static_cast<int64_t>(std::size(fragments)) - 1)];
      query += " ";
    }
    auto result = dgms_->QueryMdx(query);
    // ok or a clean error; either way nothing blows up.
    if (!result.ok()) {
      EXPECT_FALSE(result.status().message().empty());
    }
  }
}

TEST_F(ExtensionsTest, SqlFuzzNeverCrashes) {
  Rng rng(2025);
  SqlEngine engine;
  engine.RegisterTable("t", &dgms_->transformed());
  const char* fragments[] = {
      "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "LIMIT", "*",
      "(", ")", ",", "t", "Age", "Gender", "count", "avg", "'F'", "42",
      "=", ">=", "AND", "OR", "NOT", "BETWEEN", "IN", "IS", "NULL"};
  for (int trial = 0; trial < 300; ++trial) {
    std::string query;
    size_t len = static_cast<size_t>(rng.UniformInt(1, 12));
    for (size_t i = 0; i < len; ++i) {
      query += fragments[rng.UniformInt(
          0, static_cast<int64_t>(std::size(fragments)) - 1)];
      query += " ";
    }
    auto result = engine.Execute(query);
    if (!result.ok()) {
      EXPECT_FALSE(result.status().message().empty());
    }
  }
}

// ------------------------------------------------ incremental append

/// A transformed DiScRi cohort, in AppendRows source form.
Table TransformedCohort(size_t patients, uint64_t seed) {
  discri::CohortOptions opt;
  opt.num_patients = patients;
  opt.seed = seed;
  auto raw = discri::GenerateCohort(opt);
  EXPECT_TRUE(raw.ok());
  Table t = std::move(raw).value();
  EXPECT_TRUE(discri::MakeDiscriPipeline().Run(&t).ok());
  return t;
}

/// `t` with the column named like `col` replaced by `col`, in place.
Table ReplaceColumn(const Table& t, const ColumnVector& col) {
  Table out;
  for (size_t c = 0; c < t.num_columns(); ++c) {
    const ColumnVector& next =
        t.column(c).name() == col.name() ? col : t.column(c);
    EXPECT_TRUE(out.AddColumn(next).ok());
  }
  return out;
}

Table Concatenated(std::vector<Table> parts) {
  Table out = parts.front();
  for (size_t i = 1; i < parts.size(); ++i) {
    EXPECT_TRUE(out.Concat(parts[i]).ok());
  }
  return out;
}

std::vector<size_t> MemberCounts(const warehouse::Warehouse& wh) {
  std::vector<size_t> counts;
  for (const warehouse::Dimension& dim : wh.dimensions()) {
    counts.push_back(dim.num_members());
  }
  return counts;
}

TEST(AppendRowsTest, MatchesFullRebuild) {
  const Table t1 = TransformedCohort(80, 61);
  const Table t2 = TransformedCohort(40, 62);
  const Table t3 = TransformedCohort(30, 63);
  warehouse::StarSchemaBuilder builder(discri::MakeDiscriSchemaDef());
  auto rebuilt = builder.Build(Concatenated({t1, t2, t3}));
  ASSERT_TRUE(rebuilt.ok());
  const std::string oracle = warehouse::EncodeSnapshot(*rebuilt);

  auto built = builder.Build(t1);
  ASSERT_TRUE(built.ok());
  const std::string base = warehouse::EncodeSnapshot(*built);
  for (const warehouse::Dimension& dim : built->dimensions()) {
    ASSERT_NE(dim.member_index(), nullptr) << dim.name();
    EXPECT_EQ(dim.member_index()->size(), dim.num_members());
  }

  // A copy carries an index of its own: appending to it leaves the
  // original as it was.
  warehouse::Warehouse copy = *built;
  ASSERT_TRUE(copy.AppendRows(t2).ok());
  ASSERT_TRUE(copy.AppendRows(t3).ok());
  EXPECT_EQ(warehouse::EncodeSnapshot(copy), oracle);
  EXPECT_EQ(warehouse::EncodeSnapshot(*built), base);

  // The warehouse Build returned, whose index Build filled.
  ASSERT_TRUE(built->AppendRows(t2).ok());
  ASSERT_TRUE(built->AppendRows(t3).ok());
  EXPECT_EQ(warehouse::EncodeSnapshot(*built), oracle);

  // A warehouse read from a snapshot builds its index on first append.
  auto decoded = warehouse::DecodeSnapshot(base);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  for (const warehouse::Dimension& dim : decoded->dimensions()) {
    EXPECT_EQ(dim.member_index(), nullptr) << dim.name();
  }
  ASSERT_TRUE(decoded->AppendRows(t2).ok());
  ASSERT_TRUE(decoded->AppendRows(t3).ok());
  EXPECT_EQ(warehouse::EncodeSnapshot(*decoded), oracle);
  for (const warehouse::Dimension& dim : decoded->dimensions()) {
    ASSERT_NE(dim.member_index(), nullptr) << dim.name();
    EXPECT_EQ(dim.member_index()->size(), dim.num_members());
  }
}

TEST(AppendRowsTest, RejectedBatchChangesNothing) {
  const Table t1 = TransformedCohort(80, 61);
  const Table t2 = TransformedCohort(40, 62);
  const Table t3 = TransformedCohort(30, 63);
  warehouse::StarSchemaBuilder builder(discri::MakeDiscriSchemaDef());
  auto wh = builder.Build(t1);
  ASSERT_TRUE(wh.ok());
  const std::string before = warehouse::EncodeSnapshot(*wh);
  const uint64_t lineage = wh->lineage();

  // A string FBG column, null but for row 20: no double fact column can
  // hold that value. The rows before it mint new members.
  constexpr size_t kBadRow = 20;
  ASSERT_GT(t2.num_rows(), kBadRow);
  ColumnVector fbg("FBG", DataType::kString);
  for (size_t i = 0; i < t2.num_rows(); ++i) {
    if (i == kBadRow) {
      fbg.AppendString("high");
    } else {
      fbg.AppendNull();
    }
  }
  std::vector<size_t> head(kBadRow);
  for (size_t i = 0; i < kBadRow; ++i) head[i] = i;
  warehouse::Warehouse probe = *wh;
  ASSERT_TRUE(probe.AppendRows(t2.Take(head)).ok());
  ASSERT_NE(MemberCounts(probe), MemberCounts(*wh));

  Status st = wh->AppendRows(ReplaceColumn(t2, fbg));
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_EQ(warehouse::EncodeSnapshot(*wh), before);
  EXPECT_EQ(wh->lineage(), lineage);

  // The next good batch still lands where a full rebuild puts it.
  ASSERT_TRUE(wh->AppendRows(t3).ok());
  auto rebuilt = builder.Build(Concatenated({t1, t3}));
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(warehouse::EncodeSnapshot(*wh),
            warehouse::EncodeSnapshot(*rebuilt));
}

/// One dimension, Lab(Level: double), and one measure N; the Level
/// members are 5.0 (key 0) and 2.5 (key 1).
Result<warehouse::Warehouse> MakeLabWarehouse() {
  DDGMS_ASSIGN_OR_RETURN(Schema schema,
                         Schema::Make({{"Level", DataType::kDouble},
                                       {"N", DataType::kInt64}}));
  Table t(std::move(schema));
  DDGMS_RETURN_IF_ERROR(t.AppendRow({Value::Real(5.0), Value::Int(1)}));
  DDGMS_RETURN_IF_ERROR(t.AppendRow({Value::Real(2.5), Value::Int(1)}));
  warehouse::StarSchemaDef def;
  def.fact_name = "Tests";
  def.dimensions = {{"Lab", {"Level"}, {}}};
  def.measures = {{"N", "N"}};
  return warehouse::StarSchemaBuilder(def).Build(t);
}

/// A Lab batch: `level` plus an N of 1 per row.
Table LabBatch(ColumnVector level) {
  ColumnVector n("N", DataType::kInt64);
  for (size_t i = 0; i < level.size(); ++i) n.AppendInt(1);
  Table t;
  EXPECT_TRUE(t.AddColumn(std::move(level)).ok());
  EXPECT_TRUE(t.AddColumn(std::move(n)).ok());
  return t;
}

/// The Lab keys of the last `count` fact rows.
std::vector<int64_t> LastLabKeys(const warehouse::Warehouse& wh,
                                 size_t count) {
  std::vector<int64_t> keys;
  for (size_t i = wh.num_fact_rows() - count; i < wh.num_fact_rows(); ++i) {
    keys.push_back(*wh.FactKey(i, "Lab"));
  }
  return keys;
}

TEST(AppendRowsTest, MembersMatchUnderValueEquality) {
  auto wh = MakeLabWarehouse();
  ASSERT_TRUE(wh.ok()) << wh.status().ToString();
  const warehouse::Dimension* lab = *wh->dimension("Lab");
  ASSERT_EQ(lab->num_members(), 2u);

  // int64 5 joins the double 5.0 member, which keeps its spelling.
  ColumnVector ints("Level", DataType::kInt64);
  ints.AppendInt(5);
  ASSERT_TRUE(wh->AppendRows(LabBatch(ints)).ok());
  EXPECT_EQ(lab->num_members(), 2u);
  EXPECT_EQ(LastLabKeys(*wh, 1), std::vector<int64_t>({0}));
  EXPECT_EQ(lab->AttributeValue(0, "Level")->type(), DataType::kDouble);

  // Null is a member of its own, minted once.
  ColumnVector nulls("Level", DataType::kDouble);
  nulls.AppendNull();
  nulls.AppendNull();
  ASSERT_TRUE(wh->AppendRows(LabBatch(nulls)).ok());
  EXPECT_EQ(lab->num_members(), 3u);
  EXPECT_EQ(LastLabKeys(*wh, 2), std::vector<int64_t>({2, 2}));
  EXPECT_TRUE(lab->AttributeValue(2, "Level")->is_null());

  // A new tuple seen twice in one batch gets one key.
  ColumnVector twice("Level", DataType::kDouble);
  twice.AppendDouble(7.5);
  twice.AppendDouble(2.5);
  twice.AppendDouble(7.5);
  ASSERT_TRUE(wh->AppendRows(LabBatch(twice)).ok());
  EXPECT_EQ(lab->num_members(), 4u);
  EXPECT_EQ(LastLabKeys(*wh, 3), std::vector<int64_t>({3, 1, 3}));

  // Only non-null values are type-checked: an all-null string column
  // joins the null member, and a string value is rejected.
  ColumnVector no_strings("Level", DataType::kString);
  no_strings.AppendNull();
  ASSERT_TRUE(wh->AppendRows(LabBatch(no_strings)).ok());
  EXPECT_EQ(LastLabKeys(*wh, 1), std::vector<int64_t>({2}));
  ColumnVector strings("Level", DataType::kString);
  strings.AppendString("high");
  const size_t facts = wh->num_fact_rows();
  EXPECT_TRUE(wh->AppendRows(LabBatch(strings)).IsInvalidArgument());
  EXPECT_EQ(lab->num_members(), 4u);
  EXPECT_EQ(wh->num_fact_rows(), facts);
}

TEST(AppendRowsTest, MissingColumnFails) {
  discri::CohortOptions opt;
  opt.num_patients = 20;
  opt.seed = 63;
  auto raw = discri::GenerateCohort(opt);
  ASSERT_TRUE(raw.ok());
  auto pipeline = discri::MakeDiscriPipeline();
  ASSERT_TRUE(pipeline.Run(&*raw).ok());
  warehouse::StarSchemaBuilder builder(discri::MakeDiscriSchemaDef());
  auto wh = builder.Build(*raw);
  ASSERT_TRUE(wh.ok());
  Table bad(Schema::Make({{"X", DataType::kInt64}}).value());
  EXPECT_TRUE(wh->AppendRows(bad).IsNotFound());
}

// ------------------------------------------------------------ heatmap

TEST(HeatmapTest, ShadesByMagnitude) {
  Table grid(Schema::Make({{"Band", DataType::kString},
                           {"F", DataType::kInt64},
                           {"M", DataType::kInt64}})
                 .value());
  ASSERT_TRUE(
      grid.AppendRow({Value::Str("60-70"), Value::Int(100), Value::Int(0)})
          .ok());
  ASSERT_TRUE(
      grid.AppendRow({Value::Str("70-80"), Value::Int(50), Value::Null()})
          .ok());
  report::HeatmapOptions opt;
  opt.cell_width = 1;
  auto out = report::RenderHeatmap(grid, opt);
  ASSERT_TRUE(out.ok());
  // Max cell uses the hottest ramp char; zero/null the coldest.
  EXPECT_NE(out->find('@'), std::string::npos);
  // Row for 70-80: mid shade then cold (null).
  EXPECT_NE(out->find("60-70"), std::string::npos);
  auto empty = report::RenderHeatmap(
      Table(Schema::Make({{"L", DataType::kString}}).value()), opt);
  EXPECT_TRUE(empty.status().IsInvalidArgument());
}

// ----------------------------------------------- feature selection

mining::CategoricalDataset MakeSelectionData(size_t n) {
  // y determined by f_good; f_weak correlates weakly; f_noise_i are
  // pure noise.
  mining::CategoricalDataset ds;
  ds.feature_names = {"f_noise1", "f_good", "f_noise2", "f_weak",
                      "f_noise3"};
  Rng rng(55);
  for (size_t i = 0; i < n; ++i) {
    bool y = rng.Bernoulli(0.5);
    const bool noisy = rng.Bernoulli(0.05);  // slight noise
    std::string good = y != noisy ? "a" : "b";
    std::string weak = (y == rng.Bernoulli(0.7)) ? "x" : "y";
    auto noise = [&] { return rng.Bernoulli(0.5) ? "p" : "q"; };
    ds.rows.push_back({noise(), good, noise(), weak, noise()});
    ds.labels.push_back(y ? "pos" : "neg");
  }
  return ds;
}

TEST(FeatureSelectionTest, FilterRanksInformativeFirst) {
  auto data = MakeSelectionData(600);
  auto ranking = mining::RankByInformationGain(data);
  ASSERT_TRUE(ranking.ok());
  ASSERT_EQ(ranking->size(), 5u);
  EXPECT_EQ((*ranking)[0].feature, "f_good");
  EXPECT_GT((*ranking)[0].info_gain, 0.5);
  // Noise features at the bottom with ~zero gain.
  EXPECT_LT(ranking->back().info_gain, 0.02);
}

TEST(FeatureSelectionTest, WrapperPicksGoodDropsNoise) {
  auto data = MakeSelectionData(600);
  mining::FeatureSelectionOptions opt;
  opt.max_features = 3;
  opt.min_improvement = 0.005;
  auto result = mining::WrapperFilterSelect(
      data,
      [] { return std::make_unique<mining::NaiveBayesClassifier>(); },
      opt);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->selected.empty());
  EXPECT_EQ(result->selected[0], "f_good");
  EXPECT_GT(result->cv_accuracy, 0.9);
  // No noise feature should make the cut.
  for (const std::string& f : result->selected) {
    EXPECT_TRUE(f == "f_good" || f == "f_weak") << f;
  }
}

TEST(FeatureSelectionTest, ProjectFeaturesValidation) {
  auto data = MakeSelectionData(50);
  auto projected = mining::ProjectFeatures(data, {"f_weak", "f_good"});
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected->feature_names,
            (std::vector<std::string>{"f_weak", "f_good"}));
  EXPECT_EQ(projected->rows[0].size(), 2u);
  EXPECT_TRUE(
      mining::ProjectFeatures(data, {"nope"}).status().IsNotFound());
}

TEST(FeatureSelectionTest, OptionsValidation) {
  auto data = MakeSelectionData(50);
  mining::FeatureSelectionOptions opt;
  opt.folds = 1;
  EXPECT_TRUE(mining::WrapperFilterSelect(
                  data,
                  [] {
                    return std::make_unique<
                        mining::NaiveBayesClassifier>();
                  },
                  opt)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace ddgms
