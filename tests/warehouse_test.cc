// Unit tests for the star-schema warehouse: builder, surrogate keys,
// hierarchies, integrity checks, joined views, feedback dimensions.

#include <gtest/gtest.h>

#include "warehouse/schema_def.h"
#include "warehouse/warehouse.h"

namespace ddgms::warehouse {
namespace {

Table MakeExtract() {
  auto schema = Schema::Make({{"RecordId", DataType::kInt64},
                              {"Gender", DataType::kString},
                              {"AgeBand10", DataType::kString},
                              {"AgeBand5", DataType::kString},
                              {"Diabetes", DataType::kString},
                              {"FBG", DataType::kDouble}});
  Table t(std::move(schema).value());
  struct R {
    int64_t id;
    const char* g;
    const char* b10;
    const char* b5;
    const char* d;
    double fbg;
  };
  const R rows[] = {
      {1, "F", "70-80", "70-75", "Yes", 8.0},
      {2, "M", "70-80", "70-75", "Yes", 7.5},
      {3, "F", "70-80", "75-80", "Yes", 9.0},
      {4, "F", "70-80", "75-80", "No", 5.0},
      {5, "M", "60-70", "60-65", "No", 5.4},
      {6, "M", "60-70", "65-70", "Yes", 8.8},
      {7, "F", "60-70", "65-70", "No", 5.2},
      {8, "F", "70-80", "70-75", "Yes", 7.9},
  };
  for (const R& r : rows) {
    EXPECT_TRUE(t.AppendRow({Value::Int(r.id), Value::Str(r.g),
                             Value::Str(r.b10), Value::Str(r.b5),
                             Value::Str(r.d), Value::Real(r.fbg)})
                    .ok());
  }
  return t;
}

StarSchemaDef MakeDef() {
  StarSchemaDef def;
  def.fact_name = "Facts";
  def.degenerate_key = "RecordId";
  def.measures = {MeasureDef{"FBG", "FBG"}};
  DimensionDef person;
  person.name = "Person";
  person.attributes = {"Gender", "AgeBand10", "AgeBand5"};
  person.hierarchies = {Hierarchy{"AgeBands", {"AgeBand10", "AgeBand5"}}};
  DimensionDef condition;
  condition.name = "Condition";
  condition.attributes = {"Diabetes"};
  def.dimensions = {person, condition};
  return def;
}

TEST(SchemaDefTest, ValidateCatchesStructuralErrors) {
  StarSchemaDef def = MakeDef();
  EXPECT_TRUE(def.Validate().ok());

  StarSchemaDef unnamed = MakeDef();
  unnamed.fact_name = "";
  EXPECT_TRUE(unnamed.Validate().IsInvalidArgument());

  StarSchemaDef dup = MakeDef();
  dup.dimensions.push_back(dup.dimensions[0]);
  EXPECT_TRUE(dup.Validate().IsAlreadyExists());

  StarSchemaDef no_attrs = MakeDef();
  no_attrs.dimensions[1].attributes.clear();
  EXPECT_TRUE(no_attrs.Validate().IsInvalidArgument());

  StarSchemaDef bad_hier = MakeDef();
  bad_hier.dimensions[0].hierarchies[0].levels = {"AgeBand10", "Nope"};
  EXPECT_TRUE(bad_hier.Validate().IsNotFound());

  StarSchemaDef dup_measure = MakeDef();
  dup_measure.measures.push_back(MeasureDef{"FBG", "FBG"});
  EXPECT_TRUE(dup_measure.Validate().IsAlreadyExists());
}

TEST(SchemaDefTest, DimensionIndex) {
  StarSchemaDef def = MakeDef();
  EXPECT_EQ(*def.DimensionIndex("Condition"), 1u);
  EXPECT_TRUE(def.DimensionIndex("Nope").status().IsNotFound());
}

TEST(BuilderTest, BuildsFactAndDimensionTables) {
  Table extract = MakeExtract();
  auto wh = StarSchemaBuilder(MakeDef()).Build(extract);
  ASSERT_TRUE(wh.ok());
  EXPECT_EQ(wh->num_fact_rows(), 8u);
  // Distinct (Gender, AgeBand10, AgeBand5) tuples.
  const Dimension* person = *wh->dimension("Person");
  EXPECT_EQ(person->num_members(), 6u);
  const Dimension* condition = *wh->dimension("Condition");
  EXPECT_EQ(condition->num_members(), 2u);
  // Fact carries key columns, degenerate key and measure.
  EXPECT_TRUE(wh->fact().schema().HasField("Person_key"));
  EXPECT_TRUE(wh->fact().schema().HasField("Condition_key"));
  EXPECT_TRUE(wh->fact().schema().HasField("RecordId"));
  EXPECT_TRUE(wh->fact().schema().HasField("FBG"));
}

TEST(BuilderTest, SurrogateKeysRoundTrip) {
  Table extract = MakeExtract();
  auto wh = StarSchemaBuilder(MakeDef()).Build(extract);
  ASSERT_TRUE(wh.ok());
  const Dimension* person = *wh->dimension("Person");
  for (size_t i = 0; i < wh->num_fact_rows(); ++i) {
    int64_t key = *wh->FactKey(i, "Person");
    Value gender = *person->AttributeValue(key, "Gender");
    EXPECT_EQ(gender, *extract.GetCell(i, "Gender"));
    Value b5 = *person->AttributeValue(key, "AgeBand5");
    EXPECT_EQ(b5, *extract.GetCell(i, "AgeBand5"));
  }
}

TEST(BuilderTest, MissingSourceColumnFails) {
  Table extract = MakeExtract();
  StarSchemaDef def = MakeDef();
  def.dimensions[1].attributes = {"Missing"};
  EXPECT_TRUE(
      StarSchemaBuilder(def).Build(extract).status().IsNotFound());
}

TEST(BuilderTest, NonNumericMeasureFails) {
  Table extract = MakeExtract();
  StarSchemaDef def = MakeDef();
  def.measures = {MeasureDef{"G", "Gender"}};
  EXPECT_TRUE(StarSchemaBuilder(def)
                  .Build(extract)
                  .status()
                  .IsInvalidArgument());
}

TEST(BuilderTest, NullAttributeValuesFormMembers) {
  Table extract = MakeExtract();
  ASSERT_TRUE(extract.SetCell(0, "Diabetes", Value::Null()).ok());
  auto wh = StarSchemaBuilder(MakeDef()).Build(extract);
  ASSERT_TRUE(wh.ok());
  const Dimension* condition = *wh->dimension("Condition");
  EXPECT_EQ(condition->num_members(), 3u);  // Yes, No, null
}

TEST(DimensionTest, HierarchyNavigation) {
  Table extract = MakeExtract();
  auto wh = StarSchemaBuilder(MakeDef()).Build(extract);
  ASSERT_TRUE(wh.ok());
  const Dimension* person = *wh->dimension("Person");
  EXPECT_EQ(*person->FinerLevel("AgeBand10"), "AgeBand5");
  EXPECT_EQ(*person->CoarserLevel("AgeBand5"), "AgeBand10");
  EXPECT_TRUE(person->FinerLevel("AgeBand5").status().IsNotFound());
  EXPECT_TRUE(person->CoarserLevel("AgeBand10").status().IsNotFound());
  EXPECT_TRUE(person->FinerLevel("Gender").status().IsNotFound());
  EXPECT_NE(person->HierarchyOf("AgeBand5"), nullptr);
  EXPECT_EQ(person->HierarchyOf("Gender"), nullptr);
}

TEST(DimensionTest, AttributeValueRangeChecks) {
  Table extract = MakeExtract();
  auto wh = StarSchemaBuilder(MakeDef()).Build(extract);
  ASSERT_TRUE(wh.ok());
  const Dimension* person = *wh->dimension("Person");
  EXPECT_TRUE(person->AttributeValue(-1, "Gender").status().IsOutOfRange());
  EXPECT_TRUE(
      person->AttributeValue(1000, "Gender").status().IsOutOfRange());
  EXPECT_TRUE(person->AttributeValue(0, "Nope").status().IsNotFound());
}

TEST(WarehouseTest, IntegrityOkOnBuild) {
  Table extract = MakeExtract();
  auto wh = StarSchemaBuilder(MakeDef()).Build(extract);
  ASSERT_TRUE(wh.ok());
  IntegrityReport report = wh->CheckIntegrity();
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.fact_rows, 8u);
  EXPECT_TRUE(report.violations.empty());
}

TEST(WarehouseTest, IntegrityDetectsHierarchyViolation) {
  // Build an extract where AgeBand5 "70-75" maps to two different
  // AgeBand10 values -> non-functional hierarchy.
  Table extract = MakeExtract();
  ASSERT_TRUE(extract.SetCell(0, "AgeBand10", Value::Str("WRONG")).ok());
  auto wh = StarSchemaBuilder(MakeDef()).Build(extract);
  EXPECT_TRUE(wh.status().IsDataLoss());
}

TEST(WarehouseTest, DimensionOfAttribute) {
  Table extract = MakeExtract();
  auto wh = StarSchemaBuilder(MakeDef()).Build(extract);
  ASSERT_TRUE(wh.ok());
  EXPECT_EQ((*wh->DimensionOfAttribute("Diabetes"))->name(), "Condition");
  EXPECT_TRUE(wh->DimensionOfAttribute("Nope").status().IsNotFound());
}

TEST(WarehouseTest, JoinedViewMatchesSource) {
  Table extract = MakeExtract();
  auto wh = StarSchemaBuilder(MakeDef()).Build(extract);
  ASSERT_TRUE(wh.ok());
  auto view = wh->JoinedView({"Gender", "Diabetes"});
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->num_rows(), 8u);
  // Columns: requested attributes + all measures.
  EXPECT_TRUE(view->schema().HasField("Gender"));
  EXPECT_TRUE(view->schema().HasField("Diabetes"));
  EXPECT_TRUE(view->schema().HasField("FBG"));
  for (size_t i = 0; i < view->num_rows(); ++i) {
    EXPECT_EQ(*view->GetCell(i, "Gender"), *extract.GetCell(i, "Gender"));
    EXPECT_EQ(*view->GetCell(i, "FBG"), *extract.GetCell(i, "FBG"));
  }
}

TEST(WarehouseTest, FeedbackDimension) {
  Table extract = MakeExtract();
  auto wh = StarSchemaBuilder(MakeDef()).Build(extract);
  ASSERT_TRUE(wh.ok());
  ASSERT_TRUE(wh->AddFeedbackDimension(
                    "Risk", "RiskFlag",
                    [](const Warehouse& w, size_t row) {
                      auto fbg = w.fact().GetCell(row, "FBG");
                      double v = (*fbg).is_null()
                                     ? 0.0
                                     : (*fbg).AsDouble().value_or(0.0);
                      return Value::Str(v >= 7.0 ? "high" : "normal");
                    })
                  .ok());
  const Dimension* risk = *wh->dimension("Risk");
  EXPECT_EQ(risk->num_members(), 2u);
  EXPECT_TRUE(wh->fact().schema().HasField("Risk_key"));
  EXPECT_TRUE(wh->CheckIntegrity().ok);
  // Duplicate name rejected.
  EXPECT_TRUE(wh->AddFeedbackDimension("Risk", "X",
                                       [](const Warehouse&, size_t) {
                                         return Value::Str("y");
                                       })
                  .IsAlreadyExists());
}

}  // namespace
}  // namespace ddgms::warehouse
