// Unit tests for the OLAP cube engine: execution, slice/dice,
// roll-up/drill-down, pivot.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "common/metrics.h"
#include "common/resource.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/trace.h"
#include "core/baseline.h"
#include "discri/cohort.h"
#include "discri/model.h"
#include "olap/cache.h"
#include "olap/cube.h"
#include "warehouse/warehouse.h"

namespace ddgms::olap {
namespace {

using warehouse::Dimension;
using warehouse::DimensionDef;
using warehouse::Hierarchy;
using warehouse::MeasureDef;
using warehouse::StarSchemaBuilder;
using warehouse::StarSchemaDef;
using warehouse::Warehouse;

// Same fixture extract as warehouse_test, kept local for independence.
Table MakeExtract() {
  auto schema = Schema::Make({{"Gender", DataType::kString},
                              {"AgeBand10", DataType::kString},
                              {"AgeBand5", DataType::kString},
                              {"Diabetes", DataType::kString},
                              {"FBG", DataType::kDouble}});
  Table t(std::move(schema).value());
  struct R {
    const char* g;
    const char* b10;
    const char* b5;
    const char* d;
    double fbg;
  };
  const R rows[] = {
      {"F", "70-80", "70-75", "Yes", 8.0},
      {"M", "70-80", "70-75", "Yes", 7.5},
      {"F", "70-80", "75-80", "Yes", 9.0},
      {"F", "70-80", "75-80", "No", 5.0},
      {"M", "60-70", "60-65", "No", 5.4},
      {"M", "60-70", "65-70", "Yes", 8.8},
      {"F", "60-70", "65-70", "No", 5.2},
      {"F", "70-80", "70-75", "Yes", 7.9},
  };
  for (const R& r : rows) {
    EXPECT_TRUE(t.AppendRow({Value::Str(r.g), Value::Str(r.b10),
                             Value::Str(r.b5), Value::Str(r.d),
                             Value::Real(r.fbg)})
                    .ok());
  }
  return t;
}

Warehouse MakeWarehouse() {
  StarSchemaDef def;
  def.fact_name = "Facts";
  def.measures = {MeasureDef{"FBG", "FBG"}};
  DimensionDef person;
  person.name = "Person";
  person.attributes = {"Gender", "AgeBand10", "AgeBand5"};
  person.hierarchies = {Hierarchy{"AgeBands", {"AgeBand10", "AgeBand5"}}};
  DimensionDef condition;
  condition.name = "Condition";
  condition.attributes = {"Diabetes"};
  def.dimensions = {person, condition};
  auto wh = StarSchemaBuilder(def).Build(MakeExtract());
  EXPECT_TRUE(wh.ok()) << wh.status().ToString();
  return std::move(wh).value();
}

CubeQuery CountByGender() {
  CubeQuery q;
  q.axes = {AxisSpec{"Person", "Gender", {}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"}};
  return q;
}

TEST(CubeTest, CountByOneAxis) {
  Warehouse wh = MakeWarehouse();
  auto cube = CubeEngine(&wh).Execute(CountByGender());
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ(cube->num_cells(), 2u);
  EXPECT_EQ(cube->facts_aggregated(), 8u);
  EXPECT_EQ(cube->CellValue({Value::Str("F")}), Value::Int(5));
  EXPECT_EQ(cube->CellValue({Value::Str("M")}), Value::Int(3));
  EXPECT_EQ(cube->CellCount({Value::Str("F")}), 5u);
  EXPECT_TRUE(cube->CellValue({Value::Str("X")}).is_null());
}

TEST(CubeTest, TwoAxesWithSlicer) {
  Warehouse wh = MakeWarehouse();
  CubeQuery q;
  q.axes = {AxisSpec{"Person", "AgeBand5", {}},
            AxisSpec{"Person", "Gender", {}}};
  q.slicers = {SlicerSpec{"Condition", "Diabetes", {Value::Str("Yes")}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"}};
  auto cube = CubeEngine(&wh).Execute(q);
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ(cube->facts_aggregated(), 5u);
  EXPECT_EQ(cube->CellValue({Value::Str("70-75"), Value::Str("F")}),
            Value::Int(2));
  EXPECT_EQ(cube->CellValue({Value::Str("70-75"), Value::Str("M")}),
            Value::Int(1));
  EXPECT_EQ(cube->CellValue({Value::Str("75-80"), Value::Str("F")}),
            Value::Int(1));
}

TEST(CubeTest, MultipleMeasures) {
  Warehouse wh = MakeWarehouse();
  CubeQuery q;
  q.axes = {AxisSpec{"Condition", "Diabetes", {}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"},
                AggSpec{AggFn::kAvg, "FBG", "avg_fbg"},
                AggSpec{AggFn::kMax, "FBG", "max_fbg"}};
  auto cube = CubeEngine(&wh).Execute(q);
  ASSERT_TRUE(cube.ok());
  std::vector<Value> yes = {Value::Str("Yes")};
  EXPECT_EQ(cube->CellValue(yes, 0), Value::Int(5));
  EXPECT_NEAR(cube->CellValue(yes, 1).double_value(),
              (8.0 + 7.5 + 9.0 + 8.8 + 7.9) / 5.0, 1e-9);
  EXPECT_EQ(cube->CellValue(yes, 2), Value::Real(9.0));
}

TEST(CubeTest, AxisMemberRestrictionPreservesOrder) {
  Warehouse wh = MakeWarehouse();
  CubeQuery q;
  q.axes = {AxisSpec{"Person",
                     "AgeBand5",
                     {Value::Str("75-80"), Value::Str("70-75")}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"}};
  auto cube = CubeEngine(&wh).Execute(q);
  ASSERT_TRUE(cube.ok());
  // Only restricted members, in the caller's order.
  ASSERT_EQ(cube->AxisMembers(0).size(), 2u);
  EXPECT_EQ(cube->AxisMembers(0)[0], Value::Str("75-80"));
  EXPECT_EQ(cube->AxisMembers(0)[1], Value::Str("70-75"));
  // 3 facts in 70-75 + 2 in 75-80.
  EXPECT_EQ(cube->facts_aggregated(), 5u);
}

TEST(CubeTest, SliceRemovesAxisAndFilters) {
  Warehouse wh = MakeWarehouse();
  CubeQuery q;
  q.axes = {AxisSpec{"Person", "Gender", {}},
            AxisSpec{"Condition", "Diabetes", {}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"}};
  auto cube = CubeEngine(&wh).Execute(q);
  ASSERT_TRUE(cube.ok());
  auto sliced = cube->Slice("Condition", "Diabetes", Value::Str("Yes"));
  ASSERT_TRUE(sliced.ok());
  EXPECT_EQ(sliced->num_axes(), 1u);
  EXPECT_EQ(sliced->CellValue({Value::Str("F")}), Value::Int(3));
  EXPECT_EQ(sliced->CellValue({Value::Str("M")}), Value::Int(2));
}

TEST(CubeTest, DiceRestrictsMembers) {
  Warehouse wh = MakeWarehouse();
  auto cube = CubeEngine(&wh).Execute(CountByGender());
  ASSERT_TRUE(cube.ok());
  auto diced = cube->Dice("Person", "Gender", {Value::Str("F")});
  ASSERT_TRUE(diced.ok());
  EXPECT_EQ(diced->facts_aggregated(), 5u);
  // Dice on a non-axis attribute becomes a slicer.
  auto diced2 = cube->Dice("Condition", "Diabetes", {Value::Str("No")});
  ASSERT_TRUE(diced2.ok());
  EXPECT_EQ(diced2->facts_aggregated(), 3u);
}

TEST(CubeTest, RollUpRemovesAxis) {
  Warehouse wh = MakeWarehouse();
  CubeQuery q;
  q.axes = {AxisSpec{"Person", "Gender", {}},
            AxisSpec{"Condition", "Diabetes", {}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"}};
  auto cube = CubeEngine(&wh).Execute(q);
  ASSERT_TRUE(cube.ok());
  auto rolled = cube->RollUp(1);
  ASSERT_TRUE(rolled.ok());
  EXPECT_EQ(rolled->num_axes(), 1u);
  EXPECT_EQ(rolled->CellValue({Value::Str("F")}), Value::Int(5));
  EXPECT_TRUE(cube->RollUp(5).status().IsOutOfRange());
}

TEST(CubeTest, DrillDownFollowsHierarchy) {
  Warehouse wh = MakeWarehouse();
  CubeQuery q;
  q.axes = {AxisSpec{"Person", "AgeBand10", {}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"}};
  auto cube = CubeEngine(&wh).Execute(q);
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ(cube->CellValue({Value::Str("70-80")}), Value::Int(5));

  auto drilled = cube->DrillDown(0);
  ASSERT_TRUE(drilled.ok());
  EXPECT_EQ(drilled->query().axes[0].attribute, "AgeBand5");
  EXPECT_EQ(drilled->CellValue({Value::Str("70-75")}), Value::Int(3));
  EXPECT_EQ(drilled->CellValue({Value::Str("75-80")}), Value::Int(2));

  // Drill-down sums must reproduce the coarse counts.
  int64_t total_70_80 =
      drilled->CellValue({Value::Str("70-75")}).int_value() +
      drilled->CellValue({Value::Str("75-80")}).int_value();
  EXPECT_EQ(total_70_80, 5);

  // Rolling the drilled cube back up restores the coarse level.
  auto rolled = drilled->RollUpToCoarser(0);
  ASSERT_TRUE(rolled.ok());
  EXPECT_EQ(rolled->CellValue({Value::Str("70-80")}), Value::Int(5));

  // AgeBand5 is the finest level.
  EXPECT_TRUE(drilled->DrillDown(0).status().IsNotFound());
  // Gender has no hierarchy.
  auto gender_cube = CubeEngine(&wh).Execute(CountByGender());
  EXPECT_TRUE(gender_cube->DrillDown(0).status().IsNotFound());
}

TEST(CubeTest, ToTableSortedAndNonEmpty) {
  Warehouse wh = MakeWarehouse();
  CubeQuery q;
  q.axes = {AxisSpec{"Person", "Gender", {}},
            AxisSpec{"Condition", "Diabetes", {}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"}};
  auto cube = CubeEngine(&wh).Execute(q);
  ASSERT_TRUE(cube.ok());
  auto table = cube->ToTable();
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 4u);  // F/M x Yes/No all non-empty
  EXPECT_EQ(table->schema().field(0).name, "Gender");
  EXPECT_EQ(table->schema().field(1).name, "Diabetes");
  EXPECT_EQ(table->schema().field(2).name, "n");
  // Sorted by coordinates: F/No, F/Yes, M/No, M/Yes.
  EXPECT_EQ(*table->GetCell(0, "Gender"), Value::Str("F"));
  EXPECT_EQ(*table->GetCell(0, "Diabetes"), Value::Str("No"));
  EXPECT_EQ(*table->GetCell(0, "n"), Value::Int(2));
}

TEST(CubeTest, PivotGrid) {
  Warehouse wh = MakeWarehouse();
  CubeQuery q;
  q.axes = {AxisSpec{"Person", "AgeBand10", {}},
            AxisSpec{"Person", "Gender", {}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"}};
  auto cube = CubeEngine(&wh).Execute(q);
  ASSERT_TRUE(cube.ok());
  auto grid = cube->Pivot(0, 1);
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->num_rows(), 2u);     // 60-70, 70-80
  EXPECT_EQ(grid->num_columns(), 3u);  // label, F, M
  EXPECT_EQ(*grid->GetCell(1, "F"), Value::Int(4));
  EXPECT_EQ(*grid->GetCell(1, "M"), Value::Int(1));
  // Empty cells are null.
  EXPECT_TRUE(grid->schema().HasField("F"));
  // Pivot on a 1-axis cube fails.
  auto cube1 = CubeEngine(&wh).Execute(CountByGender());
  EXPECT_TRUE(cube1->Pivot(0, 1).status().IsFailedPrecondition());
}

TEST(CubeTest, ErrorsOnBadQuery) {
  Warehouse wh = MakeWarehouse();
  CubeEngine engine(&wh);
  CubeQuery no_measures;
  no_measures.axes = {AxisSpec{"Person", "Gender", {}}};
  EXPECT_TRUE(engine.Execute(no_measures).status().IsInvalidArgument());

  CubeQuery bad_dim = CountByGender();
  bad_dim.axes[0].dimension = "Nope";
  EXPECT_TRUE(engine.Execute(bad_dim).status().IsNotFound());

  CubeQuery bad_attr = CountByGender();
  bad_attr.axes[0].attribute = "Nope";
  EXPECT_TRUE(engine.Execute(bad_attr).status().IsNotFound());

  CubeQuery bad_measure = CountByGender();
  bad_measure.measures = {AggSpec{AggFn::kAvg, "Nope", ""}};
  EXPECT_TRUE(engine.Execute(bad_measure).status().IsNotFound());

  CubeQuery avg_no_col = CountByGender();
  avg_no_col.measures = {AggSpec{AggFn::kAvg, "", ""}};
  EXPECT_TRUE(engine.Execute(avg_no_col).status().IsInvalidArgument());
}

TEST(CubeTest, ZeroAxesGrandTotal) {
  Warehouse wh = MakeWarehouse();
  CubeQuery q;
  q.measures = {AggSpec{AggFn::kCount, "", "n"},
                AggSpec{AggFn::kAvg, "FBG", "avg"}};
  auto cube = CubeEngine(&wh).Execute(q);
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ(cube->num_cells(), 1u);
  EXPECT_EQ(cube->CellValue({}, 0), Value::Int(8));
}

// ---------------------------------------------------------------------
// Kernel: every cube below is checked cell for cell against the
// baseline DGMS, which answers the same CubeQuery by a boxed group-by
// over the flat extract.
// ---------------------------------------------------------------------

// Optional values: null on every `every`-th row (offset `at`).
bool NullAt(int i, int every, int at) { return i % every == at; }

// A 40k-row extract. G, B and V are the original parallel-scan input;
// N (string) and K (int64) carry nulls for the axis cases; IV (int64)
// and DV (double) are nullable measures; P, Q, R span a 47 x 43 x 53
// cell space, past the dense slot limit.
Table MakeKernelExtract() {
  auto schema = Schema::Make({{"G", DataType::kString},
                              {"B", DataType::kString},
                              {"V", DataType::kDouble},
                              {"N", DataType::kString},
                              {"K", DataType::kInt64},
                              {"IV", DataType::kInt64},
                              {"DV", DataType::kDouble},
                              {"P", DataType::kInt64},
                              {"Q", DataType::kString},
                              {"R", DataType::kInt64}});
  Table t(std::move(schema).value());
  for (int i = 0; i < 40000; ++i) {
    Row row = {
        Value::Str(i % 2 == 0 ? "x" : "y"),
        Value::Str(std::to_string(i % 7)),
        Value::Real(static_cast<double>(i % 113) / 3.0),
        NullAt(i, 11, 0) ? Value::Null() : Value::Str(i % 3 == 0 ? "a" : "b"),
        NullAt(i, 13, 5) ? Value::Null() : Value::Int((i % 6) * 10),
        NullAt(i, 9, 0) ? Value::Null() : Value::Int((i * 37) % 101 - 50),
        NullAt(i, 7, 3) ? Value::Null() : Value::Real((i % 89) * 0.25 - 3.5),
        Value::Int(i % 47),
        Value::Str(std::to_string((i / 47) % 43)),
        Value::Int((i * 7) % 53)};
    EXPECT_TRUE(t.AppendRow(row).ok());
  }
  return t;
}

class CubeKernelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    extract_ = new Table(MakeKernelExtract());
    auto wh = StarSchemaBuilder(KernelSchema()).Build(*extract_);
    ASSERT_TRUE(wh.ok()) << wh.status().ToString();
    warehouse_ = new Warehouse(std::move(wh).value());
  }

  static void TearDownTestSuite() {
    delete warehouse_;
    delete extract_;
  }

  // The kernel extract's star schema.
  static StarSchemaDef KernelSchema() {
    StarSchemaDef def;
    def.fact_name = "F";
    def.measures = {MeasureDef{"V", "V"}, MeasureDef{"IV", "IV"},
                    MeasureDef{"DV", "DV"}};
    def.dimensions = {DimensionDef{"D", {"G", "B", "N", "K"}, {}},
                      DimensionDef{"W", {"P", "Q", "R"}, {}}};
    return def;
  }

  // Executes `q` and checks it against the baseline: the same cells,
  // each with the same fact count and measure values, doubles to the
  // bit (the baseline feeds Accumulator::Add in row order). Returns the
  // cube for case-specific checks.
  static Cube ExpectMatchesBaseline(const CubeQuery& q,
                                    PlanNode* plan = nullptr) {
    return ExpectMatchesBaselineOn(*warehouse_, *extract_, q, plan);
  }

  // ExpectMatchesBaseline for the warehouse `wh` built from `extract`.
  static Cube ExpectMatchesBaselineOn(const Warehouse& wh,
                                      const Table& extract,
                                      const CubeQuery& q,
                                      PlanNode* plan = nullptr) {
    auto cube = CubeEngine(&wh).Execute(q, plan);
    EXPECT_TRUE(cube.ok()) << cube.status().ToString();
    if (!cube.ok()) return Cube();
    auto flat = core::BaselineDgms(&extract).Execute(q);
    EXPECT_TRUE(flat.ok()) << flat.status().ToString();
    if (!flat.ok()) return std::move(cube).value();
    EXPECT_EQ(cube->num_cells(), flat->num_rows()) << q.ToString();
    size_t facts = 0;
    for (size_t r = 0; r < flat->num_rows(); ++r) {
      std::vector<Value> coord;
      std::string where;
      for (const AxisSpec& a : q.axes) {
        coord.push_back(*flat->GetCell(r, a.attribute));
        where += a.attribute + "=" + coord.back().ToString() + " ";
      }
      EXPECT_GT(cube->CellCount(coord), 0u) << where;
      facts += cube->CellCount(coord);
      for (size_t m = 0; m < q.measures.size(); ++m) {
        const Value want = *flat->GetCell(r, q.measures[m].OutputName());
        const Value got = cube->CellValue(coord, m);
        if (want.type() == DataType::kDouble &&
            got.type() == DataType::kDouble) {
          EXPECT_EQ(std::bit_cast<uint64_t>(got.double_value()),
                    std::bit_cast<uint64_t>(want.double_value()))
              << where << q.measures[m].OutputName() << ": got "
              << got.ToString() << " want " << want.ToString();
        } else {
          EXPECT_TRUE(got.Equals(want) && got.type() == want.type())
              << where << q.measures[m].OutputName() << ": got '"
              << got.ToString() << "' want '" << want.ToString() << "'";
        }
      }
    }
    EXPECT_EQ(facts, cube->facts_aggregated());
    return std::move(cube).value();
  }

  // `plan` holds the engine's "olap.cube.execute" node.
  static const std::string* ScanProp(const PlanNode& plan,
                                     const std::string& key) {
    for (const PlanNode& child : plan.children.at(0).children) {
      if (child.op != "olap.cube.scan") continue;
      for (const auto& [k, v] : child.props) {
        if (k == key) return &v;
      }
    }
    return nullptr;
  }

  static Table* extract_;
  static Warehouse* warehouse_;
};

Table* CubeKernelTest::extract_ = nullptr;
Warehouse* CubeKernelTest::warehouse_ = nullptr;

TEST_F(CubeKernelTest, FortyThousandRowsFiveMeasures) {
  CubeQuery q;
  q.axes = {AxisSpec{"D", "G", {}}, AxisSpec{"D", "B", {}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"},
                AggSpec{AggFn::kSum, "V", "s"},
                AggSpec{AggFn::kMin, "V", "lo"},
                AggSpec{AggFn::kMax, "V", "hi"},
                AggSpec{AggFn::kCountDistinct, "V", "d"}};
  Cube cube = ExpectMatchesBaseline(q);
  EXPECT_EQ(cube.num_cells(), 14u);
  EXPECT_EQ(cube.facts_aggregated(), 40000u);
}

// Past three axes the scan's axis loop has a runtime length.
TEST_F(CubeKernelTest, FourAxesTakeTheRuntimeLengthLoop) {
  CubeQuery q;
  q.axes = {AxisSpec{"D", "G", {}}, AxisSpec{"D", "B", {}},
            AxisSpec{"D", "N", {}},
            AxisSpec{"D", "K", {Value::Int(10), Value::Int(30)}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"},
                AggSpec{AggFn::kAvg, "DV", "avg"},
                AggSpec{AggFn::kMin, "V", "lo"}};
  ExpectMatchesBaseline(q);
}

TEST_F(CubeKernelTest, AllAggregatesOverNullableIntAndDouble) {
  const AggFn fns[] = {AggFn::kCount,    AggFn::kCountValid,
                       AggFn::kCountDistinct, AggFn::kSum,
                       AggFn::kAvg,      AggFn::kMin,
                       AggFn::kMax,      AggFn::kVariance,
                       AggFn::kStdDev};
  CubeQuery q;
  q.axes = {AxisSpec{"D", "B", {}}};
  for (const char* column : {"IV", "DV"}) {
    for (AggFn fn : fns) q.measures.push_back(AggSpec{fn, column, ""});
  }
  Cube cube = ExpectMatchesBaseline(q);
  // Nulls count toward count but not count_valid.
  const std::vector<Value> cell = {Value::Str("0")};
  EXPECT_GT(cube.CellValue(cell, 0).int_value(),
            cube.CellValue(cell, 1).int_value());
}

TEST_F(CubeKernelTest, AxisWithNullMembers) {
  CubeQuery q;
  q.axes = {AxisSpec{"D", "N", {}}, AxisSpec{"D", "G", {}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"},
                AggSpec{AggFn::kAvg, "DV", "avg"}};
  Cube cube = ExpectMatchesBaseline(q);
  ASSERT_EQ(cube.AxisMembers(0).size(), 3u);  // null, "a", "b"
  EXPECT_TRUE(cube.AxisMembers(0).front().is_null());

  // A null listed in a member restriction selects the null rows.
  CubeQuery restricted;
  restricted.axes = {AxisSpec{"D", "N", {Value::Str("b"), Value::Null()}}};
  restricted.measures = {AggSpec{AggFn::kCount, "", "n"}};
  auto r = CubeEngine(warehouse_).Execute(restricted);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->AxisMembers(0).size(), 2u);
  EXPECT_EQ(r->AxisMembers(0)[0], Value::Str("b"));
  EXPECT_TRUE(r->AxisMembers(0)[1].is_null());
  EXPECT_EQ(r->CellCount({Value::Null()}), 40000u / 11 + 1);
}

// A restriction or a slicer that lists the null member admits the null
// rows, in the engine and in the baseline alike.
TEST_F(CubeKernelTest, RestrictionListingNullMatchesBaseline) {
  CubeQuery q;
  q.axes = {AxisSpec{"D", "G", {}},
            AxisSpec{"D", "K", {Value::Int(10), Value::Null()}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"},
                AggSpec{AggFn::kSum, "IV", "s"}};
  Cube cube = ExpectMatchesBaseline(q);
  // K = 10 only on odd rows (G = y); K null on both.
  EXPECT_EQ(cube.num_cells(), 3u);
  EXPECT_EQ(cube.facts_aggregated(), 9231u);
}

TEST_F(CubeKernelTest, NullSlicerMatchesBaseline) {
  CubeQuery q;
  q.axes = {AxisSpec{"D", "G", {}}};
  q.slicers = {SlicerSpec{"D", "K", {Value::Null()}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"},
                AggSpec{AggFn::kAvg, "DV", "avg"}};
  Cube cube = ExpectMatchesBaseline(q);
  EXPECT_EQ(cube.num_cells(), 2u);
  EXPECT_EQ(cube.facts_aggregated(), 3077u);
}

TEST_F(CubeKernelTest, IntTypedAxisAttribute) {
  CubeQuery q;
  q.axes = {AxisSpec{"D", "K", {}}, AxisSpec{"D", "B", {}}};
  q.slicers = {SlicerSpec{"D", "G", {Value::Str("x")}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"},
                AggSpec{AggFn::kSum, "IV", "s"},
                AggSpec{AggFn::kStdDev, "DV", "sd"}};
  Cube cube = ExpectMatchesBaseline(q);
  // Even rows only: null, 0, 20, 40, sorted with null first.
  EXPECT_EQ(cube.AxisMembers(0),
            (std::vector<Value>{Value::Null(), Value::Int(0), Value::Int(20),
                                Value::Int(40)}));

  // Int members match int64 and double spellings alike, as ValueEq
  // says; the restriction's own spelling names the member.
  CubeQuery spelled;
  spelled.axes = {AxisSpec{"D", "K", {Value::Real(10.0), Value::Int(30)}}};
  spelled.slicers = {SlicerSpec{"D", "K", {Value::Int(10), Value::Real(30)}}};
  spelled.measures = {AggSpec{AggFn::kCount, "", "n"}};
  Cube s = ExpectMatchesBaseline(spelled);
  ASSERT_EQ(s.AxisMembers(0).size(), 2u);
  EXPECT_EQ(s.AxisMembers(0)[0].type(), DataType::kDouble);
}

TEST_F(CubeKernelTest, RestrictedAxesWithDuplicateAndAbsentMembers) {
  CubeQuery q;
  q.axes = {AxisSpec{"D", "B",
                     {Value::Str("3"), Value::Str("1"), Value::Str("3"),
                      Value::Str("9")}},
            AxisSpec{"D", "G",
                     {Value::Str("y"), Value::Str("z"), Value::Str("y")}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"},
                AggSpec{AggFn::kAvg, "IV", "avg"}};
  Cube cube = ExpectMatchesBaseline(q);
  // Restriction order, duplicates dropped, absent members hidden.
  EXPECT_EQ(cube.AxisMembers(0),
            (std::vector<Value>{Value::Str("3"), Value::Str("1")}));
  EXPECT_EQ(cube.AxisMembers(1), (std::vector<Value>{Value::Str("y")}));

  q.non_empty = false;  // absent members stay visible
  auto padded = CubeEngine(warehouse_).Execute(q);
  ASSERT_TRUE(padded.ok());
  EXPECT_EQ(padded->AxisMembers(0),
            (std::vector<Value>{Value::Str("3"), Value::Str("1"),
                                Value::Str("9")}));
  EXPECT_EQ(padded->num_cells(), cube.num_cells());
}

TEST_F(CubeKernelTest, ZeroAxisGrandTotal) {
  CubeQuery q;
  q.measures = {AggSpec{AggFn::kCount, "", "n"},
                AggSpec{AggFn::kSum, "IV", "s"},
                AggSpec{AggFn::kVariance, "DV", "var"},
                AggSpec{AggFn::kMax, "DV", "hi"}};
  Cube cube = ExpectMatchesBaseline(q);
  EXPECT_EQ(cube.num_cells(), 1u);
  EXPECT_EQ(cube.CellValue({}, 0), Value::Int(40000));

  q.slicers = {SlicerSpec{"D", "B", {Value::Str("2"), Value::Str("5")}}};
  ExpectMatchesBaseline(q);
}

TEST_F(CubeKernelTest, HashedSlotsPastTheDenseLimit) {
  CubeQuery q;
  q.axes = {AxisSpec{"W", "P", {}}, AxisSpec{"W", "Q", {}},
            AxisSpec{"W", "R", {}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"},
                AggSpec{AggFn::kAvg, "DV", "avg"},
                AggSpec{AggFn::kMax, "IV", "hi"}};
  PlanNode plan;
  ExpectMatchesBaseline(q, &plan);  // 47 * 43 * 53 = 107113 cells
  const std::string* slots = ScanProp(plan, "slots");
  ASSERT_NE(slots, nullptr);
  EXPECT_EQ(*slots, "hashed");

  q.axes.pop_back();  // 47 * 43 = 2021 cells
  PlanNode dense_plan;
  ExpectMatchesBaseline(q, &dense_plan);
  slots = ScanProp(dense_plan, "slots");
  ASSERT_NE(slots, nullptr);
  EXPECT_EQ(*slots, "dense");
}

TEST_F(CubeKernelTest, CellSpacePast64BitsIsInvalidArgument) {
  // (47 * 43 * 53)^4 is about 1.3e20 cells, past 2^64.
  CubeQuery q;
  for (int i = 0; i < 4; ++i) {
    for (const char* attr : {"P", "Q", "R"}) {
      q.axes.push_back(AxisSpec{"W", attr, {}});
    }
  }
  q.measures = {AggSpec{AggFn::kCount, "", "n"}};
  EXPECT_TRUE(CubeEngine(warehouse_).Execute(q).status().IsInvalidArgument());
  q.axes.resize(9);  // about 1.2e15 cells: hashed, and fine
  auto cube = CubeEngine(warehouse_).Execute(q);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  EXPECT_EQ(cube->facts_aggregated(), 40000u);
}

TEST(CubeTest, TopCellsRanking) {
  Warehouse wh = MakeWarehouse();
  CubeQuery q;
  q.axes = {AxisSpec{"Person", "AgeBand5", {}},
            AxisSpec{"Person", "Gender", {}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"}};
  auto cube = CubeEngine(&wh).Execute(q);
  ASSERT_TRUE(cube.ok());
  auto top = cube->TopCells(2);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 2u);
  // Largest cell: (70-75, F) with 2 facts (rows 1,8).
  EXPECT_EQ((*top)[0].coordinates[0], Value::Str("70-75"));
  EXPECT_EQ((*top)[0].coordinates[1], Value::Str("F"));
  EXPECT_DOUBLE_EQ((*top)[0].value, 2.0);
  EXPECT_GE((*top)[0].value, (*top)[1].value);

  auto bottom = cube->TopCells(1, 0, /*largest=*/false);
  ASSERT_TRUE(bottom.ok());
  EXPECT_DOUBLE_EQ((*bottom)[0].value, 1.0);

  // k larger than cell count returns everything.
  auto all = cube->TopCells(1000);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), cube->num_cells());
  EXPECT_TRUE(cube->TopCells(3, 9).status().IsOutOfRange());
}

TEST(CubeTest, NullAttributeValuesFormCoordinates) {
  // A null attribute value is a legitimate dimension member and must
  // group facts like any other coordinate.
  Table extract = MakeExtract();
  ASSERT_TRUE(extract.SetCell(0, "Diabetes", Value::Null()).ok());
  ASSERT_TRUE(extract.SetCell(4, "Diabetes", Value::Null()).ok());
  StarSchemaDef def;
  def.fact_name = "Facts";
  def.measures = {MeasureDef{"FBG", "FBG"}};
  DimensionDef condition;
  condition.name = "Condition";
  condition.attributes = {"Diabetes"};
  def.dimensions = {condition};
  auto wh = StarSchemaBuilder(def).Build(extract);
  ASSERT_TRUE(wh.ok());
  CubeQuery q;
  q.axes = {AxisSpec{"Condition", "Diabetes", {}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"}};
  auto cube = CubeEngine(&*wh).Execute(q);
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ(cube->num_cells(), 3u);  // Yes, No, null
  EXPECT_EQ(cube->CellValue({Value::Null()}), Value::Int(2));
  // Null sorts first in the member list.
  EXPECT_TRUE(cube->AxisMembers(0).front().is_null());
}

// A one-dimension warehouse over MakeExtract() with nulls planted in
// Diabetes (rows 1 and 5) and an int64 attribute Visits that is null
// on row 3.
Warehouse MakeNullFirstWarehouse() {
  Table extract = MakeExtract();
  EXPECT_TRUE(extract.SetCell(0, "Diabetes", Value::Null()).ok());
  EXPECT_TRUE(extract.SetCell(4, "Diabetes", Value::Null()).ok());
  ColumnVector visits("Visits", DataType::kInt64);
  for (size_t i = 0; i < extract.num_rows(); ++i) {
    if (i == 2) {
      visits.AppendNull();
    } else {
      visits.AppendInt(static_cast<int64_t>(i % 3));
    }
  }
  EXPECT_TRUE(extract.AddColumn(std::move(visits)).ok());
  StarSchemaDef def;
  def.fact_name = "Facts";
  def.measures = {MeasureDef{"FBG", "FBG"}};
  def.dimensions = {DimensionDef{"Person", {"Gender", "Diabetes", "Visits"},
                                 {}}};
  auto wh = StarSchemaBuilder(def).Build(extract);
  EXPECT_TRUE(wh.ok()) << wh.status().ToString();
  return std::move(wh).value();
}

TEST(CubeTest, PivotRowsWithNullFirstMember) {
  Warehouse wh = MakeNullFirstWarehouse();
  CubeQuery q;
  q.axes = {AxisSpec{"Person", "Diabetes", {}},
            AxisSpec{"Person", "Gender", {}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"}};
  auto cube = CubeEngine(&wh).Execute(q);
  ASSERT_TRUE(cube.ok());
  ASSERT_TRUE(cube->AxisMembers(0).front().is_null());
  auto grid = cube->Pivot(0, 1);
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  EXPECT_EQ(grid->schema().field(0).type, DataType::kString);
  ASSERT_EQ(grid->num_rows(), 3u);  // null, No, Yes
  EXPECT_TRUE(grid->column(0).IsNull(0));
  // Rows 0 (F) and 4 (M) carry the null diagnosis.
  EXPECT_EQ(*grid->GetCell(0, "F"), Value::Int(1));
  EXPECT_EQ(*grid->GetCell(0, "M"), Value::Int(1));
  EXPECT_TRUE(cube->PivotShare(0, 1, Cube::ShareBasis::kRow).ok());
}

TEST(CubeTest, ToTableIntAxisWithNullMember) {
  Warehouse wh = MakeNullFirstWarehouse();
  CubeQuery q;
  q.axes = {AxisSpec{"Person", "Visits", {}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"}};
  auto cube = CubeEngine(&wh).Execute(q);
  ASSERT_TRUE(cube.ok());
  auto table = cube->ToTable();
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->schema().field(0).type, DataType::kInt64);
  ASSERT_EQ(table->num_rows(), 4u);  // null, 0, 1, 2
  EXPECT_TRUE(table->column(0).IsNull(0));
  EXPECT_EQ(*table->GetCell(0, "n"), Value::Int(1));
  EXPECT_EQ(*table->GetCell(1, "Visits"), Value::Int(0));

  // An axis whose only member is null still gets a (string) column.
  CubeQuery only_null = q;
  only_null.slicers = {SlicerSpec{"Person", "Visits", {Value::Null()}}};
  auto null_cube = CubeEngine(&wh).Execute(only_null);
  ASSERT_TRUE(null_cube.ok());
  auto null_table = null_cube->ToTable();
  ASSERT_TRUE(null_table.ok()) << null_table.status().ToString();
  EXPECT_EQ(null_table->schema().field(0).type, DataType::kString);
  EXPECT_EQ(null_table->num_rows(), 1u);
}

TEST(CubeTest, RestrictedMemberAbsentFromDimensionIsEmpty) {
  Warehouse wh = MakeWarehouse();
  CubeQuery q;
  q.axes = {AxisSpec{"Person", "Gender",
                     {Value::Str("F"), Value::Str("X")}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"}};
  q.non_empty = true;
  auto cube = CubeEngine(&wh).Execute(q);
  ASSERT_TRUE(cube.ok());
  // "X" never occurs: dropped from the axis under non_empty.
  ASSERT_EQ(cube->AxisMembers(0).size(), 1u);
  EXPECT_EQ(cube->AxisMembers(0)[0], Value::Str("F"));
  EXPECT_TRUE(cube->CellValue({Value::Str("X")}).is_null());

  // With non_empty=false the restricted member stays visible.
  q.non_empty = false;
  auto padded = CubeEngine(&wh).Execute(q);
  ASSERT_TRUE(padded.ok());
  ASSERT_EQ(padded->AxisMembers(0).size(), 2u);
  EXPECT_EQ(padded->AxisMembers(0)[1], Value::Str("X"));
}

TEST(CubeTest, DuplicateRestrictionMembersDeduplicated) {
  Warehouse wh = MakeWarehouse();
  CubeQuery q;
  q.axes = {AxisSpec{"Person", "Gender",
                     {Value::Str("F"), Value::Str("F")}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"}};
  auto cube = CubeEngine(&wh).Execute(q);
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ(cube->AxisMembers(0).size(), 1u);
  EXPECT_EQ(cube->facts_aggregated(), 5u);
}

// Property sweep: for any axis attribute, per-cell counts sum to the
// slicer-admitted fact count. The (dimension, attribute) parameters
// are strings rather than `const char*`, so the test names print the
// names and not pointer values.
using DimAttr = std::pair<std::string, std::string>;

class CubePartitionTest : public ::testing::TestWithParam<DimAttr> {};

TEST_P(CubePartitionTest, CellCountsPartitionFacts) {
  Warehouse wh = MakeWarehouse();
  auto [dim, attr] = GetParam();
  CubeQuery q;
  q.axes = {AxisSpec{dim, attr, {}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"}};
  auto cube = CubeEngine(&wh).Execute(q);
  ASSERT_TRUE(cube.ok());
  int64_t total = 0;
  for (const Value& member : cube->AxisMembers(0)) {
    total += cube->CellValue({member}).int_value();
  }
  EXPECT_EQ(total, 8);
}

INSTANTIATE_TEST_SUITE_P(
    Axes, CubePartitionTest,
    ::testing::Values(DimAttr("Person", "Gender"),
                      DimAttr("Person", "AgeBand10"),
                      DimAttr("Person", "AgeBand5"),
                      DimAttr("Condition", "Diabetes")));

// ---------------------------------------------------------------------
// Grid bytes: what Pivot, ToTable, PivotShare and TopCells print for
// small cubes, pinned by size and CRC32C.
// ---------------------------------------------------------------------

// Every grid a cube offers, as text: both pivots and the three shares
// of a two-axis cube (or the error a cube of another shape gets), the
// flat table, and for each measure the whole ranking and the three
// smallest cells.
std::string GridsText(const Result<Cube>& cube) {
  std::string out;
  auto error = [&out](const Status& status) {
    out += "error: ";
    out += status.ToString();
    out += '\n';
  };
  if (!cube.ok()) {
    error(cube.status());
    return out;
  }
  auto add = [&](const char* what, const Result<Table>& table) {
    out += what;
    out += '\n';
    if (table.ok()) {
      out += table->ToPrettyString(1000);
    } else {
      error(table.status());
    }
  };
  add("pivot", cube->Pivot(0, 1));
  add("pivot transposed", cube->Pivot(1, 0));
  add("row share", cube->PivotShare(0, 1, Cube::ShareBasis::kRow));
  add("column share", cube->PivotShare(0, 1, Cube::ShareBasis::kColumn));
  add("grand share", cube->PivotShare(0, 1, Cube::ShareBasis::kGrand));
  add("table", cube->ToTable());
  for (size_t m = 0; m < cube->num_measures(); ++m) {
    for (const bool largest : {true, false}) {
      auto ranked = cube->TopCells(largest ? cube->num_cells() : 3, m,
                                   largest);
      out += "top cells of measure ";
      out += std::to_string(m);
      out += largest ? ", largest first\n" : ", smallest three\n";
      if (!ranked.ok()) {
        error(ranked.status());
        continue;
      }
      for (const Cube::RankedCell& c : *ranked) {
        for (const Value& v : c.coordinates) {
          out += v.ToString();
          out += ' ';
        }
        out += StrFormat("%.17g n=%zu\n", c.value, c.fact_count);
      }
    }
  }
  return out;
}

struct GridDigest {
  size_t bytes = 0;
  uint32_t crc32c = 0;

  bool operator==(const GridDigest& other) const {
    return bytes == other.bytes && crc32c == other.crc32c;
  }
};

void PrintTo(const GridDigest& d, std::ostream* os) {
  *os << "{" << d.bytes << ", 0x" << std::hex << d.crc32c << std::dec << "}";
}

GridDigest DigestOf(const std::string& text) {
  return GridDigest{text.size(), Crc32c(text)};
}

// Measured with the boxed cube (a hash map of coordinate vectors) that
// the flat cube replaced.
TEST(CubeGridTest, RestrictedAxisInListedOrderIncludingEmpty) {
  Warehouse wh = MakeWarehouse();
  CubeQuery q;
  q.axes = {AxisSpec{"Person", "AgeBand10",
                     {Value::Str("70-80"), Value::Str("absent"),
                      Value::Str("60-70")}},
            AxisSpec{"Person", "Gender", {}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"}};
  q.non_empty = false;
  const std::string text = GridsText(CubeEngine(&wh).Execute(q));
  EXPECT_EQ(DigestOf(text), (GridDigest{1091, 0x557d19a3})) << text;
}

TEST(CubeGridTest, NullMembersOnRowsAndColumns) {
  Warehouse wh = MakeNullFirstWarehouse();
  CubeQuery q;
  q.axes = {AxisSpec{"Person", "Diabetes", {}},
            AxisSpec{"Person", "Visits", {}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"},
                AggSpec{AggFn::kMax, "FBG", "hi"}};
  const std::string text = GridsText(CubeEngine(&wh).Execute(q));
  EXPECT_EQ(DigestOf(text), (GridDigest{1820, 0xbad14a24})) << text;
}

TEST(CubeGridTest, DoubleMeasure) {
  Warehouse wh = MakeWarehouse();
  CubeQuery q;
  q.axes = {AxisSpec{"Person", "AgeBand5", {}},
            AxisSpec{"Person", "Gender", {}}};
  q.measures = {AggSpec{AggFn::kAvg, "FBG", "avg"},
                AggSpec{AggFn::kCount, "", "n"},
                AggSpec{AggFn::kStdDev, "FBG", "sd"}};
  const std::string text = GridsText(CubeEngine(&wh).Execute(q));
  EXPECT_EQ(DigestOf(text), (GridDigest{1944, 0x85358f46})) << text;
}

TEST(CubeGridTest, ZeroAxes) {
  Warehouse wh = MakeWarehouse();
  CubeQuery q;
  q.measures = {AggSpec{AggFn::kCount, "", "n"},
                AggSpec{AggFn::kSum, "FBG", "s"}};
  const std::string text = GridsText(CubeEngine(&wh).Execute(q));
  EXPECT_EQ(DigestOf(text), (GridDigest{636, 0x87dfd86a})) << text;
}

// ---------------------------------------------------------------------
// Navigation from the parent cube. RollUp, Slice and Dice derive their
// cube from the parent's cells when those hold every fact the answer
// needs, and otherwise re-run the engine. Every result below is checked
// against a fresh engine run of its own query, and the `from` attribute
// of its span against the rule for which path it should take.
// ---------------------------------------------------------------------

// A seeded DiScRi extract after ETL. Its measures are nullable doubles
// and a null-free int64 Age, so it gains AgeOrNull, a nullable int64
// copy of Age.
Table MakeNavigationExtract(size_t patients, uint64_t seed) {
  discri::CohortOptions opt;
  opt.num_patients = patients;
  opt.seed = seed;
  auto raw = discri::GenerateCohort(opt);
  EXPECT_TRUE(raw.ok()) << raw.status().ToString();
  Table t = std::move(raw).value();
  EXPECT_TRUE(discri::MakeDiscriPipeline().Run(&t).ok());
  const ColumnVector& age = *t.ColumnByName("Age").value();
  ColumnVector age_or_null("AgeOrNull", DataType::kInt64);
  for (size_t r = 0; r < age.size(); ++r) {
    if (r % 7 == 3 || age.IsNull(r)) {
      age_or_null.AppendNull();
    } else {
      age_or_null.AppendInt(age.ints()[r]);
    }
  }
  EXPECT_TRUE(t.AddColumn(std::move(age_or_null)).ok());
  return t;
}

Warehouse BuildNavigationWarehouse(const Table& extract) {
  StarSchemaDef def = discri::MakeDiscriSchemaDef();
  def.measures.push_back(MeasureDef{"AgeOrNull", "AgeOrNull"});
  auto wh = StarSchemaBuilder(def).Build(extract);
  EXPECT_TRUE(wh.ok()) << wh.status().ToString();
  return std::move(wh).value();
}

bool SameValue(const Value& a, const Value& b) {
  return a.type() == b.type() && a.Equals(b);
}

bool Lists(const std::vector<Value>& values, const Value& v) {
  return std::any_of(values.begin(), values.end(),
                     [&v](const Value& m) { return m.Equals(v); });
}

// One dimension attribute and every member it has, null included.
struct NavAttr {
  std::string dimension;
  std::string name;
  std::vector<Value> members;
};

class CubeNavigationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    warehouse_ = new Warehouse(
        BuildNavigationWarehouse(MakeNavigationExtract(300, 424)));
    attrs_ = new std::vector<NavAttr>;
    for (const Dimension& dim : warehouse_->dimensions()) {
      const Table& t = dim.table();
      for (const std::string& attr : dim.def().attributes) {
        const ColumnVector& col = *t.ColumnByName(attr).value();
        NavAttr a{dim.name(), attr, {}};
        for (size_t r = 0; r < col.size(); ++r) {
          if (!Lists(a.members, col.GetValue(r))) {
            a.members.push_back(col.GetValue(r));
          }
        }
        attrs_->push_back(std::move(a));
      }
    }
  }

  static void TearDownTestSuite() {
    delete warehouse_;
    delete attrs_;
  }

  void SetUp() override {
    TraceCollector::Global().Clear();
    TraceCollector::Enable();
  }

  void TearDown() override {
    TraceCollector::Disable();
    TraceCollector::Global().Clear();
  }

  // The `from` attribute of the last navigation span ("cube" or
  // "warehouse"); consumes the recorded spans.
  static std::string From() {
    std::vector<SpanRecord> spans = TraceCollector::Global().Drain();
    for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
      if (it->name != "olap.rollup" && it->name != "olap.slice" &&
          it->name != "olap.dice") {
        continue;
      }
      for (const auto& [key, value] : it->attributes) {
        if (key == "from") return value;
      }
    }
    return "";
  }

  // Checks a navigation result against the engine's answer to the same
  // query on `wh`: cell count, facts, axis members in order, and every
  // cell the axis members span (fact count, and each measure within
  // 1e-9 relative for doubles, otherwise equal and of the same type).
  static void ExpectMatchesEngine(const Result<Cube>& got,
                                  const Warehouse& wh,
                                  const std::string& context) {
    ASSERT_TRUE(got.ok()) << context << ": " << got.status().ToString();
    auto want = CubeEngine(&wh).Execute(got->query());
    ASSERT_TRUE(want.ok()) << context << ": " << want.status().ToString();
    const std::string where = context + " -> " + got->query().ToString();
    EXPECT_EQ(got->num_cells(), want->num_cells()) << where;
    EXPECT_EQ(got->facts_aggregated(), want->facts_aggregated()) << where;
    ASSERT_EQ(got->num_axes(), want->num_axes()) << where;
    for (size_t a = 0; a < want->num_axes(); ++a) {
      const std::vector<Value>& g = got->AxisMembers(a);
      const std::vector<Value>& w = want->AxisMembers(a);
      ASSERT_EQ(g.size(), w.size()) << where << " axis " << a;
      for (size_t i = 0; i < w.size(); ++i) {
        EXPECT_TRUE(SameValue(g[i], w[i]))
            << where << " axis " << a << " member " << i << ": got '"
            << g[i].ToString() << "' want '" << w[i].ToString() << "'";
      }
    }
    std::vector<Value> coord(want->num_axes());
    ExpectCellsMatch(*got, *want, &coord, 0, where);
    // Cells are keyed under ValueEq, so only their listed coordinates
    // show how each member is spelled.
    const std::vector<std::vector<Value>> g = Coordinates(*got);
    const std::vector<std::vector<Value>> w = Coordinates(*want);
    ASSERT_EQ(g.size(), w.size()) << where;
    for (size_t c = 0; c < w.size(); ++c) {
      for (size_t a = 0; a < w[c].size(); ++a) {
        EXPECT_TRUE(SameValue(g[c][a], w[c][a]))
            << where << " cell " << c << " axis " << a << ": got '"
            << g[c][a].ToString() << "' want '" << w[c][a].ToString()
            << "'";
      }
    }
  }

  // The coordinates of the cells whose first measure is numeric, as
  // the cells list them, sorted.
  static std::vector<std::vector<Value>> Coordinates(const Cube& cube) {
    auto ranked = cube.TopCells(cube.num_cells());
    EXPECT_TRUE(ranked.ok()) << ranked.status().ToString();
    std::vector<std::vector<Value>> out;
    for (const Cube::RankedCell& c : *ranked) out.push_back(c.coordinates);
    std::sort(out.begin(), out.end(),
              [](const std::vector<Value>& a, const std::vector<Value>& b) {
                return std::lexicographical_compare(a.begin(), a.end(),
                                                    b.begin(), b.end());
              });
    return out;
  }

  static void ExpectCellsMatch(const Cube& got, const Cube& want,
                               std::vector<Value>* coord, size_t axis,
                               const std::string& where) {
    if (axis < coord->size()) {
      for (const Value& m : want.AxisMembers(axis)) {
        (*coord)[axis] = m;
        ExpectCellsMatch(got, want, coord, axis + 1, where);
      }
      return;
    }
    std::string cell = where + " cell";
    for (const Value& v : *coord) {
      cell += ' ';
      cell += v.ToString();
    }
    EXPECT_EQ(got.CellCount(*coord), want.CellCount(*coord)) << cell;
    for (size_t m = 0; m < want.num_measures(); ++m) {
      const Value g = got.CellValue(*coord, m);
      const Value w = want.CellValue(*coord, m);
      if (w.type() == DataType::kDouble && g.type() == DataType::kDouble) {
        EXPECT_NEAR(g.double_value(), w.double_value(),
                    1e-9 * std::max(1.0, std::fabs(w.double_value())))
            << cell << " measure " << m;
      } else {
        EXPECT_TRUE(SameValue(g, w))
            << cell << " measure " << m << ": got '" << g.ToString()
            << "' want '" << w.ToString() << "'";
      }
    }
  }

  static const NavAttr& Attr(const std::string& name) {
    for (const NavAttr& a : *attrs_) {
      if (a.name == name) return a;
    }
    ADD_FAILURE() << "no attribute " << name;
    return attrs_->front();
  }

  static Cube Execute(const CubeQuery& q) {
    auto cube = CubeEngine(warehouse_).Execute(q);
    EXPECT_TRUE(cube.ok()) << cube.status().ToString();
    return std::move(cube).value();
  }

  static Warehouse* warehouse_;
  static std::vector<NavAttr>* attrs_;
};

Warehouse* CubeNavigationTest::warehouse_ = nullptr;
std::vector<NavAttr>* CubeNavigationTest::attrs_ = nullptr;

TEST_F(CubeNavigationTest, SliceToTheNullMember) {
  const NavAttr& ht = Attr("DiagnosticHTYearsBand");
  ASSERT_TRUE(Lists(ht.members, Value::Null()));
  CubeQuery q;
  q.axes = {AxisSpec{"PersonalInformation", "AgeBand10", {}},
            AxisSpec{ht.dimension, ht.name, {}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"},
                AggSpec{AggFn::kAvg, "FBG", "avg"}};
  Cube cube = Execute(q);
  auto sliced = cube.Slice(ht.dimension, ht.name, Value::Null());
  EXPECT_EQ(From(), "cube");
  ExpectMatchesEngine(sliced, *warehouse_, "slice to null");
  EXPECT_GT(sliced->facts_aggregated(), 0u);
  EXPECT_LT(sliced->facts_aggregated(), cube.facts_aggregated());
}

TEST_F(CubeNavigationTest, DiceWithDuplicateAbsentAndRespelledValues) {
  CubeQuery q;
  q.axes = {AxisSpec{"Cardinality", "VisitNumber", {}},
            AxisSpec{"PersonalInformation", "Gender", {}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"},
                AggSpec{AggFn::kMax, "AgeOrNull", "oldest"}};
  // 2.0 names the int member 2; 1 and 2 repeat; 9999 is no member.
  const std::vector<Value> values = {Value::Real(2.0), Value::Int(1),
                                     Value::Int(2), Value::Int(9999),
                                     Value::Int(1)};
  for (bool non_empty : {true, false}) {
    q.non_empty = non_empty;
    Cube cube = Execute(q);
    auto diced = cube.Dice("Cardinality", "VisitNumber", values);
    EXPECT_EQ(From(), "cube");
    ExpectMatchesEngine(diced, *warehouse_, "dice");
    ASSERT_TRUE(diced.ok());
    std::vector<Value> want = {Value::Real(2.0), Value::Int(1)};
    if (!non_empty) want.push_back(Value::Int(9999));
    ASSERT_EQ(diced->AxisMembers(0).size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE(SameValue(diced->AxisMembers(0)[i], want[i])) << i;
    }
  }
}

TEST_F(CubeNavigationTest, RollUpOneAxisWhileAnotherIsRestricted) {
  CubeQuery q;
  q.axes = {AxisSpec{"PersonalInformation",
                     "AgeBand10",
                     {Value::Str("70-80"), Value::Str("50-60"),
                      Value::Str("no such band")}},
            AxisSpec{"MedicalCondition", "DiabetesStatus", {}},
            AxisSpec{"PersonalInformation", "Gender", {}}};
  q.measures = {AggSpec{AggFn::kSum, "FBG", "s"},
                AggSpec{AggFn::kStdDev, "AgeOrNull", "sd"},
                AggSpec{AggFn::kCountValid, "FBG", "n"}};
  for (bool non_empty : {true, false}) {
    q.non_empty = non_empty;
    Cube cube = Execute(q);
    for (size_t axis : {size_t{1}, size_t{2}}) {
      auto rolled = cube.RollUp(axis);
      EXPECT_EQ(From(), "cube");
      ExpectMatchesEngine(rolled, *warehouse_, "rollup");
      ASSERT_TRUE(rolled.ok());
      EXPECT_EQ(rolled->facts_aggregated(), cube.facts_aggregated());
      // And on down to the grand total, from the derived cube.
      auto total = rolled->RollUp(1);
      EXPECT_EQ(From(), "cube");
      ExpectMatchesEngine(total, *warehouse_, "rollup twice");
    }
  }
}

TEST_F(CubeNavigationTest, NavigationsTheCellsCannotAnswerRunTheEngine) {
  CubeQuery q;
  q.axes = {AxisSpec{"PersonalInformation", "Gender", {Value::Str("F")}},
            AxisSpec{"MedicalCondition", "DiabetesStatus", {}}};
  q.slicers = {SlicerSpec{"ExerciseRoutine", "ExerciseRoutine",
                          {Attr("ExerciseRoutine").members[0]}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"},
                AggSpec{AggFn::kVariance, "FBG", "var"}};
  Cube cube = Execute(q);

  // The engine rolls a restricted axis up without its restriction.
  auto rolled = cube.RollUp(0);
  EXPECT_EQ(From(), "warehouse");
  ExpectMatchesEngine(rolled, *warehouse_, "rollup of a restricted axis");
  EXPECT_GT(rolled->facts_aggregated(), cube.facts_aggregated());

  // Members outside the restriction.
  auto sliced = cube.Slice("PersonalInformation", "Gender", Value::Str("M"));
  EXPECT_EQ(From(), "warehouse");
  ExpectMatchesEngine(sliced, *warehouse_, "slice outside a restriction");
  auto diced = cube.Dice("PersonalInformation", "Gender",
                         {Value::Str("F"), Value::Str("M")});
  EXPECT_EQ(From(), "warehouse");
  ExpectMatchesEngine(diced, *warehouse_, "dice outside a restriction");
  // An empty dice list lifts the restriction.
  auto undiced = cube.Dice("PersonalInformation", "Gender", {});
  EXPECT_EQ(From(), "warehouse");
  ExpectMatchesEngine(undiced, *warehouse_, "dice to no members");
  EXPECT_GT(undiced->facts_aggregated(), cube.facts_aggregated());
  auto all = cube.Dice("MedicalCondition", "DiabetesStatus", {});
  EXPECT_EQ(From(), "warehouse");
  ExpectMatchesEngine(all, *warehouse_, "dice an unrestricted axis to none");

  // Attributes that are no axis.
  auto by_smoker = cube.Slice("PersonalInformation", "Smoker",
                              Attr("Smoker").members[0]);
  EXPECT_EQ(From(), "warehouse");
  ExpectMatchesEngine(by_smoker, *warehouse_, "slice off the axes");
  auto by_band = cube.Dice("FastingBloods", "FBGBand",
                           {Attr("FBGBand").members[0]});
  EXPECT_EQ(From(), "warehouse");
  ExpectMatchesEngine(by_band, *warehouse_, "dice off the axes");

  // A count_distinct cell keeps only its count, which cannot merge.
  CubeQuery distinct;
  distinct.axes = {AxisSpec{"PersonalInformation", "Gender", {}},
                   AxisSpec{"MedicalCondition", "DiabetesStatus", {}}};
  distinct.measures = {AggSpec{AggFn::kCount, "", "n"},
                       AggSpec{AggFn::kCountDistinct, "AgeOrNull", "ages"}};
  Cube d = Execute(distinct);
  ExpectMatchesEngine(d.RollUp(1), *warehouse_, "count_distinct rollup");
  EXPECT_EQ(From(), "warehouse");
  ExpectMatchesEngine(d.Slice("PersonalInformation", "Gender",
                              Value::Str("F")),
                      *warehouse_, "count_distinct slice");
  EXPECT_EQ(From(), "warehouse");
  ExpectMatchesEngine(d.Dice("PersonalInformation", "Gender",
                             {Value::Str("M")}),
                      *warehouse_, "count_distinct dice");
  EXPECT_EQ(From(), "warehouse");
}

TEST_F(CubeNavigationTest, StaleParentSeesAppendedFacts) {
  Table first = MakeNavigationExtract(120, 61);
  Table more = MakeNavigationExtract(60, 62);
  Warehouse wh = BuildNavigationWarehouse(first);
  CubeQuery q;
  q.axes = {AxisSpec{"PersonalInformation", "Gender", {}},
            AxisSpec{"MedicalCondition", "DiabetesStatus", {}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"},
                AggSpec{AggFn::kAvg, "FBG", "avg"}};
  auto cube = CubeEngine(&wh).Execute(q);
  ASSERT_TRUE(cube.ok());
  auto before = cube->RollUp(1);
  EXPECT_EQ(From(), "cube");
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(wh.AppendRows(more).ok());
  const Value female = Value::Str("F");
  const std::vector<Result<Cube>> after = {
      cube->RollUp(1),
      cube->Slice("PersonalInformation", "Gender", female),
      cube->Dice("PersonalInformation", "Gender", {female}),
      before->RollUp(0)};
  EXPECT_EQ(From(), "warehouse");
  for (const Result<Cube>& nav : after) {
    ExpectMatchesEngine(nav, wh, "after append");
  }
  EXPECT_EQ(after[0]->facts_aggregated(), wh.num_fact_rows());
  EXPECT_GT(after[0]->facts_aggregated(), before->facts_aggregated());
}

TEST_F(CubeNavigationTest, RandomCubesMatchTheEngine) {
  const AggFn fns[] = {AggFn::kCount, AggFn::kCountValid, AggFn::kSum,
                       AggFn::kAvg,   AggFn::kMin,        AggFn::kMax,
                       AggFn::kVariance, AggFn::kStdDev};
  const char* columns[] = {"FBG", "AgeOrNull"};
  // Axes come from attributes with few members, so checking every cell
  // the axis members span stays cheap.
  std::vector<const NavAttr*> axis_pool;
  for (const NavAttr& a : *attrs_) {
    if (a.members.size() <= 16) axis_pool.push_back(&a);
  }
  Rng rng(20130408);
  auto pick = [&rng](const auto& v) -> decltype(auto) {
    return v[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(std::size(v)) - 1))];
  };
  // A few of `a`'s members, sometimes repeated, sometimes with one that
  // no dimension row has.
  auto some_members = [&](const NavAttr& a) {
    std::vector<Value> out;
    const int64_t n = rng.UniformInt(1, 3);
    for (int64_t i = 0; i < n; ++i) out.push_back(pick(a.members));
    if (rng.Bernoulli(0.2)) out.push_back(Value::Str("absent"));
    return out;
  };
  size_t derived = 0;
  size_t scanned = 0;
  for (int trial = 0; trial < 150; ++trial) {
    rng.Shuffle(&axis_pool);
    CubeQuery q;
    const size_t n_axes = static_cast<size_t>(rng.UniformInt(1, 3));
    for (size_t i = 0; i < n_axes; ++i) {
      const NavAttr& a = *axis_pool[i];
      q.axes.push_back(AxisSpec{a.dimension, a.name, {}});
      if (rng.Bernoulli(0.25)) q.axes.back().members = some_members(a);
    }
    if (rng.Bernoulli(0.4)) {
      const NavAttr& a = *axis_pool[n_axes];
      q.slicers.push_back(SlicerSpec{a.dimension, a.name, some_members(a)});
    }
    const int64_t n_measures = rng.UniformInt(1, 3);
    for (int64_t i = 0; i < n_measures; ++i) {
      const AggFn fn = pick(fns);
      q.measures.push_back(AggSpec{
          fn, fn == AggFn::kCount && rng.Bernoulli(0.5) ? "" : pick(columns),
          ""});
    }
    const bool has_distinct = rng.Bernoulli(0.15);
    if (has_distinct) {
      q.measures.push_back(AggSpec{AggFn::kCountDistinct, pick(columns), ""});
    }
    q.non_empty = rng.Bernoulli(0.5);
    Cube parent = Execute(q);

    // Runs one navigation, checks it, and checks the path it took: the
    // cells answer it exactly when `covered` and no measure is
    // count_distinct.
    auto check = [&](const Result<Cube>& nav, bool covered,
                     const std::string& what) {
      const bool from_cube = covered && !has_distinct;
      EXPECT_EQ(From(), from_cube ? "cube" : "warehouse")
          << what << " of " << q.ToString();
      ExpectMatchesEngine(nav, *warehouse_, what + " of " + q.ToString());
      ++(from_cube ? derived : scanned);
    };
    for (size_t axis = 0; axis < n_axes; ++axis) {
      const AxisSpec& spec = q.axes[axis];
      const NavAttr& attr = *axis_pool[axis];
      auto rolled = parent.RollUp(axis);
      check(rolled, spec.members.empty(), "rollup");
      const Value value = pick(attr.members);
      check(parent.Slice(spec.dimension, spec.attribute, value),
            spec.members.empty() || Lists(spec.members, value), "slice");
      std::vector<Value> values = some_members(attr);
      if (rng.Bernoulli(0.3)) values.push_back(values.front());
      const bool listed =
          std::all_of(values.begin(), values.end(), [&](const Value& v) {
            return spec.members.empty() || Lists(spec.members, v);
          });
      auto diced = parent.Dice(spec.dimension, spec.attribute, values);
      check(diced, listed, "dice");
      // Navigate on from a derived cube.
      if (diced.ok() && n_axes > 1) {
        check(diced->RollUp((axis + 1) % n_axes),
              q.axes[(axis + 1) % n_axes].members.empty(), "dice+rollup");
      }
    }
    const NavAttr& off = *axis_pool[n_axes];
    check(parent.Slice(off.dimension, off.name, pick(off.members)), false,
          "slice off the axes");
    check(parent.Dice(off.dimension, off.name, some_members(off)), false,
          "dice off the axes");
  }
  // Both paths ran often.
  EXPECT_GT(derived, 300u);
  EXPECT_GT(scanned, 300u);
}

TEST_F(CubeNavigationTest, DerivedCubesAreChargedToTheCubePool) {
  CubeQuery q;
  q.axes = {AxisSpec{"PersonalInformation", "Gender", {}},
            AxisSpec{"MedicalCondition", "DiabetesStatus", {}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"},
                AggSpec{AggFn::kMin, "FBG", "lo"}};
  Cube cube = Execute(q);
  ResourceMeter::Enable();
  ResourcePool& pool = ResourceMeter::Global().GetPool("olap.cube");
  const uint64_t before = pool.allocated();
  auto rolled = cube.RollUp(1);
  const uint64_t after = pool.allocated();
  ResourceMeter::Disable();
  EXPECT_EQ(From(), "cube");
  ASSERT_TRUE(rolled.ok());
  EXPECT_EQ(after - before, rolled->ApproxBytes());
}

// ------------------------------------------------------ codes at rest

// A cube spelled out: its query, fact and cell counts, each axis's
// members in order with their types, and every cell's coordinates,
// measure values (doubles by their bits) and fact count.
std::string CubeText(const Result<Cube>& cube) {
  if (!cube.ok()) return "error: " + cube.status().ToString();
  auto spell = [](const Value& v) {
    std::string s = std::string(DataTypeName(v.type())) + ":";
    if (v.type() == DataType::kDouble) {
      return s + StrFormat("%016llx", static_cast<unsigned long long>(
                                           std::bit_cast<uint64_t>(
                                               v.double_value())));
    }
    return s + v.ToString();
  };
  std::string out = cube->query().ToString() + "\nfacts " +
                    std::to_string(cube->facts_aggregated()) + ", cells " +
                    std::to_string(cube->num_cells());
  for (size_t a = 0; a < cube->num_axes(); ++a) {
    out += "\naxis";
    for (const Value& m : cube->AxisMembers(a)) {
      out += ' ';
      out += spell(m);
    }
  }
  auto table = cube->ToTable();
  if (!table.ok()) return out + "\nToTable: " + table.status().ToString();
  for (size_t r = 0; r < table->num_rows(); ++r) {
    out += "\n ";
    std::vector<Value> coord;
    for (size_t c = 0; c < table->num_columns(); ++c) {
      const Value v = table->column(c).GetValue(r);
      if (c < cube->num_axes()) coord.push_back(v);
      out += ' ';
      out += spell(v);
    }
    out += " n=" + std::to_string(cube->CellCount(coord));
  }
  return out;
}

// Attributes of every column type: string and int64 in Patient; double,
// bool, date and a string that gains nulls in Lab.
StarSchemaDef CodesSchema() {
  StarSchemaDef def;
  def.fact_name = "F";
  def.dimensions = {
      DimensionDef{"Patient", {"Ward", "Level"}, {}},
      DimensionDef{"Lab", {"Score", "Flag", "Seen", "Band"}, {}}};
  def.measures = {MeasureDef{"V", "V"}, MeasureDef{"N", "N"}};
  return def;
}

// The extract's columns; `score` is Score's type (int64 spells a batch's
// scores as integers).
Table CodesTable(DataType score = DataType::kDouble) {
  auto schema = Schema::Make({{"Ward", DataType::kString},
                              {"Level", DataType::kInt64},
                              {"Score", score},
                              {"Flag", DataType::kBool},
                              {"Seen", DataType::kDate},
                              {"Band", DataType::kString},
                              {"V", DataType::kDouble},
                              {"N", DataType::kInt64}});
  return Table(std::move(schema).value());
}

// `n` seeded rows over the given attribute values; V and N are nullable
// measures.
void AddCodesRows(Table* t, Rng& rng, size_t n,
                  const std::vector<std::string>& wards,
                  const std::vector<int64_t>& levels,
                  const std::vector<Value>& scores,
                  const std::vector<int32_t>& days,
                  const std::vector<Value>& bands) {
  auto pick = [&rng](const auto& values) {
    return values[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(values.size()) - 1))];
  };
  for (size_t i = 0; i < n; ++i) {
    const int64_t draw = rng.UniformInt(0, 99);
    Row row = {Value::Str(pick(wards)),
               Value::Int(pick(levels)),
               pick(scores),
               Value::Bool(draw % 2 == 0),
               Value::FromDate(Date(pick(days))),
               pick(bands),
               draw % 7 == 0 ? Value::Null()
                             : Value::Real(rng.Uniform(-50.0, 50.0) / 3.0),
               draw % 5 == 0 ? Value::Null() : Value::Int(draw - 40)};
    ASSERT_TRUE(t->AppendRow(row).ok());
  }
}

class CodesAtRestTest : public ::testing::Test {
 protected:
  // The base rows, then three batches: the first mints values of every
  // attribute; the second spells scores as int64 (5 is the base's 5.0,
  // 11 is new) and brings the first null Band; the third carries the
  // values the queries' restrictions and slicers name, which no earlier
  // row has.
  static void SetUpTestSuite() {
    Rng rng(20130408);
    base_ = new Table(CodesTable());
    AddCodesRows(base_, rng, 400, {"W1", "W2", "W3", "W4"}, {1, 2, 3},
                 {Value::Real(0.5), Value::Real(1.5), Value::Real(5.0),
                  Value::Real(2.25)},
                 {15000, 15001, 15002, 15003},
                 {Value::Str("lo"), Value::Str("hi")});
    batches_ = new std::vector<Table>;
    batches_->push_back(CodesTable());
    AddCodesRows(&batches_->back(), rng, 60, {"W9", "W2"}, {7, 1},
                 {Value::Real(9.75), Value::Real(1.5)}, {16000, 15001},
                 {Value::Str("mid"), Value::Str("lo")});
    batches_->push_back(CodesTable(DataType::kInt64));
    AddCodesRows(&batches_->back(), rng, 60, {"W3", "W9"}, {2, 7},
                 {Value::Int(5), Value::Int(11)}, {15003, 16000},
                 {Value::Null(), Value::Str("hi")});
    batches_->push_back(CodesTable());
    AddCodesRows(&batches_->back(), rng, 60, {"W-late", "W1"}, {12, 3},
                 {Value::Real(12.5), Value::Real(0.5)}, {17000, 15000},
                 {Value::Str("late"), Value::Null()});
  }

  static void TearDownTestSuite() {
    delete base_;
    delete batches_;
  }

  // The base rows and the first `batches` batches in one table.
  static Table Rows(size_t batches) {
    Table all = CodesTable();
    EXPECT_TRUE(all.Concat(*base_).ok());
    for (size_t b = 0; b < batches; ++b) {
      const Table& batch = (*batches_)[b];
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        EXPECT_TRUE(all.AppendRow(batch.GetRow(r)).ok());
      }
    }
    return all;
  }

  static Warehouse Build(const Table& rows) {
    auto wh = StarSchemaBuilder(CodesSchema()).Build(rows);
    EXPECT_TRUE(wh.ok()) << wh.status().ToString();
    return std::move(wh).value();
  }

  // Cubes over every attribute: each alone and in pairs, restricted to
  // listed members (new, absent, null, respelled and repeated ones), and
  // sliced by values only the last batch has.
  static std::vector<CubeQuery> Queries() {
    const std::vector<AggSpec> measures = {
        {AggFn::kCount, "", "n"},         {AggFn::kSum, "V", "s"},
        {AggFn::kAvg, "N", "a"},          {AggFn::kVariance, "V", "var"},
        {AggFn::kStdDev, "N", "sd"},      {AggFn::kCountValid, "V", "cv"},
        {AggFn::kMin, "V", "lo"},         {AggFn::kMax, "N", "hi"},
        {AggFn::kCountDistinct, "N", "d"}};
    const std::vector<AxisSpec> attributes = {
        {"Patient", "Ward", {}}, {"Patient", "Level", {}},
        {"Lab", "Score", {}},    {"Lab", "Flag", {}},
        {"Lab", "Seen", {}},     {"Lab", "Band", {}}};
    const Value late_day = Value::FromDate(Date(17000));
    std::vector<CubeQuery> out;
    auto add = [&](std::vector<AxisSpec> axes,
                   std::vector<SlicerSpec> slicers) {
      CubeQuery q;
      q.axes = std::move(axes);
      q.slicers = std::move(slicers);
      q.measures = measures;
      out.push_back(q);
      q.non_empty = false;
      out.push_back(std::move(q));
    };
    for (const AxisSpec& a : attributes) add({a}, {});
    for (size_t i = 0; i < attributes.size(); ++i) {
      add({attributes[i], attributes[(i + 1) % attributes.size()]}, {});
    }
    add({{"Patient", "Ward",
          {Value::Str("W-late"), Value::Str("W9"), Value::Str("absent"),
           Value::Str("W1"), Value::Str("W9")}}},
        {});
    add({{"Lab", "Score",
          {Value::Int(5), Value::Real(12.5), Value::Int(11), Value::Null(),
           Value::Str("5")}},
         {"Lab", "Band",
          {Value::Null(), Value::Str("late"), Value::Str("mid"),
           Value::Str("lo")}}},
        {});
    add({{"Patient", "Level", {Value::Real(12.0), Value::Int(7)}},
         {"Lab", "Seen", {late_day, Value::FromDate(Date(15000))}}},
        {});
    add({{"Patient", "Ward", {}}},
        {{"Lab", "Band", {Value::Str("late")}},
         {"Lab", "Seen", {late_day, Value::Null()}}});
    add({{"Lab", "Band", {}}},
        {{"Patient", "Ward", {Value::Str("W-late"), Value::Str("W9")}}});
    add({{"Lab", "Flag", {}}},
        {{"Lab", "Score", {Value::Int(5), Value::Real(11.0)}},
         {"Patient", "Level", {Value::Real(12.0), Value::Int(2)}}});
    add({{"Patient", "Level", {}}}, {{"Lab", "Band", {Value::Null()}}});
    add({}, {{"Lab", "Score", {Value::Real(12.5)}}});
    return out;
  }

  // Runs every query, which codes every attribute `wh` has.
  static void CodeEveryAttribute(const Warehouse& wh) {
    for (const CubeQuery& q : Queries()) {
      EXPECT_TRUE(CubeEngine(&wh).Execute(q).ok()) << q.ToString();
    }
  }

  // Every query answers on `got` as on `want`.
  static void ExpectSameCubes(const Warehouse& got, const Warehouse& want,
                              const std::string& context) {
    for (const CubeQuery& q : Queries()) {
      EXPECT_EQ(CubeText(CubeEngine(&got).Execute(q)),
                CubeText(CubeEngine(&want).Execute(q)))
          << context;
    }
  }

  static Table* base_;
  static std::vector<Table>* batches_;
};

Table* CodesAtRestTest::base_ = nullptr;
std::vector<Table>* CodesAtRestTest::batches_ = nullptr;

TEST_F(CodesAtRestTest, AppendsExtendTheCodesLikeARebuild) {
  Warehouse wh = Build(*base_);
  ExpectSameCubes(wh, Build(Rows(0)), "before any append");  // codes built
  for (size_t b = 0; b < batches_->size(); ++b) {
    ASSERT_TRUE(wh.AppendRows((*batches_)[b]).ok());
    ExpectSameCubes(wh, Build(Rows(b + 1)),
                    "after batch " + std::to_string(b + 1));
  }
  // The restrictions and slicers found the last batch's values.
  CubeQuery q;
  q.slicers = {{"Lab", "Band", {Value::Str("late")}}};
  q.measures = {{AggFn::kCount, "", "n"}};
  auto late = CubeEngine(&wh).Execute(q);
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  EXPECT_GT(late->facts_aggregated(), 0u);
}

TEST_F(CodesAtRestTest, ACopyKeepsItsOwnCodes) {
  Warehouse original = Build(*base_);
  ExpectSameCubes(original, Build(Rows(0)), "original");
  Warehouse copy = original;
  for (const Table& batch : *batches_) {
    ASSERT_TRUE(copy.AppendRows(batch).ok());
  }
  ExpectSameCubes(copy, Build(Rows(batches_->size())), "appended copy");
  ExpectSameCubes(original, Build(Rows(0)), "original after the copy grew");
  Warehouse assigned = Build(Rows(1));
  assigned = original;  // takes the original's codes
  ASSERT_TRUE(assigned.AppendRows((*batches_)[0]).ok());
  ExpectSameCubes(assigned, Build(Rows(1)), "assigned, then appended");
}

TEST_F(CodesAtRestTest, DerivedAttributesAndFeedbackDimensionsAreCoded) {
  // Two feedback dimensions added after the appends: one labels each
  // fact row with its Patient member's Ward and Level, one with a risk
  // derived from the measure.
  auto ward_level = [](const Warehouse& w, size_t row) {
    const Dimension& patient = *w.dimension("Patient").value();
    const int64_t key = w.FactKey(row, "Patient").value();
    Value ward = patient.AttributeValue(key, "Ward").value();
    Value level = patient.AttributeValue(key, "Level").value();
    return Value::Str(ward.ToString() + "/" + level.ToString());
  };
  auto risk = [](const Warehouse& w, size_t row) {
    const ColumnVector& v = *w.fact().ColumnByName("V").value();
    if (v.IsNull(row)) return Value::Null();
    return Value::Str(v.doubles()[row] > 0 ? "high" : "low");
  };
  Warehouse wh = Build(*base_);
  for (const Table& batch : *batches_) {
    CodeEveryAttribute(wh);
    ASSERT_TRUE(wh.AppendRows(batch).ok());
  }
  Warehouse want = Build(Rows(batches_->size()));
  for (Warehouse* w : {&wh, &want}) {
    ASSERT_TRUE(w->AddFeedbackDimension("Unit", "WardLevel", ward_level).ok());
    ASSERT_TRUE(w->AddFeedbackDimension("Risk", "RiskLabel", risk).ok());
  }
  ExpectSameCubes(wh, want, "after the feedback dimensions");
  CubeQuery q;
  q.axes = {AxisSpec{"Unit", "WardLevel", {}},
            AxisSpec{"Risk", "RiskLabel", {}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"},
                AggSpec{AggFn::kAvg, "V", "a"}};
  EXPECT_EQ(CubeText(CubeEngine(&wh).Execute(q)),
            CubeText(CubeEngine(&want).Execute(q)));
  q.axes[0].members = {Value::Str("W-late/12"), Value::Str("W1/1")};
  q.slicers = {SlicerSpec{"Risk", "RiskLabel", {Value::Str("high")}}};
  auto got = CubeEngine(&wh).Execute(q);
  EXPECT_EQ(CubeText(got), CubeText(CubeEngine(&want).Execute(q)));
  ASSERT_TRUE(got.ok());
  EXPECT_GT(got->facts_aggregated(), 0u);
}

// Queries on many threads build one warehouse's codes at once.
class CubeConcurrencyTest : public CodesAtRestTest {};

// Each thread's answers equal the serial ones from a second warehouse
// built from the same rows.
TEST_F(CubeConcurrencyTest, ThreadsCodingOneWarehouseAnswerLikeOne) {
  const Table rows = Rows(batches_->size());
  const Warehouse shared = Build(rows);  // no query has coded it yet
  const Warehouse serial_wh = Build(rows);
  const std::vector<CubeQuery> queries = Queries();
  std::vector<std::string> serial;
  for (const CubeQuery& q : queries) {
    serial.push_back(CubeText(CubeEngine(&serial_wh).Execute(q)));
  }
  constexpr size_t kThreads = 8;
  std::vector<std::vector<std::string>> answers(kThreads);
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      // Each thread starts at a different query, so the first uses of
      // an attribute overlap.
      answers[t].resize(queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        const size_t q = (i + t * 3) % queries.size();
        answers[t][q] = CubeText(CubeEngine(&shared).Execute(queries[q]));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(answers[t][q], serial[q]) << "thread " << t;
    }
  }
}

// ------------------------------------------------- rolling forward

// The rows `rows` of `t`, in that order.
Table TakeRows(const Table& t, const std::vector<size_t>& rows) {
  Table out(t.schema());
  for (size_t r : rows) EXPECT_TRUE(out.AppendRow(t.GetRow(r)).ok());
  return out;
}

// A rolled cube equals the engine's cube for its query on the warehouse
// as it is now, to the bit: CubeText (cells, spellings, fact counts,
// doubles by their bits), the stamps, and every roll-up from its cells,
// which merges them in their first-touch order.
void ExpectSameCube(const Cube& got, const Cube& want,
                    const std::string& where) {
  EXPECT_EQ(CubeText(got), CubeText(want)) << where;
  EXPECT_EQ(got.lineage(), want.lineage()) << where;
  EXPECT_EQ(got.fact_rows(), want.fact_rows()) << where;
  for (size_t a = 0; a < want.num_axes(); ++a) {
    EXPECT_EQ(CubeText(got.RollUp(a)), CubeText(want.RollUp(a)))
        << where << " rollup " << a;
  }
}

bool HasCountDistinct(const CubeQuery& q) {
  return std::any_of(q.measures.begin(), q.measures.end(),
                     [](const AggSpec& m) {
                       return m.fn == AggFn::kCountDistinct;
                     });
}

// The navigation extract split into a base and four batches. Rows with
// a held-back member stay out of the base: the rarest AgeBand5 and
// HbA1cBand members first appear in batches 1-3, and the rarest
// VisitNumber only in batch 4.
class CubeRollForwardTest : public CubeNavigationTest {
 protected:
  static void SetUpTestSuite() {
    CubeNavigationTest::SetUpTestSuite();
    const Table extract = MakeNavigationExtract(300, 424);
    late_ = new std::vector<std::pair<std::string, Value>>{
        {"AgeBand5", Rarest(extract, "AgeBand5")},
        {"HbA1cBand", Rarest(extract, "HbA1cBand")},
        {"VisitNumber", Rarest(extract, "VisitNumber")}};
    auto has = [&extract](size_t row, const std::pair<std::string, Value>& m) {
      return extract.ColumnByName(m.first).value()->GetValue(row).Equals(
          m.second);
    };
    std::vector<size_t> early;
    std::vector<size_t> late;
    std::vector<size_t> last;
    for (size_t r = 0; r < extract.num_rows(); ++r) {
      if (has(r, (*late_)[2])) {
        last.push_back(r);
      } else if (has(r, (*late_)[0]) || has(r, (*late_)[1])) {
        late.push_back(r);
      } else {
        early.push_back(r);
      }
    }
    const size_t base_rows = early.size() * 2 / 3;
    base_ = new Table(TakeRows(
        extract, std::vector<size_t>(early.begin(), early.begin() +
                                                        base_rows)));
    std::vector<size_t> rest(early.begin() + base_rows, early.end());
    rest.insert(rest.end(), late.begin(), late.end());
    std::sort(rest.begin(), rest.end());
    batches_ = new std::vector<Table>;
    for (size_t b = 0; b < 3; ++b) {
      batches_->push_back(TakeRows(
          extract, std::vector<size_t>(rest.begin() + rest.size() * b / 3,
                                       rest.begin() +
                                           rest.size() * (b + 1) / 3)));
    }
    batches_->push_back(TakeRows(extract, last));
  }

  static void TearDownTestSuite() {
    delete base_;
    delete batches_;
    delete late_;
    CubeNavigationTest::TearDownTestSuite();
  }

  // The least frequent non-null value of `column` (the first seen on a
  // tie).
  static Value Rarest(const Table& t, const std::string& column) {
    const ColumnVector& col = *t.ColumnByName(column).value();
    std::vector<std::pair<Value, size_t>> counts;
    for (size_t r = 0; r < col.size(); ++r) {
      const Value v = col.GetValue(r);
      if (v.is_null()) continue;
      auto it = std::find_if(counts.begin(), counts.end(),
                             [&v](const auto& c) { return c.first.Equals(v); });
      if (it == counts.end()) {
        counts.emplace_back(v, 1);
      } else {
        ++it->second;
      }
    }
    EXPECT_FALSE(counts.empty()) << column;
    return std::min_element(counts.begin(), counts.end(),
                            [](const auto& a, const auto& b) {
                              return a.second < b.second;
                            })
        ->first;
  }

  // The member of `attribute` held out of the base.
  static const Value& Late(const std::string& attribute) {
    for (const auto& [attr, value] : *late_) {
      if (attr == attribute) return value;
    }
    ADD_FAILURE() << "no late member of " << attribute;
    return late_->front().second;
  }

  // Hand-written cubes over the held-back members, null members,
  // include-empty and all nine aggregates, then random 1-3-axis cubes in
  // the style of RandomCubesMatchTheEngine.
  static std::vector<CubeQuery> Queries() {
    const AggFn fns[] = {AggFn::kCount,    AggFn::kCountValid,
                         AggFn::kSum,      AggFn::kAvg,
                         AggFn::kMin,      AggFn::kMax,
                         AggFn::kVariance, AggFn::kStdDev};
    const char* columns[] = {"FBG", "AgeOrNull"};
    std::vector<CubeQuery> out;
    CubeQuery q;
    q.axes = {AxisSpec{"PersonalInformation",
                       "AgeBand5",
                       {Late("AgeBand5"), Attr("AgeBand5").members[0],
                        Value::Str("absent")}},
              AxisSpec{"PersonalInformation", "Gender", {}}};
    q.measures = {AggSpec{AggFn::kCount, "", "n"},
                  AggSpec{AggFn::kSum, "FBG", "s"},
                  AggSpec{AggFn::kAvg, "AgeOrNull", "a"}};
    out.push_back(q);
    q.non_empty = false;
    out.push_back(q);
    q = CubeQuery{};
    q.axes = {AxisSpec{"Cardinality",
                       "VisitNumber",
                       {Late("VisitNumber"), Value::Int(1), Value::Null()}}};
    q.slicers = {SlicerSpec{"FastingBloods",
                            "HbA1cBand",
                            {Late("HbA1cBand"), Value::Null()}}};
    q.measures = {AggSpec{AggFn::kCount, "", "n"},
                  AggSpec{AggFn::kMax, "FBG", "hi"}};
    out.push_back(q);
    q.non_empty = false;
    out.push_back(q);
    // Nullable int64 and double measures under every aggregate, on an
    // axis with a null member; count_distinct never rolls.
    const NavAttr& ht = Attr("DiagnosticHTYearsBand");
    EXPECT_TRUE(Lists(ht.members, Value::Null()));
    q = CubeQuery{};
    q.axes = {AxisSpec{ht.dimension, ht.name, {}}};
    for (const char* column : columns) {
      for (AggFn fn : fns) q.measures.push_back(AggSpec{fn, column, ""});
    }
    out.push_back(q);
    q.measures.push_back(AggSpec{AggFn::kCountDistinct, "AgeOrNull", ""});
    out.push_back(q);
    q = CubeQuery{};
    q.slicers = {SlicerSpec{"Cardinality", "VisitNumber",
                            {Late("VisitNumber")}}};
    q.measures = {AggSpec{AggFn::kCount, "", "n"},
                  AggSpec{AggFn::kVariance, "FBG", "var"}};
    out.push_back(q);

    std::vector<const NavAttr*> axis_pool;
    for (const NavAttr& a : *attrs_) {
      if (a.members.size() <= 16) axis_pool.push_back(&a);
    }
    Rng rng(4711);
    auto pick = [&rng](const auto& v) -> decltype(auto) {
      return v[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(std::size(v)) - 1))];
    };
    auto some_members = [&](const NavAttr& a) {
      std::vector<Value> members;
      const int64_t n = rng.UniformInt(1, 3);
      for (int64_t i = 0; i < n; ++i) members.push_back(pick(a.members));
      for (const auto& [attr, value] : *late_) {
        if (attr == a.name && rng.Bernoulli(0.7)) members.push_back(value);
      }
      return members;
    };
    while (out.size() < 40) {
      rng.Shuffle(&axis_pool);
      q = CubeQuery{};
      const size_t n_axes = static_cast<size_t>(rng.UniformInt(1, 3));
      for (size_t i = 0; i < n_axes; ++i) {
        const NavAttr& a = *axis_pool[i];
        q.axes.push_back(AxisSpec{a.dimension, a.name, {}});
        if (rng.Bernoulli(0.3)) q.axes.back().members = some_members(a);
      }
      if (rng.Bernoulli(0.4)) {
        const NavAttr& a = *axis_pool[n_axes];
        q.slicers.push_back(SlicerSpec{a.dimension, a.name, some_members(a)});
      }
      const int64_t n_measures = rng.UniformInt(1, 3);
      for (int64_t i = 0; i < n_measures; ++i) {
        const AggFn fn = pick(fns);
        q.measures.push_back(AggSpec{
            fn, fn == AggFn::kCount && rng.Bernoulli(0.5) ? ""
                                                          : pick(columns),
            ""});
      }
      q.non_empty = rng.Bernoulli(0.5);
      out.push_back(q);
    }
    return out;
  }

  static Table* base_;
  static std::vector<Table>* batches_;
  static std::vector<std::pair<std::string, Value>>* late_;
};

Table* CubeRollForwardTest::base_ = nullptr;
std::vector<Table>* CubeRollForwardTest::batches_ = nullptr;
std::vector<std::pair<std::string, Value>>* CubeRollForwardTest::late_ =
    nullptr;

TEST_F(CubeRollForwardTest, RolledCubesEqualTheEngineBitForBit) {
  Warehouse wh = BuildNavigationWarehouse(*base_);
  CachingCubeEngine cache(&wh);
  const std::vector<CubeQuery> queries = Queries();
  ASSERT_LE(queries.size(), 64u);  // the cache's capacity: nothing evicts
  std::vector<Cube> held;
  std::vector<std::string> held_text;
  for (const CubeQuery& q : queries) {
    auto cube = cache.Execute(q);
    ASSERT_TRUE(cube.ok()) << cube.status().ToString();
    held.push_back(**cube);
    held_text.push_back(CubeText(held.back()));
  }
  EXPECT_EQ(cache.misses(), queries.size());
  // The base lacks the held-back members.
  for (const auto& [attr, value] : *late_) {
    CubeQuery q;
    q.slicers = {SlicerSpec{Attr(attr).dimension, attr, {value}}};
    q.measures = {AggSpec{AggFn::kCount, "", "n"}};
    EXPECT_EQ(CubeEngine(&wh).Execute(q)->facts_aggregated(), 0u) << attr;
  }

  for (size_t b = 0; b < batches_->size(); ++b) {
    ASSERT_TRUE(wh.AppendRows((*batches_)[b]).ok());
    for (size_t i = 0; i < queries.size(); ++i) {
      const CubeQuery& q = queries[i];
      const std::string where =
          "batch " + std::to_string(b + 1) + ": " + q.ToString();
      const size_t rolls = cache.rolls();
      auto got = cache.Execute(q);
      ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
      EXPECT_EQ(cache.rolls(), rolls + (HasCountDistinct(q) ? 0 : 1))
          << where;
      auto want = CubeEngine(&wh).Execute(q);
      ASSERT_TRUE(want.ok()) << where;
      ExpectSameCube(**got, *want, where);
      // Answered again, the rolled cube is a hit.
      auto again = cache.Execute(q);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(again->get(), got->get()) << where;
    }
  }
  EXPECT_GT(cache.rolls(), 100u);
  EXPECT_GT(wh.num_fact_rows(), base_->num_rows());

  // A cube someone held never changed; navigating from it, stale now,
  // rescans the warehouse.
  for (size_t i = 0; i < held.size(); ++i) {
    EXPECT_EQ(CubeText(held[i]), held_text[i]) << queries[i].ToString();
  }
  From();  // drain
  auto rolled_up = held[0].RollUp(1);
  EXPECT_EQ(From(), "warehouse");
  ExpectMatchesEngine(rolled_up, wh, "rollup of a held cube");
}

TEST_F(CubeRollForwardTest, ARollScansOnlyTheAppendedRows) {
  Warehouse wh = BuildNavigationWarehouse(*base_);
  ResourceMeter::Enable();
  ResourcePool& pool = ResourceMeter::Global().GetPool("olap.cube.cache");
  const int64_t empty = pool.current();
  auto cache = std::make_unique<CachingCubeEngine>(&wh);
  const CubeQuery q = Queries().front();
  auto first = cache->Execute(q);
  ASSERT_TRUE(first.ok());
  const auto first_bytes = static_cast<int64_t>((*first)->ApproxBytes());
  EXPECT_EQ(pool.current() - empty, first_bytes);
  const Table& batch = batches_->front();
  ASSERT_TRUE(wh.AppendRows(batch).ok());
  PlanNode root("test");
  std::shared_ptr<const Cube> rolled;
  {
    Stage stage(&root, "olap.cube.cache");
    auto got = cache->Execute(q, &stage);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    rolled = *got;
  }
  // The pool let go of the old cube's bytes and holds the new one's,
  // until the cache is destroyed (a cube still held stays valid).
  EXPECT_EQ(pool.current() - empty,
            static_cast<int64_t>(rolled->ApproxBytes()));
  EXPECT_NE(first_bytes, static_cast<int64_t>(rolled->ApproxBytes()));
  EXPECT_EQ(cache->rolls(), 1u);
  cache.reset();
  EXPECT_EQ(pool.current(), empty);
  ResourceMeter::Disable();
  ASSERT_EQ(root.children.size(), 1u);
  const PlanNode& node = root.children[0];
  ASSERT_EQ(node.props.size(), 1u);
  EXPECT_EQ(node.props[0], std::make_pair(std::string("cache"),
                                          std::string("rolled")));
  EXPECT_EQ(node.rows_out, rolled->num_cells());
  ASSERT_EQ(node.children.size(), 1u);
  const PlanNode& exec = node.children[0];
  EXPECT_EQ(exec.op, "olap.cube.execute");
  EXPECT_EQ(exec.rows_in, batch.num_rows());
  bool scanned = false;
  for (const PlanNode& step : exec.children) {
    if (step.op != "olap.cube.scan") continue;
    scanned = true;
    EXPECT_EQ(step.rows_in, batch.num_rows());
  }
  EXPECT_TRUE(scanned);
}

TEST_F(CubeRollForwardTest, AnyOtherChangeRecomputes) {
  MetricsRegistry::Global().ResetValues();
  MetricsRegistry::Enable();
  Counter& invalidations =
      MetricsRegistry::Global().GetCounter("ddgms.olap.cache.invalidations");
  Counter& rolls = MetricsRegistry::Global().GetCounter(
      "ddgms.olap.cache.rolls");
  Warehouse wh = BuildNavigationWarehouse(*base_);
  CachingCubeEngine cache(&wh);
  CubeQuery q;
  q.axes = {AxisSpec{"PersonalInformation", "Gender", {}},
            AxisSpec{"MedicalCondition", "DiabetesStatus", {}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"},
                AggSpec{AggFn::kAvg, "FBG", "avg"}};
  CubeQuery distinct = q;
  distinct.measures.push_back(
      AggSpec{AggFn::kCountDistinct, "AgeOrNull", "ages"});
  // Runs `query` and checks it rolled forward, or was computed afresh,
  // and that only an ended chain counted an invalidation.
  auto expect = [&](const CubeQuery& query, bool roll, bool invalidated,
                    const std::string& what) {
    const size_t misses = cache.misses();
    const size_t rolled = cache.rolls();
    const uint64_t ended = invalidations.value();
    auto got = cache.Execute(query);
    ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
    EXPECT_EQ(cache.rolls(), rolled + (roll ? 1 : 0)) << what;
    EXPECT_EQ(cache.misses(), misses + (roll ? 0 : 1)) << what;
    EXPECT_EQ(invalidations.value(), ended + (invalidated ? 1 : 0)) << what;
    auto want = CubeEngine(&wh).Execute(query);
    ASSERT_TRUE(want.ok()) << what;
    ExpectSameCube(**got, *want, what);
  };
  ASSERT_TRUE(cache.Execute(q).ok());
  ASSERT_TRUE(cache.Execute(distinct).ok());

  ASSERT_TRUE(wh.AppendRows((*batches_)[0]).ok());
  expect(q, true, false, "append");
  expect(distinct, false, false, "count_distinct after an append");
  EXPECT_EQ(rolls.value(), 1u);

  // An in-place reload of the same rows.
  Table rows = *base_;
  ASSERT_TRUE(rows.Concat((*batches_)[0]).ok());
  wh = BuildNavigationWarehouse(rows);
  expect(q, false, true, "reload");

  // Copies that diverge: neither rolls the other's cubes, whether the
  // copy is assigned or moved into the watched warehouse.
  Warehouse copy = wh;
  EXPECT_NE(copy.lineage(), wh.lineage());
  ASSERT_TRUE(copy.AppendRows((*batches_)[1]).ok());
  ASSERT_TRUE(wh.AppendRows((*batches_)[2]).ok());
  expect(q, true, false, "the watched warehouse's own append");
  auto on_copy = CubeEngine(&copy).Execute(q);
  ASSERT_TRUE(on_copy.ok());
  EXPECT_FALSE(CubeEngine(&wh).CanExtend(*on_copy));
  wh = copy;
  expect(q, false, true, "a diverged copy assigned in place");
  Warehouse other = wh;
  ASSERT_TRUE(other.AppendRows((*batches_)[3]).ok());
  ASSERT_TRUE(wh.AppendRows((*batches_)[3]).ok());
  ASSERT_TRUE(cache.Execute(q).ok());
  const uint64_t moved_lineage = other.lineage();
  wh = std::move(other);
  EXPECT_EQ(wh.lineage(), moved_lineage);
  // The moved-from warehouse took a fresh lineage.
  EXPECT_NE(other.lineage(), moved_lineage);  // NOLINT
  expect(q, false, true, "a diverged copy moved in");

  // A feedback dimension.
  ASSERT_TRUE(wh.AddFeedbackDimension("Risk", "RiskLabel",
                                      [](const Warehouse&, size_t row) {
                                        return Value::Str(row % 2 == 0 ? "a"
                                                                       : "b");
                                      })
                  .ok());
  expect(q, false, true, "feedback dimension");
  MetricsRegistry::Disable();
  MetricsRegistry::Global().ResetValues();

  // An empty cube, and a derived one, never roll.
  EXPECT_FALSE(CubeEngine(&wh).CanExtend(Cube()));
  auto fresh = CubeEngine(&wh).Execute(q);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(CubeEngine(&wh).CanExtend(*fresh));
  auto derived = fresh->RollUp(1);
  ASSERT_TRUE(derived.ok());
  EXPECT_FALSE(CubeEngine(&wh).CanExtend(*derived));
  EXPECT_TRUE(CubeEngine(&wh).Extend(*derived).status().IsFailedPrecondition());
}

// A roll forward whose cell space grows past the dense slot limit: the
// base's 47 x 22 x 53 cells sit in a dense array, the grown 47 x 43 x 53
// in a hash.
TEST_F(CubeKernelTest, RollsForwardOntoHashedSlots) {
  auto range = [](size_t from, size_t to) {
    std::vector<size_t> rows;
    for (size_t r = from; r < to; ++r) rows.push_back(r);
    return rows;
  };
  auto built = StarSchemaBuilder(KernelSchema())
                   .Build(TakeRows(*extract_, range(0, 1000)));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Warehouse wh = std::move(built).value();
  CachingCubeEngine cache(&wh);
  CubeQuery q;
  q.axes = {AxisSpec{"W", "P", {}}, AxisSpec{"W", "Q", {}},
            AxisSpec{"W", "R", {}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"},
                AggSpec{AggFn::kAvg, "DV", "avg"},
                AggSpec{AggFn::kSum, "IV", "s"},
                AggSpec{AggFn::kMax, "IV", "hi"}};
  auto slots_of = [&](const std::string& what) {
    PlanNode root("test");
    Stage stage(&root, "olap.cube.cache");
    auto got = cache.Execute(q, &stage);
    EXPECT_TRUE(got.ok()) << what << ": " << got.status().ToString();
    stage.Stop();
    auto want = CubeEngine(&wh).Execute(q);
    EXPECT_TRUE(want.ok()) << what;
    if (got.ok() && want.ok()) ExpectSameCube(**got, *want, what);
    const std::string* slots = ScanProp(root.children.at(0), "slots");
    return slots == nullptr ? std::string() : *slots;
  };
  EXPECT_EQ(slots_of("base"), "dense");
  ASSERT_TRUE(wh.AppendRows(TakeRows(*extract_, range(1000, 3000))).ok());
  EXPECT_EQ(slots_of("first roll"), "hashed");
  ASSERT_TRUE(wh.AppendRows(TakeRows(*extract_, range(3000, 6000))).ok());
  EXPECT_EQ(slots_of("second roll"), "hashed");
  EXPECT_EQ(cache.rolls(), 2u);
}

// A few cells in a cell space past the dense slot limit. Measured with
// the boxed cube (a hash map of coordinate vectors) that the flat cube
// replaced.
TEST_F(CubeKernelTest, GridsOfAHashedCubeKeepTheirBytes) {
  CubeQuery q;
  q.axes = {AxisSpec{"W", "P", {}}, AxisSpec{"W", "Q", {}},
            AxisSpec{"W", "R", {}}};
  q.slicers = {SlicerSpec{"D", "B", {Value::Str("2")}},
               SlicerSpec{"D", "K", {Value::Int(0)}},
               SlicerSpec{"W", "Q", {Value::Str("0")}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"},
                AggSpec{AggFn::kAvg, "DV", "avg"}};
  PlanNode plan;
  auto cube = CubeEngine(warehouse_).Execute(q, &plan);
  const std::string* slots = ScanProp(plan, "slots");
  ASSERT_NE(slots, nullptr);
  EXPECT_EQ(*slots, "hashed");
  const std::string text = GridsText(cube);
  EXPECT_EQ(DigestOf(text), (GridDigest{1716, 0xbe079199})) << text;
}

// The kernel's edge cases, each checked against the baseline to the
// bit. The scan works through the fact table in blocks of 256 rows, so
// the fact tables below end one row before, at and one row after a
// multiple of that.
class CubeBlockTest : public CubeKernelTest {
 protected:
  // The kernel extract's first `rows` rows, and the warehouse over them.
  struct Prefix {
    Table extract;
    Warehouse warehouse;
  };

  static Prefix Build(size_t rows) {
    std::vector<size_t> take(rows);
    for (size_t r = 0; r < rows; ++r) take[r] = r;
    Table extract = TakeRows(*extract_, take);
    auto wh = StarSchemaBuilder(KernelSchema()).Build(extract);
    EXPECT_TRUE(wh.ok()) << wh.status().ToString();
    return Prefix{std::move(extract), std::move(wh).value()};
  }

  // Dense and hashed cubes with count(*) beside count(col), typed
  // measures of both column types beside boxed ones, null members and a
  // slicer.
  static std::vector<CubeQuery> Queries() {
    std::vector<CubeQuery> out;
    CubeQuery q;
    q.axes = {AxisSpec{"D", "N", {}}, AxisSpec{"D", "B", {}}};
    q.measures = {AggSpec{AggFn::kCount, "", "n"},
                  AggSpec{AggFn::kCount, "DV", "n_dv"},
                  AggSpec{AggFn::kCountValid, "DV", "valid_dv"},
                  AggSpec{AggFn::kAvg, "DV", "avg_dv"},
                  AggSpec{AggFn::kSum, "IV", "sum_iv"},
                  AggSpec{AggFn::kMax, "V", "max_v"},
                  AggSpec{AggFn::kStdDev, "IV", "sd_iv"}};
    out.push_back(q);
    q.slicers = {SlicerSpec{"D", "K", {Value::Int(0), Value::Null()}}};
    out.push_back(q);
    q = CubeQuery{};
    q.axes = {AxisSpec{"W", "P", {}}, AxisSpec{"W", "Q", {}},
              AxisSpec{"W", "R", {}}};  // 47 * 43 * 53: hashed
    q.measures = {AggSpec{AggFn::kCount, "", "n"},
                  AggSpec{AggFn::kVariance, "DV", "var_dv"},
                  AggSpec{AggFn::kSum, "IV", "sum_iv"},
                  AggSpec{AggFn::kMin, "IV", "min_iv"}};
    out.push_back(q);
    q = CubeQuery{};
    q.axes = {AxisSpec{"D", "G", {}}};
    q.measures = {AggSpec{AggFn::kCount, "", "n"}};
    out.push_back(q);
    return out;
  }
};

TEST_F(CubeBlockTest, FactTablesAroundABlockBoundary) {
  for (size_t rows : {255u, 256u, 257u, 511u, 512u, 513u}) {
    const Prefix prefix = Build(rows);
    for (const CubeQuery& q : Queries()) {
      SCOPED_TRACE(testing::Message() << rows << " rows: " << q.ToString());
      ExpectMatchesBaselineOn(prefix.warehouse, prefix.extract, q);
    }
  }
}

// A roll forward whose first appended row falls mid-block, and again
// one that starts at a block's first row.
TEST_F(CubeBlockTest, RollsForwardFromMidBlock) {
  Prefix prefix = Build(300);
  Warehouse& wh = prefix.warehouse;
  CachingCubeEngine cache(&wh);
  const std::vector<CubeQuery> queries = Queries();
  for (const CubeQuery& q : queries) ASSERT_TRUE(cache.Execute(q).ok());
  size_t at = 300;
  for (size_t to : {812u, 1024u}) {
    std::vector<size_t> batch;
    for (; at < to; ++at) batch.push_back(at);
    ASSERT_TRUE(wh.AppendRows(TakeRows(*extract_, batch)).ok());
    const Prefix whole = Build(to);
    for (const CubeQuery& q : queries) {
      std::string where = std::to_string(to);
      where += " rows: ";
      where += q.ToString();
      auto got = cache.Execute(q);
      ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
      auto want = CubeEngine(&wh).Execute(q);
      ASSERT_TRUE(want.ok()) << where;
      ExpectSameCube(**got, *want, where);
      SCOPED_TRACE(where);
      ExpectMatchesBaselineOn(whole.warehouse, whole.extract, q);
    }
  }
  EXPECT_EQ(cache.rolls(), 2 * queries.size());
}

TEST_F(CubeBlockTest, SlicersThatAdmitNoRow) {
  CubeQuery q = Queries().front();
  // G = x holds on even rows and K = 10 only on odd ones.
  q.slicers = {SlicerSpec{"D", "G", {Value::Str("x")}},
               SlicerSpec{"D", "K", {Value::Int(10)}}};
  Cube cube = ExpectMatchesBaseline(q);
  EXPECT_EQ(cube.num_cells(), 0u);
  EXPECT_EQ(cube.facts_aggregated(), 0u);
  EXPECT_TRUE(cube.CellValue({Value::Str("a"), Value::Str("0")}).is_null());
  // A value the dimension lacks, on a cube without axes.
  CubeQuery total;
  total.slicers = {SlicerSpec{"D", "G", {Value::Str("z")}}};
  total.measures = {AggSpec{AggFn::kCount, "", "n"},
                    AggSpec{AggFn::kAvg, "DV", "avg"}};
  cube = ExpectMatchesBaseline(total);
  EXPECT_EQ(cube.num_cells(), 0u);
  EXPECT_TRUE(cube.CellValue({}).is_null());
}

TEST_F(CubeBlockTest, CountsBesideTypedAndBoxedMeasures) {
  for (const CubeQuery& q : Queries()) {
    SCOPED_TRACE(q.ToString());
    Cube cube = ExpectMatchesBaseline(q);
    if (q.slicers.empty()) {
      EXPECT_EQ(cube.facts_aggregated(), 40000u);
    }
  }
  // count(col) counts null rows too; count_valid does not. DV is null
  // wherever B is "3".
  Cube cube = ExpectMatchesBaseline(Queries().front());
  const std::vector<Value> cell = {Value::Str("a"), Value::Str("3")};
  EXPECT_EQ(cube.CellValue(cell, 0), cube.CellValue(cell, 1));
  EXPECT_GT(cube.CellValue(cell, 1).int_value(), 0);
  EXPECT_EQ(cube.CellValue(cell, 2), Value::Int(0));
  EXPECT_TRUE(cube.CellValue(cell, 3).is_null());
}

}  // namespace
}  // namespace ddgms::olap
