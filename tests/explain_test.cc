// EXPLAIN ANALYZE plan-tree tests: golden operator shape and
// cardinalities over a fixed warehouse, byte reconciliation against the
// ResourceMeter pools, cube-cache hit/miss interposition and the
// slow-query flight-recorder event carrying the plan as JSON.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/log.h"
#include "common/resource.h"
#include "mdx/executor.h"
#include "olap/cache.h"
#include "olap/plan.h"
#include "warehouse/warehouse.h"

namespace ddgms::mdx {
namespace {

using warehouse::DimensionDef;
using warehouse::MeasureDef;
using warehouse::StarSchemaBuilder;
using warehouse::StarSchemaDef;
using warehouse::Warehouse;

// Six fixed fact rows -> deterministic cardinalities in every plan.
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

const olap::PlanNode* FindChild(const olap::PlanNode& node,
                                const std::string& op) {
  for (const olap::PlanNode& child : node.children) {
    if (child.op == op) return &child;
  }
  return nullptr;
}

const std::string* FindProp(const olap::PlanNode& node,
                            const std::string& key) {
  for (const auto& [k, v] : node.props) {
    if (k == key) return &v;
  }
  return nullptr;
}

constexpr char kGenderQuery[] =
    "SELECT { [Person].[Gender].Members } ON COLUMNS "
    "FROM [MedicalMeasures]";

TEST(ExplainTest, PlanTreeGoldenShapeAndCardinalities) {
  Warehouse wh = MakeWarehouse();
  MdxExecutor executor(&wh);
  auto result = executor.Execute(kGenderQuery);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const olap::PlanNode& plan = result->profile.plan;
  EXPECT_EQ(plan.op, "mdx.execute");
  EXPECT_EQ(plan.rows_in, 6u);   // fact rows
  EXPECT_EQ(plan.rows_out, 2u);  // one cell per gender
  EXPECT_EQ(plan.rows_out, result->profile.cells);

  // Text execution prepends the measured parse operator.
  ASSERT_GE(plan.children.size(), 3u);
  EXPECT_EQ(plan.children[0].op, "mdx.parse");
  EXPECT_EQ(plan.children[1].op, "mdx.compile");
  const olap::PlanNode* exec = FindChild(plan, "olap.cube.execute");
  ASSERT_NE(exec, nullptr);
  EXPECT_EQ(exec->rows_in, 6u);
  EXPECT_EQ(exec->rows_out, 2u);

  // The cube engine's four stages, in execution order, with golden
  // cardinalities for this fixture.
  ASSERT_EQ(exec->children.size(), 4u);
  EXPECT_EQ(exec->children[0].op, "olap.cube.resolve_axes");
  EXPECT_EQ(exec->children[0].rows_in, 1u);   // one axis
  EXPECT_EQ(exec->children[0].rows_out, 2u);  // F, M
  EXPECT_EQ(exec->children[1].op, "olap.cube.resolve_slicers");
  EXPECT_EQ(exec->children[1].rows_in, 0u);
  EXPECT_EQ(exec->children[2].op, "olap.cube.scan");
  EXPECT_EQ(exec->children[2].rows_in, 6u);
  EXPECT_EQ(exec->children[2].rows_out, 6u);  // every fact aggregated
  const std::string* slots = FindProp(exec->children[2], "slots");
  ASSERT_NE(slots, nullptr);
  EXPECT_EQ(*slots, "dense");  // two genders: a two-slot dense table
  EXPECT_EQ(exec->children[3].op, "olap.cube.materialize");
  EXPECT_EQ(exec->children[3].rows_out, 2u);

  // A well-formed plan's children never sum past the parent.
  uint64_t stage_micros = 0;
  for (const olap::PlanNode& child : exec->children) {
    stage_micros += child.micros;
  }
  EXPECT_LE(stage_micros, exec->micros);
  for (const olap::PlanNode& child : plan.children) {
    EXPECT_LE(child.micros, plan.micros) << child.op;
  }

  // Rendering sanity: every operator appears in both exports.
  const std::string text = plan.ToString();
  const std::string json = plan.ToJson();
  for (const char* op : {"mdx.execute", "mdx.parse", "mdx.compile",
                         "olap.cube.scan", "olap.cube.materialize"}) {
    EXPECT_NE(text.find(op), std::string::npos) << op;
    EXPECT_NE(json.find(op), std::string::npos) << op;
  }
}

TEST(ExplainTest, PlanBytesReconcileWithResourcePools) {
  Warehouse wh = MakeWarehouse();
  ResourceMeter::Enable();
  ResourceMeter::Global().ResetValues();

  MdxExecutor executor(&wh);
  auto result = executor.Execute(kGenderQuery);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const olap::PlanNode& plan = result->profile.plan;

  ResourceSnapshot snap = ResourceMeter::Global().Snapshot();
  ResourceMeter::Global().ResetValues();
  ResourceMeter::Disable();

  // The cube subtree's bytes are ScopedAccounting deltas over the
  // "olap.cube" pool, so they reconcile exactly with what the pool
  // accumulated during the query.
  const olap::PlanNode* exec = FindChild(plan, "olap.cube.execute");
  ASSERT_NE(exec, nullptr);
  const ResourcePoolStats* cube_pool = snap.pool("olap.cube");
  ASSERT_NE(cube_pool, nullptr);
  EXPECT_GT(exec->TotalBytes(), 0u);
  EXPECT_EQ(exec->TotalBytes(), cube_pool->allocated);

  // The root's own bytes are the executor's "mdx" pool delta.
  const ResourcePoolStats* mdx_pool = snap.pool("mdx");
  ASSERT_NE(mdx_pool, nullptr);
  EXPECT_EQ(plan.bytes, mdx_pool->allocated);
}

TEST(ExplainTest, CacheInterposesHitMissNode) {
  Warehouse wh = MakeWarehouse();
  olap::CachingCubeEngine cache(&wh);
  MdxExecutor executor(&wh);
  executor.set_cube_cache(&cache);

  auto first = executor.Execute(kGenderQuery);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const olap::PlanNode* cache_node =
      FindChild(first->profile.plan, "olap.cube.cache");
  ASSERT_NE(cache_node, nullptr);
  const std::string* verdict = FindProp(*cache_node, "cache");
  ASSERT_NE(verdict, nullptr);
  EXPECT_EQ(*verdict, "miss");
  // A miss executes the engine beneath the cache node.
  EXPECT_NE(FindChild(*cache_node, "olap.cube.execute"), nullptr);
  EXPECT_EQ(cache_node->rows_out, 2u);

  auto second = executor.Execute(kGenderQuery);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  cache_node = FindChild(second->profile.plan, "olap.cube.cache");
  ASSERT_NE(cache_node, nullptr);
  verdict = FindProp(*cache_node, "cache");
  ASSERT_NE(verdict, nullptr);
  EXPECT_EQ(*verdict, "hit");
  // A hit serves the materialized cube: no engine stages beneath.
  EXPECT_TRUE(cache_node->children.empty());
  EXPECT_EQ(cache_node->rows_out, 2u);
  EXPECT_EQ(second->profile.plan.rows_out, 2u);
}

TEST(ExplainTest, SlowQueryEventEmbedsPlanJson) {
  Warehouse wh = MakeWarehouse();
  const double saved = MdxExecutor::SlowQueryThresholdMicros();
  MdxExecutor::SetSlowQueryThresholdMicros(0.0);  // everything is slow
  EventLog::Enable();
  EventLog::Global().Clear();

  MdxExecutor executor(&wh);
  auto result = executor.Execute(kGenderQuery);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::vector<LogRecord> records = EventLog::Global().Snapshot();
  EventLog::Global().Clear();
  EventLog::Disable();
  MdxExecutor::SetSlowQueryThresholdMicros(saved);

  const LogRecord* slow = nullptr;
  for (const LogRecord& r : records) {
    if (r.event == "mdx.slow_query") slow = &r;
  }
  ASSERT_NE(slow, nullptr);
  EXPECT_EQ(slow->level, LogLevel::kWarn);
  bool found_plan = false;
  for (const auto& [key, value] : slow->fields) {
    if (key != "plan") continue;
    found_plan = true;
    const std::string json = value.ToJson();
    EXPECT_NE(json.find("mdx.execute"), std::string::npos);
    EXPECT_NE(json.find("olap.cube.scan"), std::string::npos);
  }
  EXPECT_TRUE(found_plan);
}

}  // namespace
}  // namespace ddgms::mdx
