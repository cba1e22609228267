// End-to-end observability: building a DD-DGMS with metrics + tracing
// enabled must produce the expected counters, latency histograms and
// span tree across ETL -> warehouse -> OLAP/MDX, including the
// fault-injection and quarantine paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/faults.h"
#include "common/metrics.h"
#include "common/query_registry.h"
#include "common/trace.h"
#include "core/dd_dgms.h"
#include "discri/cohort.h"
#include "discri/model.h"
#include "table/table.h"

namespace ddgms {
namespace {

class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultRegistry::Global().Reset();
    MetricsRegistry::Global().ResetValues();
    TraceCollector::Global().Clear();
    MetricsRegistry::Enable();
    TraceCollector::Enable();
  }
  void TearDown() override {
    MetricsRegistry::Disable();
    TraceCollector::Disable();
    MetricsRegistry::Global().ResetValues();
    TraceCollector::Global().Clear();
    FaultRegistry::Global().Reset();
  }

  static uint64_t CounterValue(const MetricsSnapshot& snap,
                               const std::string& name) {
    return snap.counter(name);
  }

  static Result<core::DdDgms> BuildSample(
      core::RobustnessOptions robustness = {}) {
    discri::CohortOptions opt;
    opt.num_patients = 60;
    opt.seed = 20130408;
    auto raw = discri::GenerateCohort(opt);
    if (!raw.ok()) return raw.status();
    return core::DdDgms::Build(std::move(raw).value(),
                               discri::MakeDiscriPipeline(),
                               discri::MakeDiscriSchemaDef(),
                               std::move(robustness));
  }
};

TEST_F(ObservabilityTest, BuildEmitsRowCountersAndLatencies) {
  auto dgms = BuildSample();
  ASSERT_TRUE(dgms.ok()) << dgms.status().ToString();

  MetricsSnapshot snap = core::DdDgms::MetricsSnapshot();
  EXPECT_EQ(CounterValue(snap, "ddgms.core.rebuilds"), 1u);
  EXPECT_EQ(CounterValue(snap, "ddgms.etl.runs"), 1u);
  EXPECT_GT(CounterValue(snap, "ddgms.etl.rows_in"), 0u);
  EXPECT_GT(CounterValue(snap, "ddgms.etl.rows_out"), 0u);
  EXPECT_GT(CounterValue(snap, "ddgms.etl.steps_run"), 0u);
  EXPECT_EQ(CounterValue(snap, "ddgms.warehouse.builds"), 1u);
  EXPECT_GT(CounterValue(snap, "ddgms.warehouse.fact_rows_built"), 0u);
  EXPECT_GT(CounterValue(snap, "ddgms.warehouse.surrogate_keys_allocated"),
            0u);

  const auto* rebuild_hist =
      snap.histogram("ddgms.core.rebuild_latency_us");
  ASSERT_NE(rebuild_hist, nullptr);
  EXPECT_EQ(rebuild_hist->count, 1u);
  const auto* step_hist = snap.histogram("ddgms.etl.step_latency_us");
  ASSERT_NE(step_hist, nullptr);
  EXPECT_GT(step_hist->count, 0u);
}

TEST_F(ObservabilityTest, BuildEmitsExpectedSpanTree) {
  auto dgms = BuildSample();
  ASSERT_TRUE(dgms.ok()) << dgms.status().ToString();

  std::vector<SpanRecord> spans = TraceCollector::Global().Snapshot();
  const SpanRecord* rebuild = nullptr;
  const SpanRecord* etl_run = nullptr;
  const SpanRecord* wh_build = nullptr;
  const SpanRecord* integrity = nullptr;
  size_t etl_steps = 0;
  for (const SpanRecord& s : spans) {
    if (s.name == "core.rebuild") rebuild = &s;
    if (s.name == "etl.pipeline.run") etl_run = &s;
    if (s.name == "warehouse.build") wh_build = &s;
    if (s.name == "warehouse.integrity_check") integrity = &s;
    if (s.name == "etl.step") ++etl_steps;
  }
  ASSERT_NE(rebuild, nullptr);
  ASSERT_NE(etl_run, nullptr);
  ASSERT_NE(wh_build, nullptr);
  ASSERT_NE(integrity, nullptr);
  EXPECT_GT(etl_steps, 0u);
  EXPECT_EQ(rebuild->parent_id, 0u);
  EXPECT_EQ(etl_run->parent_id, rebuild->id);
  EXPECT_EQ(wh_build->parent_id, rebuild->id);
  EXPECT_EQ(integrity->parent_id, wh_build->id);
}

TEST_F(ObservabilityTest, MdxQueryEmitsProfileAndMetrics) {
  auto dgms = BuildSample();
  ASSERT_TRUE(dgms.ok()) << dgms.status().ToString();

  auto result = dgms->QueryMdx(
      "SELECT { [PersonalInformation].[Gender].Members } ON COLUMNS, "
      "{ [PersonalInformation].[AgeBand].Members } ON ROWS "
      "FROM [MedicalMeasures]");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Profile is populated even without the registries (stage list plus
  // query shape), and ToString renders every stage.
  const mdx::MdxProfile& profile = result->profile;
  ASSERT_EQ(profile.stages.size(), 3u);
  EXPECT_EQ(profile.stages[0].name, "parse");
  EXPECT_EQ(profile.stages[1].name, "compile");
  EXPECT_EQ(profile.stages[2].name, "execute");
  EXPECT_GT(profile.total_micros, 0.0);
  EXPECT_EQ(profile.axes, 2u);
  EXPECT_GT(profile.fact_rows, 0u);
  EXPECT_GT(profile.cells, 0u);
  std::string rendered = profile.ToString();
  EXPECT_NE(rendered.find("parse"), std::string::npos);
  EXPECT_NE(rendered.find("execute"), std::string::npos);
  EXPECT_NE(rendered.find("total"), std::string::npos);

  MetricsSnapshot snap = core::DdDgms::MetricsSnapshot();
  EXPECT_EQ(CounterValue(snap, "ddgms.mdx.queries"), 1u);
  EXPECT_EQ(CounterValue(snap, "ddgms.olap.queries"), 1u);
  EXPECT_GT(CounterValue(snap, "ddgms.olap.cells_materialized"), 0u);
  EXPECT_GT(CounterValue(snap, "ddgms.olap.facts_scanned"), 0u);

  // The MDX span tree: mdx.execute wrapping the cache's miss, which
  // wraps olap.cube.execute.
  std::vector<SpanRecord> spans = TraceCollector::Global().Snapshot();
  const SpanRecord* mdx_exec = nullptr;
  const SpanRecord* cube_cache = nullptr;
  const SpanRecord* cube_exec = nullptr;
  for (const SpanRecord& s : spans) {
    if (s.name == "mdx.execute") mdx_exec = &s;
    if (s.name == "olap.cube.cache") cube_cache = &s;
    if (s.name == "olap.cube.execute") cube_exec = &s;
  }
  ASSERT_NE(mdx_exec, nullptr);
  ASSERT_NE(cube_cache, nullptr);
  ASSERT_NE(cube_exec, nullptr);
  EXPECT_EQ(cube_cache->parent_id, mdx_exec->id);
  EXPECT_EQ(cube_exec->parent_id, cube_cache->id);
}

// Checks that the spans below `span` mirror `node`: one span per plan
// node, named by its op, parented like it and lasting its micros.
// Returns the number of spans matched.
size_t ExpectSpanMirrorsNode(const std::vector<SpanRecord>& spans,
                             const SpanRecord& span,
                             const olap::PlanNode& node) {
  EXPECT_EQ(span.name, node.op);
  EXPECT_EQ(span.duration_us, node.micros) << node.op;
  // Span ids are handed out as spans open, so they order siblings.
  std::vector<const SpanRecord*> kids;
  for (const SpanRecord& s : spans) {
    if (s.parent_id == span.id) kids.push_back(&s);
  }
  std::sort(kids.begin(), kids.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              return a->id < b->id;
            });
  EXPECT_EQ(kids.size(), node.children.size()) << node.op;
  size_t matched = 1;
  for (size_t i = 0; i < kids.size() && i < node.children.size(); ++i) {
    matched += ExpectSpanMirrorsNode(spans, *kids[i], node.children[i]);
  }
  return matched;
}

size_t CountNodes(const olap::PlanNode& node) {
  size_t n = 1;
  for (const olap::PlanNode& child : node.children) n += CountNodes(child);
  return n;
}

TEST_F(ObservabilityTest, OneRecordPerStageFeedsSpansPlanProfileAndHistogram) {
  QueryRegistry::Enable();
  auto dgms = BuildSample();
  ASSERT_TRUE(dgms.ok()) << dgms.status().ToString();
  const std::string query =
      "SELECT { [PersonalInformation].[Gender].Members } ON COLUMNS, "
      "{ [PersonalInformation].[AgeBand].Members } ON ROWS "
      "FROM [MedicalMeasures]";

  // A cache miss, then a hit of the same query.
  for (const char* verdict : {"miss", "hit"}) {
    SCOPED_TRACE(verdict);
    TraceCollector::Global().Clear();
    auto result = dgms->QueryMdx(query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const mdx::MdxProfile& profile = result->profile;
    const olap::PlanNode& plan = profile.plan;

    // The spans are exactly the plan tree, parse under mdx.execute.
    std::vector<SpanRecord> spans = TraceCollector::Global().Snapshot();
    const SpanRecord* root = nullptr;
    for (const SpanRecord& s : spans) {
      if (s.parent_id == 0) {
        EXPECT_EQ(root, nullptr) << "second root " << s.name;
        root = &s;
      }
    }
    ASSERT_NE(root, nullptr);
    EXPECT_EQ(root->name, "mdx.execute");
    EXPECT_EQ(ExpectSpanMirrorsNode(spans, *root, plan), spans.size());
    EXPECT_EQ(spans.size(), CountNodes(plan));
    ASSERT_EQ(plan.children.size(), 3u);
    EXPECT_EQ(plan.children[0].op, "mdx.parse");
    EXPECT_EQ(plan.children[2].op, "olap.cube.cache");
    bool saw_verdict = false;
    for (const auto& [key, value] : plan.children[2].props) {
      if (key == "cache") saw_verdict = value == verdict;
    }
    EXPECT_TRUE(saw_verdict);

    // The profile carries the root's and its children's readings.
    ASSERT_EQ(profile.stages.size(), plan.children.size());
    for (size_t i = 0; i < profile.stages.size(); ++i) {
      EXPECT_EQ(static_cast<uint64_t>(profile.stages[i].micros),
                plan.children[i].micros)
          << profile.stages[i].name;
    }
    EXPECT_EQ(static_cast<uint64_t>(profile.total_micros), plan.micros);
  }

  // One latency sample per query, parse included in its root.
  const MetricsSnapshot snap = core::DdDgms::MetricsSnapshot();
  const HistogramSnapshot* latency =
      snap.histogram("ddgms.mdx.execute_latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 2u);
  QueryRegistry::Disable();
}

TEST_F(ObservabilityTest, ProfileIsPopulatedWithoutRegistries) {
  MetricsRegistry::Disable();
  TraceCollector::Disable();
  auto dgms = BuildSample();
  ASSERT_TRUE(dgms.ok()) << dgms.status().ToString();
  auto result = dgms->QueryMdx(
      "SELECT { [PersonalInformation].[Gender].Members } ON COLUMNS "
      "FROM [MedicalMeasures]");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->profile.stages.size(), 3u);
  EXPECT_GT(result->profile.fact_rows, 0u);
  // Nothing leaked into the disabled registries. Earlier tests in the
  // same process may have registered names, so assert on values: the
  // fixture reset everything to zero and the disabled run must not
  // have mutated anything.
  MetricsSnapshot snap = core::DdDgms::MetricsSnapshot();
  for (const auto& c : snap.counters) {
    EXPECT_EQ(c.value, 0u) << c.name;
  }
  for (const auto& h : snap.histograms) {
    EXPECT_EQ(h.count, 0u) << h.name;
  }
  EXPECT_EQ(TraceCollector::Global().size(), 0u);
}

TEST_F(ObservabilityTest, OlapOpsCountPerOperation) {
  auto dgms = BuildSample();
  ASSERT_TRUE(dgms.ok()) << dgms.status().ToString();

  olap::CubeQuery query;
  query.axes.push_back(
      olap::AxisSpec{"PersonalInformation", "AgeBand", {}});
  query.axes.push_back(
      olap::AxisSpec{"PersonalInformation", "Gender", {}});
  query.measures.push_back(AggSpec{AggFn::kCount, "", "count"});
  auto cube = dgms->Query(query);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();

  ASSERT_TRUE(cube->Slice("PersonalInformation", "Gender",
                          Value::Str("F"))
                  .ok());
  ASSERT_TRUE(cube->RollUp(1).ok());

  MetricsSnapshot snap = core::DdDgms::MetricsSnapshot();
  EXPECT_EQ(CounterValue(snap, "ddgms.olap.ops:slice"), 1u);
  EXPECT_EQ(CounterValue(snap, "ddgms.olap.ops:rollup"), 1u);
  // Only the base query ran the engine: the slice and the roll-up of
  // unrestricted axes derive their cubes from the base cube's cells.
  EXPECT_EQ(CounterValue(snap, "ddgms.olap.queries"), 1u);

  // Each navigation span says where its cube came from.
  std::vector<SpanRecord> spans = TraceCollector::Global().Snapshot();
  size_t navigations = 0;
  for (const SpanRecord& s : spans) {
    if (s.name != "olap.slice" && s.name != "olap.rollup") continue;
    ++navigations;
    std::string from;
    for (const auto& [key, value] : s.attributes) {
      if (key == "from") from = value;
    }
    EXPECT_EQ(from, "cube") << s.name;
  }
  EXPECT_EQ(navigations, 2u);
}

TEST_F(ObservabilityTest, QuarantineCountersPerStage) {
  // Two rows carry an unparseable Age. Lenient type inference votes by
  // majority, so Age stays numeric and the bad rows are quarantined
  // during ingestion typing.
  const char kCorrupt[] =
      "PatientId,VisitDate,Age,Gender,FBG\n"
      "P1,2003-01-01,50,F,5.0\n"
      "P2,2003-02-01,not-a-number,M,6.5\n"
      "P3,2003-03-01,47,F,7.2\n"
      "P4,2003-04-01,??,M,5.9\n"
      "P5,2003-05-01,61,F,6.1\n"
      "P6,2003-06-01,39,M,4.8\n";
  QuarantineReport quarantine;
  CsvReadOptions options;
  options.error_mode = ErrorMode::kLenient;
  options.quarantine = &quarantine;
  auto table = Table::FromCsv(kCorrupt, options);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), 4u);

  MetricsSnapshot snap = core::DdDgms::MetricsSnapshot();
  EXPECT_EQ(CounterValue(snap, "ddgms.quarantine.rows"), 2u);
  EXPECT_EQ(CounterValue(snap, "ddgms.quarantine.rows:csv-ingest"), 2u);
}

TEST_F(ObservabilityTest, FaultCountersFromInjectedFailures) {
  // Two builds lose their rebuild to an injected fault; the third
  // completes. Each injection is counted, in total and per point.
  ScopedFault fault("core.rebuild", [] {
    FaultPlan plan;
    plan.code = StatusCode::kDataLoss;
    plan.fail_first = 2;
    return plan;
  }());
  EXPECT_TRUE(BuildSample().status().IsDataLoss());
  EXPECT_TRUE(BuildSample().status().IsDataLoss());
  auto dgms = BuildSample();
  ASSERT_TRUE(dgms.ok()) << dgms.status().ToString();

  MetricsSnapshot snap = core::DdDgms::MetricsSnapshot();
  EXPECT_EQ(CounterValue(snap, "ddgms.faults.injected"), 2u);
  EXPECT_EQ(CounterValue(snap, "ddgms.faults.injected:core.rebuild"), 2u);
  EXPECT_GE(CounterValue(snap, "ddgms.faults.hits"), 3u);
  EXPECT_EQ(CounterValue(snap, "ddgms.core.rebuilds"), 1u);
}

}  // namespace
}  // namespace ddgms
