// Experiment A6: OLAP operation microbenchmarks — cube build, slice,
// dice, roll-up, drill-down and MDX execution as the fact table grows.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>

#include "bench/bench_util.h"
#include "core/dd_dgms.h"
#include "discri/cohort.h"
#include "discri/model.h"
#include "mdx/executor.h"

namespace {

using ddgms::AggFn;
using ddgms::AggSpec;
using ddgms::Value;
using ddgms::bench::MustOk;
namespace core = ddgms::core;

// Per-size DGMS cache (cohort sizes sweep the fact-row count).
core::DdDgms& DgmsOfSize(size_t patients) {
  static std::map<size_t, std::unique_ptr<core::DdDgms>> cache;
  auto it = cache.find(patients);
  if (it == cache.end()) {
    ddgms::discri::CohortOptions opt;
    opt.num_patients = patients;
    auto raw = MustOk(ddgms::discri::GenerateCohort(opt), "cohort");
    auto dgms = MustOk(
        core::DdDgms::Build(std::move(raw),
                            ddgms::discri::MakeDiscriPipeline(),
                            ddgms::discri::MakeDiscriSchemaDef()),
        "dgms");
    it = cache.emplace(patients,
                       std::make_unique<core::DdDgms>(std::move(dgms)))
             .first;
  }
  return *it->second;
}

ddgms::olap::CubeQuery ThreeAxisQuery() {
  ddgms::olap::CubeQuery q;
  q.axes = {{"PersonalInformation", "AgeBand10", {}},
            {"PersonalInformation", "Gender", {}},
            {"MedicalCondition", "DiabetesStatus", {}}};
  q.measures = {AggSpec{AggFn::kCount, "", "n"},
                AggSpec{AggFn::kAvg, "FBG", "avg_fbg"}};
  return q;
}

void BM_CubeBuild(benchmark::State& state) {
  auto& dgms = DgmsOfSize(static_cast<size_t>(state.range(0)));
  auto q = ThreeAxisQuery();
  for (auto _ : state) {
    auto cube = dgms.Query(q);
    benchmark::DoNotOptimize(cube);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(dgms.warehouse().num_fact_rows()));
  state.counters["fact_rows"] =
      static_cast<double>(dgms.warehouse().num_fact_rows());
}
DDGMS_BENCHMARK(BM_CubeBuild)->Arg(300)->Arg(900)->Arg(2700)->Arg(8100)
    ->Unit(benchmark::kMicrosecond);

void BM_Slice(benchmark::State& state) {
  auto& dgms = DgmsOfSize(900);
  auto cube = MustOk(dgms.Query(ThreeAxisQuery()), "cube");
  for (auto _ : state) {
    auto sliced = cube.Slice("MedicalCondition", "DiabetesStatus",
                             Value::Str("Type2"));
    benchmark::DoNotOptimize(sliced);
  }
}
DDGMS_BENCHMARK(BM_Slice)->Unit(benchmark::kMicrosecond);

void BM_Dice(benchmark::State& state) {
  auto& dgms = DgmsOfSize(900);
  auto cube = MustOk(dgms.Query(ThreeAxisQuery()), "cube");
  for (auto _ : state) {
    auto diced =
        cube.Dice("PersonalInformation", "AgeBand10",
                  {Value::Str("60-70"), Value::Str("70-80")});
    benchmark::DoNotOptimize(diced);
  }
}
DDGMS_BENCHMARK(BM_Dice)->Unit(benchmark::kMicrosecond);

void BM_RollUp(benchmark::State& state) {
  auto& dgms = DgmsOfSize(900);
  auto cube = MustOk(dgms.Query(ThreeAxisQuery()), "cube");
  for (auto _ : state) {
    auto rolled = cube.RollUp(2);
    benchmark::DoNotOptimize(rolled);
  }
}
DDGMS_BENCHMARK(BM_RollUp)->Unit(benchmark::kMicrosecond);

void BM_DrillDown(benchmark::State& state) {
  auto& dgms = DgmsOfSize(900);
  auto cube = MustOk(dgms.Query(ThreeAxisQuery()), "cube");
  for (auto _ : state) {
    auto drilled = cube.DrillDown(0);
    benchmark::DoNotOptimize(drilled);
  }
}
DDGMS_BENCHMARK(BM_DrillDown)->Unit(benchmark::kMicrosecond);

constexpr char kFig5Mdx[] =
    "SELECT { [PersonalInformation].[Gender].Members } ON COLUMNS, "
    "{ [PersonalInformation].[AgeBand10].Members } ON ROWS "
    "FROM [MedicalMeasures] "
    "WHERE ( [MedicalCondition].[DiabetesStatus].[Type2] )";

// Through the facade, whose cube cache serves every iteration after
// the first: parse, compile, cache lookup and grid.
void BM_MdxEndToEndCached(benchmark::State& state) {
  auto& dgms = DgmsOfSize(900);
  for (auto _ : state) {
    auto result = dgms.QueryMdx(kFig5Mdx);
    benchmark::DoNotOptimize(result);
  }
}
DDGMS_BENCHMARK(BM_MdxEndToEndCached)->Unit(benchmark::kMicrosecond);

// An executor with no cube cache: every iteration also resolves,
// scans and materializes the cube.
void BM_MdxEndToEndUncached(benchmark::State& state) {
  auto& dgms = DgmsOfSize(900);
  const ddgms::mdx::MdxExecutor executor(&dgms.warehouse());
  for (auto _ : state) {
    auto result = executor.Execute(kFig5Mdx);
    benchmark::DoNotOptimize(result);
  }
}
DDGMS_BENCHMARK(BM_MdxEndToEndUncached)->Unit(benchmark::kMicrosecond);

void BM_JoinedView(benchmark::State& state) {
  auto& dgms = DgmsOfSize(900);
  for (auto _ : state) {
    auto view = dgms.IsolateSubset({"FBGBand", "DiabetesStatus"});
    benchmark::DoNotOptimize(view);
  }
}
DDGMS_BENCHMARK(BM_JoinedView)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== A6: OLAP operation microbenchmarks ===\n\n");
  return ddgms::bench::BenchMain(argc, argv, "bench_a6_olap_ops");
}
