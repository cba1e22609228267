// Experiment Fig 5: age and gender distribution of patients with
// diabetes. Prints the OLAP outcome at 10-year granularity, drills
// down to 5-year bands (exposing the 70-75 male / 75-80 female split
// and the drop in the female share past ~78, read from each band's
// gender shares), renders both as charts, and times the drill-down
// path.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "discri/schemes.h"
#include "report/render.h"
#include "report/svg.h"

namespace {

using ddgms::AggFn;
using ddgms::AggSpec;
using ddgms::Value;
using ddgms::bench::MustOk;
using ddgms::bench::SharedDgms;

std::vector<Value> BandMembers(
    const ddgms::etl::DiscretisationScheme& scheme) {
  std::vector<Value> members;
  for (const std::string& l : scheme.labels()) {
    members.push_back(Value::Str(l));
  }
  return members;
}

ddgms::olap::CubeQuery Fig5Query() {
  ddgms::olap::CubeQuery q;
  q.axes = {{"PersonalInformation", "AgeBand10",
             BandMembers(ddgms::discri::AgeBand10Scheme())},
            {"PersonalInformation", "Gender", {}}};
  q.slicers = {{"MedicalCondition", "DiabetesStatus",
                {Value::Str("Type2")}}};
  q.measures = {AggSpec{AggFn::kCount, "", "patients"}};
  return q;
}

void PrintFig5() {
  auto& dgms = SharedDgms();
  std::printf(
      "=== Fig 5: age and gender distribution of patients with "
      "diabetes ===\n\n");
  auto coarse = MustOk(dgms.Query(Fig5Query()), "fig5 coarse");
  auto coarse_grid = MustOk(coarse.Pivot(0, 1), "fig5 pivot");
  std::printf("%s\n",
              MustOk(ddgms::report::RenderPivot(
                         coarse_grid,
                         {.title = "10-year age bands (females=F)"}),
                     "render")
                  .c_str());
  std::printf("%s\n",
              MustOk(ddgms::report::RenderPivotAsChart(coarse_grid),
                     "chart")
                  .c_str());

  auto drilled = MustOk(coarse.DrillDown(0), "fig5 drilldown");
  // Dice to the scheme's label order so bands render chronologically.
  auto fine = MustOk(
      drilled.Dice("PersonalInformation", "AgeBand5",
                   BandMembers(ddgms::discri::AgeBand5Scheme())),
      "fig5 order");
  auto fine_grid = MustOk(fine.Pivot(0, 1), "fig5 fine pivot");
  std::printf("\n%s\n",
              MustOk(ddgms::report::RenderPivot(
                         fine_grid,
                         {.title = "drill-down: 5-year age bands"}),
                     "render")
                  .c_str());
  // The paper reads the drill-down as proportions: each band's split
  // by gender, beside the counts above.
  auto shares = MustOk(
      fine.PivotShare(0, 1, ddgms::olap::Cube::ShareBasis::kRow),
      "fig5 shares");
  std::printf("%s\n",
              MustOk(ddgms::report::RenderPivot(
                         shares, {.row_totals = false,
                                  .column_totals = false,
                                  .title = "drill-down: share of each "
                                           "5-year band by gender"}),
                     "render")
                  .c_str());
  std::printf("%s\n",
              MustOk(ddgms::report::RenderPivotAsChart(fine_grid),
                     "chart")
                  .c_str());
  std::printf("%s\n",
              MustOk(ddgms::report::RenderHeatmap(
                         fine_grid, {.title = "density heatmap "
                                              "(paper: Visualisation)"}),
                     "heatmap")
                  .c_str());

  // SVG reproduction of the figure, alongside the text rendering.
  if (ddgms::report::WriteSvgColumnChart(
          fine_grid, "fig5_age_gender.svg",
          {.title = "Fig 5: diabetic attendances by 5-year age band "
                    "and gender"})
          .ok()) {
    std::printf("(SVG written to fig5_age_gender.svg)\n\n");
  }

  auto count = [&](const char* band, const char* g) {
    Value v = fine.CellValue({Value::Str(band), Value::Str(g)});
    return v.is_null() ? int64_t{0} : v.int_value();
  };
  auto female_share = [&](const char* band) {
    for (size_t r = 0; r < shares.num_rows(); ++r) {
      if (shares.column(0).GetValue(r) != Value::Str(band)) continue;
      Value v = MustOk(shares.GetCell(r, "F"), "fig5 share");
      return v.is_null() ? 0.0 : 100.0 * v.double_value();
    }
    return 0.0;
  };
  std::printf(
      "paper-shape checks:\n"
      "  70-75: M=%lld vs F=%lld (paper: males dominate)\n"
      "  75-80: F=%lld vs M=%lld (paper: females majority)\n"
      "  female share 75-80: %.1f%% (F=%lld) vs 80-85: %.1f%% (F=%lld) "
      "(paper: proportion of females drops substantially over 78)\n\n",
      static_cast<long long>(count("70-75", "M")),
      static_cast<long long>(count("70-75", "F")),
      static_cast<long long>(count("75-80", "F")),
      static_cast<long long>(count("75-80", "M")),
      female_share("75-80"), static_cast<long long>(count("75-80", "F")),
      female_share("80-85"), static_cast<long long>(count("80-85", "F")));
}

void BM_Fig5CoarseQuery(benchmark::State& state) {
  auto& dgms = SharedDgms();
  auto q = Fig5Query();
  for (auto _ : state) {
    auto cube = dgms.Query(q);
    benchmark::DoNotOptimize(cube);
  }
}
DDGMS_BENCHMARK(BM_Fig5CoarseQuery)->Unit(benchmark::kMicrosecond);

void BM_Fig5DrillDown(benchmark::State& state) {
  auto& dgms = SharedDgms();
  auto coarse = MustOk(dgms.Query(Fig5Query()), "coarse");
  for (auto _ : state) {
    auto fine = coarse.DrillDown(0);
    benchmark::DoNotOptimize(fine);
  }
}
DDGMS_BENCHMARK(BM_Fig5DrillDown)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  PrintFig5();
  return ddgms::bench::BenchMain(argc, argv, "bench_fig5_age_gender");
}
