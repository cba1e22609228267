// Unit tests for the text rendering layer.

#include <gtest/gtest.h>

#include <string>

#include "common/checksum.h"
#include "core/dd_dgms.h"
#include "discri/cohort.h"
#include "discri/model.h"
#include "report/render.h"
#include "table/table.h"

namespace ddgms::report {
namespace {

Table MakeGrid() {
  Table t(Schema::Make({{"AgeBand", DataType::kString},
                        {"F", DataType::kInt64},
                        {"M", DataType::kInt64}})
              .value());
  EXPECT_TRUE(
      t.AppendRow({Value::Str("60-70"), Value::Int(10), Value::Int(7)})
          .ok());
  EXPECT_TRUE(
      t.AppendRow({Value::Str("70-80"), Value::Int(12), Value::Null()})
          .ok());
  return t;
}

TEST(RenderPivotTest, TotalsAndNullCells) {
  auto out = RenderPivot(MakeGrid(), {.title = "Counts"});
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("Counts"), std::string::npos);
  EXPECT_NE(out->find("AgeBand"), std::string::npos);
  EXPECT_NE(out->find("Total"), std::string::npos);
  EXPECT_NE(out->find("29"), std::string::npos);  // grand total 10+7+12
  EXPECT_NE(out->find("."), std::string::npos);   // null cell marker
}

TEST(RenderPivotTest, NoTotals) {
  PivotRenderOptions opt;
  opt.row_totals = false;
  opt.column_totals = false;
  auto out = RenderPivot(MakeGrid(), opt);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->find("Total"), std::string::npos);
}

TEST(RenderPivotTest, NeedsDataColumn) {
  Table t(Schema::Make({{"OnlyLabels", DataType::kString}}).value());
  EXPECT_TRUE(RenderPivot(t).status().IsInvalidArgument());
}

TEST(BarChartTest, ScalesToMaxWidth) {
  BarChartOptions opt;
  opt.max_width = 10;
  opt.show_values = false;
  std::string out =
      RenderBarChart({"a", "bb"}, {5.0, 10.0}, opt);
  // Max bar is exactly 10 chars; the other is 5.
  EXPECT_NE(out.find("##########"), std::string::npos);
  EXPECT_EQ(out.find("###########"), std::string::npos);
  EXPECT_NE(out.find("#####"), std::string::npos);
}

TEST(BarChartTest, AllZeroValues) {
  std::string out = RenderBarChart({"a"}, {0.0});
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_EQ(out.find('#'), std::string::npos);
}

TEST(GroupedBarChartTest, LegendAndSeries) {
  std::string out = RenderGroupedBarChart(
      {"60-70", "70-80"}, {"F", "M"},
      {{10, 12}, {7, 3}});
  EXPECT_NE(out.find("legend: #=F ==M"), std::string::npos);
  EXPECT_NE(out.find("60-70"), std::string::npos);
  EXPECT_NE(out.find('='), std::string::npos);
}

TEST(RenderPivotAsChartTest, FromGrid) {
  auto out = RenderPivotAsChart(MakeGrid());
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("legend"), std::string::npos);
  EXPECT_NE(out->find("70-80"), std::string::npos);
}

// ------------------------------------------------ the paper's grids

// A text's size and CRC32C.
struct Digest {
  size_t bytes = 0;
  uint32_t crc32c = 0;

  bool operator==(const Digest& other) const {
    return bytes == other.bytes && crc32c == other.crc32c;
  }
};

void PrintTo(const Digest& d, std::ostream* os) {
  *os << "{" << d.bytes << ", 0x" << std::hex << d.crc32c << std::dec << "}";
}

Digest DigestOf(const std::string& text) {
  return Digest{text.size(), Crc32c(text)};
}

// "`what`: `status`", built in place.
std::string Failed(const char* what, const Status& status) {
  std::string out = what;
  out += ": ";
  out += status.ToString();
  return out;
}

// The Fig 4-6 grids of a ward round, as a clinician sees them, on the
// DiScRi-scale cohort: 900 patients, seed 20130408, loaded from CSV.
class FigureGridTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    discri::CohortOptions options;
    options.num_patients = 900;
    options.seed = 20130408;
    auto cohort = discri::GenerateCohort(options);
    ASSERT_TRUE(cohort.ok()) << cohort.status().ToString();
    auto extract = Table::FromCsv(cohort->ToCsv());
    ASSERT_TRUE(extract.ok()) << extract.status().ToString();
    auto dgms = core::DdDgms::Build(std::move(extract).value(),
                                    discri::MakeDiscriPipeline(),
                                    discri::MakeDiscriSchemaDef());
    ASSERT_TRUE(dgms.ok()) << dgms.status().ToString();
    dgms_ = new core::DdDgms(std::move(dgms).value());
  }

  static void TearDownTestSuite() {
    delete dgms_;
    dgms_ = nullptr;
  }

  // The query's grid, rendered as a cross-tab or, with `pivot` off, as
  // a table of every cell.
  static std::string GridText(const char* mdx, bool pivot) {
    auto result = dgms_->QueryMdx(mdx);
    if (!result.ok()) return Failed("query", result.status());
    auto grid = result->ToGrid();
    if (!grid.ok()) return Failed("grid", grid.status());
    if (!pivot) return grid->ToPrettyString(1000);
    auto text = RenderPivot(*grid);
    return text.ok() ? *text : Failed("render", text.status());
  }

  static core::DdDgms* dgms_;
};

core::DdDgms* FigureGridTest::dgms_ = nullptr;

// Measured with the boxed cube (a hash map of coordinate vectors) and
// the boxed Pivot that the flat cube replaced.
TEST_F(FigureGridTest, WardRoundGridsKeepTheirBytes) {
  const std::string fig4 = GridText(
      "SELECT { [PersonalInformation].[Gender].Members } ON COLUMNS, "
      "CROSSJOIN( { [PersonalInformation].[AgeBand].Members }, "
      "{ [PersonalInformation].[FamilyHistoryDiabetes].Members } ) "
      "ON ROWS FROM [MedicalMeasures]",
      false);
  const std::string fig5 = GridText(
      "SELECT { [PersonalInformation].[Gender].Members } ON COLUMNS, "
      "{ [PersonalInformation].[AgeBand10].Members } ON ROWS "
      "FROM [MedicalMeasures] "
      "WHERE ( [MedicalCondition].[DiabetesStatus].[Type2] )",
      true);
  const std::string drill = GridText(
      "SELECT { [PersonalInformation].[Gender].Members } ON COLUMNS, "
      "{ [PersonalInformation].[AgeBand10].[70-80].Children } ON ROWS "
      "FROM [MedicalMeasures] "
      "WHERE ( [MedicalCondition].[DiabetesStatus].[Type2] )",
      true);
  const std::string fig6 = GridText(
      "SELECT { [MedicalCondition].[DiagnosticHTYearsBand].Members } "
      "ON COLUMNS, { [PersonalInformation].[AgeBand5].Members } ON ROWS "
      "FROM [MedicalMeasures] "
      "WHERE ( [MedicalCondition].[HypertensionStatus].[Yes] )",
      true);
  EXPECT_EQ(DigestOf(fig4), (Digest{864, 0xfd2c6ac1})) << fig4;
  EXPECT_EQ(DigestOf(fig5), (Digest{297, 0x16841ee4})) << fig5;
  EXPECT_EQ(DigestOf(drill), (Digest{144, 0x587a3e69})) << drill;
  EXPECT_EQ(DigestOf(fig6), (Digest{660, 0xcd6a76da})) << fig6;
}

}  // namespace
}  // namespace ddgms::report
