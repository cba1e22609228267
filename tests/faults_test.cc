// Fault-tolerance tests: the fault-injection registry, and lenient
// (row-quarantine) loading through ingestion, ETL, the star-schema
// build and the DdDgms facade, including what a rejected acquisition
// leaves behind.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <ostream>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/faults.h"
#include "common/quarantine.h"
#include "core/dd_dgms.h"
#include "discri/cohort.h"
#include "discri/model.h"
#include "etl/pipeline.h"
#include "table/table.h"
#include "warehouse/warehouse.h"

namespace ddgms {
namespace {

// Every test starts and ends with an inert registry so fault state
// cannot leak between tests (the registry is process-global).
class FaultsTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().Reset(); }
  void TearDown() override { FaultRegistry::Global().Reset(); }
};

// A clean extract: header + 4 rows, all parseable.
const char kCleanCsv[] =
    "PatientId,VisitDate,Age,Gender,FBG\n"
    "P1,2003-01-01,50,F,5.0\n"
    "P2,2003-02-01,61,M,6.5\n"
    "P3,2003-03-01,47,F,7.2\n"
    "P4,2003-04-01,58,M,5.9\n";

// The same extract with three corrupted rows: a ragged row (record 3),
// an unparseable Age (record 5), and an unterminated quote at EOF
// (record 7). Today this CSV cannot be loaded at all in strict mode.
const char kCorruptCsv[] =
    "PatientId,VisitDate,Age,Gender,FBG\n"
    "P1,2003-01-01,50,F,5.0\n"
    "P2,2003-02-01,61,M\n"
    "P3,2003-03-01,forty,F,7.2\n"
    "P4,2003-04-01,58,M,5.9\n"
    "P5,2003-05-01,52,F,6.1\n"
    "\"P6,2003-06-01,49,F,5.5\n";

etl::TransformPipeline MakePipeline() {
  etl::TransformPipeline pipeline;
  pipeline.AddCustomStep(etl::DeriveYearStep("VisitDate", "VisitYear"));
  return pipeline;
}

// A transient-outage plan: fail the first `fail_first` hits with
// kDataLoss, then heal.
FaultPlan TransientDataLoss(size_t fail_first) {
  FaultPlan plan;
  plan.code = StatusCode::kDataLoss;
  plan.fail_first = fail_first;
  return plan;
}

warehouse::StarSchemaDef MakeSchemaDef() {
  warehouse::StarSchemaDef def;
  def.fact_name = "Screenings";
  def.measures = {{"FBG", "FBG"}};
  warehouse::DimensionDef patient;
  patient.name = "Patient";
  patient.attributes = {"PatientId", "Gender"};
  def.dimensions = {patient};
  return def;
}

// --------------------------------------------------- FaultRegistry

TEST_F(FaultsTest, DisabledRegistryInjectsNothing) {
  EXPECT_FALSE(FaultRegistry::Global().enabled());
  auto table = Table::FromCsv(kCleanCsv);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(FaultRegistry::Global().SeenPoints().empty());
}

TEST_F(FaultsTest, FailFirstScheduleFiresThenHeals) {
  FaultRegistry& reg = FaultRegistry::Global();
  FaultPlan plan;
  plan.code = StatusCode::kDataLoss;
  plan.fail_first = 2;
  reg.Arm("test.point", plan);
  EXPECT_TRUE(reg.OnHit("test.point").IsDataLoss());
  EXPECT_TRUE(reg.OnHit("test.point").IsDataLoss());
  EXPECT_TRUE(reg.OnHit("test.point").ok());
  EXPECT_EQ(reg.hits("test.point"), 3u);
  EXPECT_EQ(reg.injected("test.point"), 2u);
}

TEST_F(FaultsTest, EveryNthScheduleIsPeriodic) {
  FaultRegistry& reg = FaultRegistry::Global();
  FaultPlan plan;
  plan.every_n = 3;
  reg.Arm("test.periodic", plan);
  int injected = 0;
  for (int i = 0; i < 9; ++i) {
    if (!reg.OnHit("test.periodic").ok()) ++injected;
  }
  EXPECT_EQ(injected, 3);
}

TEST_F(FaultsTest, ProbabilityScheduleIsDeterministicPerSeed) {
  FaultRegistry& reg = FaultRegistry::Global();
  FaultPlan plan;
  plan.probability = 0.5;
  plan.seed = 7;
  auto run = [&] {
    reg.Reset();
    reg.Arm("test.prob", plan);
    std::vector<bool> fired;
    for (int i = 0; i < 32; ++i) fired.push_back(!reg.OnHit("test.prob").ok());
    return fired;
  };
  auto first = run();
  auto second = run();
  EXPECT_EQ(first, second);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
}

TEST_F(FaultsTest, ScopedFaultDisarmsOnDestruction) {
  {
    ScopedFault fault("csv.read_file", TransientDataLoss(0));
    // fail_first of 0 arms a plan that only observes.
  }
  // Disarmed: hitting the point injects nothing.
  EXPECT_TRUE(FaultRegistry::Global().OnHit("csv.read_file").ok());
}

// ----------------------------------------------- Lenient ingestion

TEST_F(FaultsTest, StrictModeStillFailsFastOnCorruptCsv) {
  // (c) Default behaviour is preserved: the first error aborts.
  auto table = Table::FromCsv(kCorruptCsv);
  EXPECT_FALSE(table.ok());
  EXPECT_TRUE(table.status().IsParseError());
}

TEST_F(FaultsTest, LenientModeQuarantinesCorruptRowsAndLoadsTheRest) {
  // (a) A load that fails today completes in lenient mode with every
  // bad row itemised.
  CsvReadOptions options;
  options.error_mode = ErrorMode::kLenient;
  QuarantineReport quarantine;
  options.quarantine = &quarantine;
  auto table = Table::FromCsv(kCorruptCsv, options);
  ASSERT_TRUE(table.ok()) << table.status();
  // 6 data records; the ragged row, the bad-Age row and the
  // unterminated-quote row are quarantined.
  EXPECT_EQ(table->num_rows(), 3u);
  EXPECT_EQ(quarantine.size(), 3u);
  EXPECT_EQ(quarantine.CountForStage("csv-parse"), 1u);   // open quote
  EXPECT_EQ(quarantine.CountForStage("csv-ingest"), 2u);  // ragged + Age

  // Rows are attributable: record numbers and offending fields.
  bool saw_ragged = false, saw_bad_age = false, saw_open_quote = false;
  for (const QuarantinedRow& row : quarantine.rows()) {
    if (row.row_number == 3) saw_ragged = true;
    if (row.row_number == 4) {
      saw_bad_age = true;
      EXPECT_EQ(row.field, "Age");
      EXPECT_TRUE(row.status.IsParseError());
    }
    if (row.row_number == 7) saw_open_quote = true;
  }
  EXPECT_TRUE(saw_ragged);
  EXPECT_TRUE(saw_bad_age);
  EXPECT_TRUE(saw_open_quote);

  // Majority inference kept Age numeric despite the corrupt field.
  auto age = table->ColumnByName("Age");
  ASSERT_TRUE(age.ok());
  EXPECT_EQ((*age)->type(), DataType::kInt64);
}

TEST_F(FaultsTest, LenientModeWithoutSinkStillSkipsBadRows) {
  CsvReadOptions options;
  options.error_mode = ErrorMode::kLenient;
  auto table = Table::FromCsv(kCorruptCsv, options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 3u);
}

// --------------------------------------------- Lenient ETL pipeline

TEST_F(FaultsTest, PipelineLenientModeQuarantinesFailingRows) {
  auto table = Table::FromCsv(kCleanCsv);
  ASSERT_TRUE(table.ok());
  etl::TransformPipeline pipeline;
  // A validation step that rejects the whole batch when any row has
  // FBG > 7 (standing in for an externally enforced constraint).
  pipeline.AddCustomStep([](Table* t) -> Status {
    auto fbg = t->ColumnByName("FBG");
    if (!fbg.ok()) return fbg.status();
    for (size_t i = 0; i < (*fbg)->size(); ++i) {
      if (!(*fbg)->IsNull(i) && (*fbg)->DoubleAt(i) > 7.0) {
        return Status::OutOfRange("implausible FBG");
      }
    }
    return Status::OK();
  });

  Table strict_copy = *table;
  EXPECT_FALSE(pipeline.Run(&strict_copy).ok());  // strict: aborts

  etl::PipelineRunOptions options;
  options.error_mode = ErrorMode::kLenient;
  auto report = pipeline.Run(&table.value(), options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(table->num_rows(), 3u);  // P3 (FBG 7.2) quarantined
  EXPECT_EQ(report->quarantine.size(), 1u);
  EXPECT_EQ(report->quarantine.CountForStage("etl:custom 1"), 1u);
  EXPECT_TRUE(report->quarantine.rows()[0].status.IsOutOfRange());
}

TEST_F(FaultsTest, PipelineStepLevelFailureStillFailsInLenientMode) {
  auto table = Table::FromCsv(kCleanCsv);
  ASSERT_TRUE(table.ok());
  etl::TransformPipeline pipeline;
  pipeline.AddCustomStep(
      etl::DeriveYearStep("NoSuchColumn", "VisitYear"));
  etl::PipelineRunOptions options;
  options.error_mode = ErrorMode::kLenient;
  // No individual row explains a missing column: surface the error.
  EXPECT_FALSE(pipeline.Run(&table.value(), options).ok());
}

// ------------------------------------------ Lenient star-schema build

TEST_F(FaultsTest, StarSchemaLenientModeQuarantinesNullDimensionRefs) {
  const char* csv =
      "PatientId,VisitDate,Age,Gender,FBG\n"
      "P1,2003-01-01,50,F,5.0\n"
      ",2003-02-01,61,,6.5\n"  // all-null Patient tuple: dangling ref
      "P3,2003-03-01,,,7.2\n";  // null Gender only: still a member
  auto table = Table::FromCsv(csv);
  ASSERT_TRUE(table.ok());

  // Strict behaviour unchanged: null tuples become members.
  warehouse::StarSchemaBuilder builder(MakeSchemaDef());
  auto strict_wh = builder.Build(*table);
  ASSERT_TRUE(strict_wh.ok());
  EXPECT_EQ(strict_wh->num_fact_rows(), 3u);

  warehouse::BuildOptions options;
  options.error_mode = ErrorMode::kLenient;
  QuarantineReport quarantine;
  options.quarantine = &quarantine;
  auto lenient_wh = builder.Build(*table, options);
  ASSERT_TRUE(lenient_wh.ok()) << lenient_wh.status();
  // Row 2 (all attributes null) is quarantined; row 3 (only Gender
  // null) still identifies a member and is kept.
  EXPECT_EQ(lenient_wh->num_fact_rows(), 2u);
  ASSERT_EQ(quarantine.size(), 1u);
  EXPECT_EQ(quarantine.rows()[0].stage, "star-schema");
  EXPECT_EQ(quarantine.rows()[0].row_number, 2u);
  EXPECT_EQ(quarantine.rows()[0].field, "Patient");
  EXPECT_TRUE(lenient_wh->CheckIntegrity().ok);
}

TEST_F(FaultsTest, StarSchemaQuarantinedRowMintsNoMember) {
  // Row 2's Patient tuple is all null, and it is the only row of its
  // visit date: the quarantine runs before any member is minted, so
  // that date is no member of Visit, which precedes Patient.
  const char* csv =
      "PatientId,VisitDate,Gender,FBG\n"
      "P1,2003-01-01,F,5.0\n"
      ",2003-02-01,,6.5\n"
      "P3,2003-03-01,M,7.2\n";
  auto table = Table::FromCsv(csv);
  ASSERT_TRUE(table.ok());
  warehouse::StarSchemaDef def = MakeSchemaDef();
  warehouse::DimensionDef visit;
  visit.name = "Visit";
  visit.attributes = {"VisitDate"};
  def.dimensions.insert(def.dimensions.begin(), visit);

  warehouse::BuildOptions options;
  options.error_mode = ErrorMode::kLenient;
  QuarantineReport quarantine;
  options.quarantine = &quarantine;
  auto wh = warehouse::StarSchemaBuilder(def).Build(*table, options);
  ASSERT_TRUE(wh.ok()) << wh.status();
  EXPECT_EQ(wh->num_fact_rows(), 2u);
  ASSERT_EQ(quarantine.size(), 1u);
  EXPECT_EQ(quarantine.rows()[0].row_number, 2u);
  EXPECT_EQ(quarantine.rows()[0].field, "Patient");
  for (const char* name : {"Visit", "Patient"}) {
    auto dim = wh->dimension(name);
    ASSERT_TRUE(dim.ok());
    EXPECT_EQ((*dim)->num_members(), 2u) << name;
  }
  EXPECT_TRUE(wh->CheckIntegrity().ok);
}

// -------------------------------------------------- DdDgms end-to-end

TEST_F(FaultsTest, LenientBuildItemisesEveryStageAndFeedsTheSink) {
  // A corrupted extract loaded leniently, as the shell's --lenient
  // does: the build completes, and its report and the sink itemise the
  // ingestion-stage rows the caller handed over.
  QuarantineReport ingest;
  CsvReadOptions csv_options;
  csv_options.error_mode = ErrorMode::kLenient;
  csv_options.quarantine = &ingest;
  auto raw = Table::FromCsv(kCorruptCsv, csv_options);
  ASSERT_TRUE(raw.ok()) << raw.status();

  core::RobustnessOptions robustness;
  robustness.error_mode = ErrorMode::kLenient;
  QuarantineReport sink;
  robustness.quarantine_sink = &sink;
  auto dgms = core::DdDgms::Build(std::move(raw).value(), MakePipeline(),
                                  MakeSchemaDef(), robustness,
                                  std::move(ingest));
  ASSERT_TRUE(dgms.ok()) << dgms.status();
  EXPECT_EQ(dgms->warehouse().num_fact_rows(), 3u);

  const QuarantineReport& report = dgms->transform_report().quarantine;
  EXPECT_EQ(report.size(), 3u);
  EXPECT_EQ(sink.size(), 3u);
  // The merged report surfaces through TransformReport::ToString().
  std::string text = dgms->transform_report().ToString();
  EXPECT_NE(text.find("quarantined 3 rows"), std::string::npos);
  EXPECT_NE(text.find("csv-parse"), std::string::npos);
  EXPECT_NE(text.find("csv-ingest"), std::string::npos);
}

TEST_F(FaultsTest, AcquireDataKeepsRobustnessAndAccumulatesSink) {
  // A new season arrives twice with an anonymous row (Patient tuple all
  // null); each lenient acquisition quarantines it at the star-schema
  // stage instead of aborting, and the sink counts each such row once,
  // with durable storage or without.
  auto base = Table::FromCsv(kCleanCsv);
  auto batch = Table::FromCsv(
      "PatientId,VisitDate,Age,Gender,FBG\n"
      ",2004-01-01,70,,6.0\n");
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(batch.ok());
  const std::string dir = testing::TempDir() + "/ddgms_acquire_sink";
  for (const bool durable : {false, true}) {
    SCOPED_TRACE(durable ? "durable" : "rebuilt");
    core::RobustnessOptions robustness;
    robustness.error_mode = ErrorMode::kLenient;
    QuarantineReport sink;
    robustness.quarantine_sink = &sink;
    auto dgms = core::DdDgms::Build(*base, MakePipeline(), MakeSchemaDef(),
                                    robustness);
    ASSERT_TRUE(dgms.ok()) << dgms.status();
    EXPECT_TRUE(sink.empty());
    if (durable) {
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
      warehouse::DurabilityOptions fast;
      fast.sync = false;
      ASSERT_TRUE(dgms->AttachDurableStorage(dir, fast).ok());
    }
    for (size_t acquired = 1; acquired <= 2; ++acquired) {
      ASSERT_TRUE(dgms->AcquireData(*batch).ok());
      EXPECT_EQ(dgms->warehouse().num_fact_rows(), 4u);
      EXPECT_EQ(
          dgms->transform_report().quarantine.CountForStage("star-schema"),
          acquired);
      EXPECT_EQ(sink.CountForStage("star-schema"), acquired);
      EXPECT_EQ(sink.size(), acquired);
    }
  }
}

// What a lenient facade holds after an acquisition: fact rows, members
// per dimension, and rows quarantined at the star-schema stage.
struct Acquired {
  size_t facts = 0;
  std::vector<size_t> members;
  size_t quarantined = 0;

  bool operator==(const Acquired&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Acquired& a) {
  os << a.facts << " facts, members";
  for (size_t m : a.members) os << " " << m;
  return os << ", " << a.quarantined << " quarantined";
}

Acquired AcquiredBy(const core::DdDgms& dgms) {
  Acquired a;
  a.facts = dgms.warehouse().num_fact_rows();
  for (const warehouse::Dimension& dim : dgms.warehouse().dimensions()) {
    a.members.push_back(dim.num_members());
  }
  a.quarantined =
      dgms.transform_report().quarantine.CountForStage("star-schema");
  return a;
}

TEST_F(FaultsTest, LenientAcquisitionQuarantinesAsARebuildDoes) {
  // A batch whose only row has an all-null Patient tuple: the rebuild
  // without storage quarantines it, and so must the journaled append,
  // both on the facade that attached the store and on one loaded from
  // it.
  auto base = Table::FromCsv(
      "PatientId,VisitDate,Gender,FBG\n"
      "P1,2003-01-01,F,5.0\n"
      "P2,2003-02-01,M,6.5\n");
  auto batch = Table::FromCsv(
      "PatientId,VisitDate,Gender,FBG\n"
      ",2004-01-01,,6.0\n");
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(batch.ok());
  core::RobustnessOptions lenient;
  lenient.error_mode = ErrorMode::kLenient;
  auto build = [&] {
    return core::DdDgms::Build(*base, MakePipeline(), MakeSchemaDef(),
                               lenient);
  };

  auto rebuilt = build();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  ASSERT_TRUE(rebuilt->AcquireData(*batch).ok());
  const Acquired want = AcquiredBy(*rebuilt);
  EXPECT_EQ(want, (Acquired{2, {2}, 1}));

  const std::string dir = testing::TempDir() + "/ddgms_lenient_acquire";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  warehouse::DurabilityOptions fast;
  fast.sync = false;
  auto durable = build();
  ASSERT_TRUE(durable.ok()) << durable.status();
  ASSERT_TRUE(durable->AttachDurableStorage(dir, fast).ok());
  ASSERT_TRUE(durable->AcquireData(*batch).ok());
  EXPECT_EQ(AcquiredBy(*durable), want);

  // The journal holds no row the warehouse did not take, and the
  // loaded facade quarantines the batch again.
  auto loaded = core::DdDgms::LoadDurable(dir, MakePipeline(), lenient, fast);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(AcquiredBy(*loaded), (Acquired{2, {2}, 0}));
  ASSERT_TRUE(loaded->AcquireData(*batch).ok());
  EXPECT_EQ(AcquiredBy(*loaded), want);
}

TEST_F(FaultsTest, RejectedAcquisitionIsNotAppliedLater) {
  // A batch a rebuild rejects, at its first fault point or at the
  // star-schema build after the pipeline ran, leaves the facade like
  // one that never saw it, and the next acquisition adds only its own
  // rows: 142 facts and 17 more, not 17 twice.
  discri::CohortOptions options;
  options.num_patients = 50;
  options.seed = 7;
  auto base = discri::GenerateCohort(options);
  options.seed = 8;
  auto more = discri::GenerateCohort(options);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(more.ok());
  std::vector<size_t> first(17);
  std::vector<size_t> second(17);
  std::iota(first.begin(), first.end(), 0);
  std::iota(second.begin(), second.end(), 17);
  const Table rejected_batch = more->Take(first);
  const Table next_batch = more->Take(second);
  auto build = [&] {
    return core::DdDgms::Build(*base, discri::MakeDiscriPipeline(),
                               discri::MakeDiscriSchemaDef());
  };
  for (const char* point : {"core.rebuild", "warehouse.build"}) {
    SCOPED_TRACE(point);
    FaultRegistry::Global().Reset();  // fail_first counts from here
    auto never = build();
    auto rejected = build();
    ASSERT_TRUE(never.ok()) << never.status();
    ASSERT_TRUE(rejected.ok()) << rejected.status();
    EXPECT_EQ(AcquiredBy(*never).facts, 142u);
    {
      ScopedFault fault(point, TransientDataLoss(1));
      EXPECT_TRUE(rejected->AcquireData(rejected_batch).IsDataLoss());
    }
    EXPECT_EQ(AcquiredBy(*rejected), AcquiredBy(*never));
    EXPECT_EQ(rejected->transformed().num_rows(),
              never->transformed().num_rows());

    ASSERT_TRUE(never->AcquireData(next_batch).ok());
    ASSERT_TRUE(rejected->AcquireData(next_batch).ok());
    EXPECT_EQ(AcquiredBy(*never).facts, 159u);
    EXPECT_EQ(AcquiredBy(*rejected), AcquiredBy(*never));
    EXPECT_EQ(rejected->transformed().num_rows(),
              never->transformed().num_rows());
  }
}

// ------------------------------------- Every registered fault point

// Discovers every injection point a lenient load and build passes
// through (observe mode), then arms each one with a one-shot transient
// fault: the attempt either fails with the injected Status or completes
// with quarantine, and the caller's next attempt builds every row.
TEST_F(FaultsTest, EveryRegisteredPointEitherRetriesOrQuarantines) {
  core::RobustnessOptions robustness;
  robustness.error_mode = ErrorMode::kLenient;
  auto build = [&]() -> Result<core::DdDgms> {
    QuarantineReport ingest;
    CsvReadOptions csv_options;
    csv_options.error_mode = robustness.error_mode;
    csv_options.quarantine = &ingest;
    DDGMS_ASSIGN_OR_RETURN(Table raw, Table::FromCsv(kCleanCsv, csv_options));
    return core::DdDgms::Build(std::move(raw), MakePipeline(),
                               MakeSchemaDef(), robustness,
                               std::move(ingest));
  };

  // Pass 1: observe which points the flow exercises.
  FaultRegistry::Global().Enable();
  ASSERT_TRUE(build().ok());
  std::vector<std::string> points;
  for (const std::string& point : FaultRegistry::Global().SeenPoints()) {
    if (FaultRegistry::Global().hits(point) > 0) points.push_back(point);
  }
  FaultRegistry::Global().Reset();
  // The flow must cross all architectural layers.
  ASSERT_GE(points.size(), 5u) << "expected points in the table, etl, "
                                  "warehouse and core layers";

  // Pass 2: one transient fault per point.
  for (const std::string& point : points) {
    SCOPED_TRACE(point);
    FaultRegistry::Global().Reset();
    FaultRegistry::Global().Arm(point, TransientDataLoss(1));
    auto attempt = build();
    EXPECT_EQ(FaultRegistry::Global().injected(point), 1u) << "never fired";
    if (attempt.ok()) {
      EXPECT_FALSE(attempt->transform_report().quarantine.empty());
    } else {
      EXPECT_TRUE(attempt.status().IsDataLoss()) << attempt.status();
      EXPECT_NE(attempt.status().message().find(point), std::string::npos)
          << attempt.status();
    }
    auto next = build();
    ASSERT_TRUE(next.ok()) << next.status();
    EXPECT_EQ(next->warehouse().num_fact_rows(), 4u);
  }
  FaultRegistry::Global().Reset();
}

}  // namespace
}  // namespace ddgms
