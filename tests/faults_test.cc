// Fault-tolerance tests: the fault-injection registry, Retry with
// exponential backoff, flaky/retrying store connectors, and lenient
// (row-quarantine) loading through ingestion, ETL, the star-schema
// build and the DdDgms facade.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/faults.h"
#include "common/quarantine.h"
#include "core/dd_dgms.h"
#include "etl/pipeline.h"
#include "table/store.h"
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

// ------------------------------------------------------------- Retry

TEST_F(FaultsTest, RetryPolicyClassifiesCodes) {
  RetryPolicy policy;
  EXPECT_TRUE(policy.IsRetryable(Status::DataLoss("x")));
  EXPECT_TRUE(policy.IsRetryable(Status::Internal("x")));
  EXPECT_FALSE(policy.IsRetryable(Status::NotFound("x")));
  EXPECT_FALSE(policy.IsRetryable(Status::ParseError("x")));
  EXPECT_FALSE(policy.IsRetryable(Status::OK()));
}

TEST_F(FaultsTest, RetryPolicyBackoffIsExponentialAndCapped) {
  RetryPolicy policy;
  policy.base_delay_ms = 10.0;
  policy.backoff_factor = 2.0;
  policy.max_delay_ms = 50.0;
  EXPECT_DOUBLE_EQ(policy.DelayMsForRetry(1), 10.0);
  EXPECT_DOUBLE_EQ(policy.DelayMsForRetry(2), 20.0);
  EXPECT_DOUBLE_EQ(policy.DelayMsForRetry(3), 40.0);
  EXPECT_DOUBLE_EQ(policy.DelayMsForRetry(4), 50.0);  // capped
  EXPECT_DOUBLE_EQ(policy.DelayMsForRetry(10), 50.0);
  // Retry 0 and negative are degenerate but must stay within bounds.
  EXPECT_DOUBLE_EQ(policy.DelayMsForRetry(0), 10.0);
  EXPECT_GE(policy.DelayMsForRetry(1), 0.0);
  // A base above the cap is clamped from the first retry.
  policy.base_delay_ms = 500.0;
  EXPECT_DOUBLE_EQ(policy.DelayMsForRetry(1), 50.0);
}

TEST_F(FaultsTest, JitteredDelayStaysWithinBoundsAndIsDeterministic) {
  RetryPolicy policy;
  policy.base_delay_ms = 10.0;
  policy.backoff_factor = 2.0;
  policy.max_delay_ms = 50.0;
  policy.jitter_fraction = 0.5;

  // No jitter configured -> identical to the pure schedule.
  RetryPolicy plain = policy;
  plain.jitter_fraction = 0.0;
  Rng rng0(7);
  EXPECT_DOUBLE_EQ(plain.JitteredDelayMsForRetry(2, rng0), 20.0);

  // Every draw lands in [delay*(1-j), delay*(1+j)], clamped to the
  // policy's max.
  Rng rng1(7);
  for (int retry = 1; retry <= 6; ++retry) {
    const double pure = policy.DelayMsForRetry(retry);
    const double jittered = policy.JitteredDelayMsForRetry(retry, rng1);
    EXPECT_GE(jittered, pure * 0.5) << "retry " << retry;
    EXPECT_LE(jittered, std::min(pure * 1.5, policy.max_delay_ms))
        << "retry " << retry;
  }

  // Same seed, same sequence: retry storms are reproducible in tests.
  Rng a(11);
  Rng b(11);
  for (int retry = 1; retry <= 4; ++retry) {
    EXPECT_DOUBLE_EQ(policy.JitteredDelayMsForRetry(retry, a),
                     policy.JitteredDelayMsForRetry(retry, b));
  }
}

TEST_F(FaultsTest, RetryRespectsTotalDeadline) {
  // A deadline of 0 (default) means unlimited: all attempts run.
  int calls = 0;
  RetryPolicy unlimited;
  unlimited.max_attempts = 4;
  unlimited.base_delay_ms = 0.0;
  unlimited.max_delay_ms = 0.0;
  Status st = Retry(unlimited, [&] {
    ++calls;
    return Status::DataLoss("flaky");
  });
  EXPECT_TRUE(st.IsDataLoss());
  EXPECT_EQ(calls, 4);

  // A deadline smaller than the first backoff stops after one attempt:
  // Retry refuses to sleep into a blown budget and hands back the
  // transient error while the caller can still act on it.
  calls = 0;
  RetryPolicy tight;
  tight.max_attempts = 10;
  tight.base_delay_ms = 50.0;
  tight.total_deadline_ms = 1.0;
  RetryStats stats;
  st = Retry(tight, [&] {
    ++calls;
    return Status::DataLoss("flaky");
  }, &stats);
  EXPECT_TRUE(st.IsDataLoss());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_TRUE(stats.transient_failures.empty());

  // A roomy deadline changes nothing for a fast success.
  calls = 0;
  RetryPolicy roomy;
  roomy.max_attempts = 3;
  roomy.base_delay_ms = 0.0;
  roomy.total_deadline_ms = 60000.0;
  st = Retry(roomy, [&] {
    ++calls;
    return calls < 2 ? Status::DataLoss("flaky") : Status::OK();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 2);
}

TEST_F(FaultsTest, RetryAbsorbsTransientFailuresWithinBudget) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_delay_ms = 0.0;  // no sleeping in tests
  int calls = 0;
  RetryStats stats;
  Status st = Retry(
      policy,
      [&]() -> Status {
        ++calls;
        if (calls < 3) return Status::DataLoss("transient");
        return Status::OK();
      },
      &stats);
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.attempts, 3);
  ASSERT_EQ(stats.transient_failures.size(), 2u);
  EXPECT_TRUE(stats.transient_failures[0].IsDataLoss());
}

TEST_F(FaultsTest, RetryGivesUpAfterMaxAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.base_delay_ms = 0.0;
  int calls = 0;
  Status st = Retry(policy, [&]() -> Status {
    ++calls;
    return Status::Internal("always broken");
  });
  EXPECT_TRUE(st.IsInternal());
  EXPECT_EQ(calls, 2);
}

TEST_F(FaultsTest, RetryDoesNotRetryPermanentErrors) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_delay_ms = 0.0;
  int calls = 0;
  Result<int> r = Retry(policy, [&]() -> Result<int> {
    ++calls;
    return Status::NotFound("permanent");
  });
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(calls, 1);
}

TEST_F(FaultsTest, RetryWorksWithResultReturningFunctions) {
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.base_delay_ms = 0.0;
  int calls = 0;
  Result<int> r = Retry(policy, [&]() -> Result<int> {
    ++calls;
    if (calls == 1) return Status::DataLoss("blip");
    return 42;
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
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

// ------------------------------------------------- Store connectors

TEST_F(FaultsTest, FlakyStoreFailsDeterministicallyThenHeals) {
  MemoryStore memory;
  ASSERT_TRUE(memory.Store("extract.csv", kCleanCsv).ok());
  FlakyStoreOptions options;
  options.fail_first_fetches = 2;
  FlakyStore flaky(&memory, options);
  EXPECT_TRUE(flaky.Fetch("extract.csv").status().IsDataLoss());
  EXPECT_TRUE(flaky.Fetch("extract.csv").status().IsDataLoss());
  auto third = flaky.Fetch("extract.csv");
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(*third, kCleanCsv);
  EXPECT_EQ(flaky.fetches_attempted(), 3u);
  EXPECT_EQ(flaky.fetches_failed(), 2u);
}

TEST_F(FaultsTest, RetryingStoreAbsorbsFlakyFetches) {
  MemoryStore memory;
  ASSERT_TRUE(memory.Store("extract.csv", kCleanCsv).ok());
  FlakyStoreOptions options;
  options.fail_first_fetches = 2;
  FlakyStore flaky(&memory, options);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_delay_ms = 0.0;
  RetryingStore store(&flaky, policy);
  auto fetched = store.Fetch("extract.csv");
  ASSERT_TRUE(fetched.ok()) << fetched.status();
  EXPECT_EQ(store.last_stats().attempts, 3);
  EXPECT_EQ(store.last_stats().transient_failures.size(), 2u);
}

TEST_F(FaultsTest, RetryingStoreExhaustsBudgetOnPersistentFault) {
  MemoryStore memory;
  ASSERT_TRUE(memory.Store("extract.csv", kCleanCsv).ok());
  FlakyStoreOptions options;
  options.fail_first_fetches = 10;  // outlasts the budget
  FlakyStore flaky(&memory, options);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_delay_ms = 0.0;
  RetryingStore store(&flaky, policy);
  EXPECT_TRUE(store.Fetch("extract.csv").status().IsDataLoss());
  EXPECT_EQ(store.last_stats().attempts, 3);
}

TEST_F(FaultsTest, LoadTableFromStoreRetriesInjectedDataLoss) {
  MemoryStore memory;
  ASSERT_TRUE(memory.Store("extract.csv", kCleanCsv).ok());
  ScopedFault fault("store.fetch", TransientDataLoss(1));
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_delay_ms = 0.0;
  RetryStats stats;
  auto table =
      LoadTableFromStore(&memory, "extract.csv", {}, policy, &stats);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(table->num_rows(), 4u);
  EXPECT_EQ(stats.attempts, 2);
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

TEST_F(FaultsTest, BuildFromStoreAbsorbsTransientFaultAndQuarantines) {
  // (a) + (b) together: the connector loses the first fetch to an
  // injected kDataLoss fault AND the payload is corrupted; a lenient
  // build with a retry budget completes and itemises the bad rows.
  MemoryStore memory;
  ASSERT_TRUE(memory.Store("extract.csv", kCorruptCsv).ok());
  ScopedFault fault("store.fetch", TransientDataLoss(1));

  core::RobustnessOptions robustness;
  robustness.error_mode = ErrorMode::kLenient;
  robustness.retry.max_attempts = 3;
  robustness.retry.base_delay_ms = 0.0;
  QuarantineReport sink;
  robustness.quarantine_sink = &sink;

  auto dgms = core::DdDgms::BuildFromStore(&memory, "extract.csv", {},
                                           MakePipeline(), MakeSchemaDef(),
                                           robustness);
  ASSERT_TRUE(dgms.ok()) << dgms.status();
  EXPECT_EQ(FaultRegistry::Global().injected("store.fetch"), 1u);
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

TEST_F(FaultsTest, BuildFromStoreStrictModeFailsFastOnCorruptPayload) {
  MemoryStore memory;
  ASSERT_TRUE(memory.Store("extract.csv", kCorruptCsv).ok());
  auto dgms = core::DdDgms::BuildFromStore(
      &memory, "extract.csv", {}, MakePipeline(), MakeSchemaDef(), {});
  EXPECT_FALSE(dgms.ok());
  EXPECT_TRUE(dgms.status().IsParseError());
}

TEST_F(FaultsTest, BuildFromStorePersistentFaultExhaustsRetryBudget) {
  MemoryStore memory;
  ASSERT_TRUE(memory.Store("extract.csv", kCleanCsv).ok());
  ScopedFault fault("store.fetch", TransientDataLoss(99));
  core::RobustnessOptions robustness;
  robustness.retry.max_attempts = 3;
  robustness.retry.base_delay_ms = 0.0;
  auto dgms = core::DdDgms::BuildFromStore(&memory, "extract.csv", {},
                                           MakePipeline(), MakeSchemaDef(),
                                           robustness);
  EXPECT_TRUE(dgms.status().IsDataLoss());
  EXPECT_EQ(FaultRegistry::Global().hits("store.fetch"), 3u);
}

TEST_F(FaultsTest, AcquireDataKeepsRobustnessAndAccumulatesSink) {
  MemoryStore memory;
  ASSERT_TRUE(memory.Store("extract.csv", kCleanCsv).ok());
  core::RobustnessOptions robustness;
  robustness.error_mode = ErrorMode::kLenient;
  robustness.retry.base_delay_ms = 0.0;
  QuarantineReport sink;
  robustness.quarantine_sink = &sink;
  auto dgms = core::DdDgms::BuildFromStore(&memory, "extract.csv", {},
                                           MakePipeline(), MakeSchemaDef(),
                                           robustness);
  ASSERT_TRUE(dgms.ok()) << dgms.status();
  EXPECT_TRUE(sink.empty());

  // A new season arrives with an anonymous row (Patient tuple all
  // null); the lenient rebuild quarantines it at the star-schema
  // stage instead of aborting.
  auto batch = Table::FromCsv(
      "PatientId,VisitDate,Age,Gender,FBG\n"
      ",2004-01-01,70,,6.0\n");
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(dgms->AcquireData(*batch).ok());
  EXPECT_EQ(dgms->warehouse().num_fact_rows(), 4u);
  EXPECT_EQ(
      dgms->transform_report().quarantine.CountForStage("star-schema"),
      1u);
  EXPECT_EQ(sink.CountForStage("star-schema"), 1u);
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

// ------------------------------------- Every registered fault point

// Discovers every injection point the end-to-end ingestion flow passes
// through (observe mode), then arms each one with a one-shot transient
// fault and asserts the system as a whole survives: the fault is
// either absorbed by a retry or the load completes with quarantine.
TEST_F(FaultsTest, EveryRegisteredPointEitherRetriesOrQuarantines) {
  MemoryStore memory;
  ASSERT_TRUE(memory.Store("extract.csv", kCleanCsv).ok());
  core::RobustnessOptions robustness;
  robustness.error_mode = ErrorMode::kLenient;
  robustness.retry.max_attempts = 3;
  robustness.retry.base_delay_ms = 0.0;

  auto build = [&] {
    return core::DdDgms::BuildFromStore(&memory, "extract.csv", {},
                                        MakePipeline(), MakeSchemaDef(),
                                        robustness);
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
  ASSERT_GE(points.size(), 5u) << "expected points in store, table, etl, "
                                  "warehouse and core layers";

  // Pass 2: one transient fault per point; an outer retry (standing in
  // for the orchestration layer's policy) must always recover.
  RetryPolicy outer;
  outer.max_attempts = 2;
  outer.base_delay_ms = 0.0;
  for (const std::string& point : points) {
    FaultRegistry::Global().Reset();
    FaultPlan plan;
    plan.code = StatusCode::kDataLoss;
    plan.fail_first = 1;
    FaultRegistry::Global().Arm(point, plan);
    auto dgms = Retry(outer, build);
    EXPECT_TRUE(dgms.ok()) << "point '" << point
                           << "' not survivable: " << dgms.status();
    EXPECT_EQ(FaultRegistry::Global().injected(point), 1u)
        << "point '" << point << "' never fired";
    if (dgms.ok()) {
      EXPECT_EQ(dgms->warehouse().num_fact_rows(), 4u);
    }
  }
  FaultRegistry::Global().Reset();
}

}  // namespace
}  // namespace ddgms
