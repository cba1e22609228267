// Flight-recorder event log tests: disabled-path inertness, level
// filtering, typed field rendering, ring eviction/seq ordering, sinks,
// span correlation (including the MDX acceptance criterion: an event
// emitted inside an MDX execution carries the enclosing mdx.execute
// span id), the slow-query log, and multi-threaded writers.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/log.h"
#include "common/trace.h"
#include "discri/cohort.h"
#include "discri/model.h"
#include "mdx/executor.h"
#include "table/table.h"
#include "warehouse/warehouse.h"

namespace ddgms {
namespace {

constexpr size_t kDefaultCapacity = 2048;
constexpr double kDefaultSlowQueryUs = 250000.0;

/// Captures every record handed to the sink.
class CapturingSink : public LogSink {
 public:
  explicit CapturingSink(std::vector<LogRecord>* out) : out_(out) {}
  void Write(const LogRecord& record) override { out_->push_back(record); }

 private:
  std::vector<LogRecord>* out_;
};

class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EventLog::Global().Clear();
    EventLog::Global().ClearSinks();
    EventLog::Global().set_capacity(kDefaultCapacity);
    EventLog::Global().set_min_level(LogLevel::kDebug);
    EventLog::Enable();
    TraceCollector::Global().Clear();
  }
  void TearDown() override {
    EventLog::Disable();
    EventLog::Global().Clear();
    EventLog::Global().ClearSinks();
    EventLog::Global().set_capacity(kDefaultCapacity);
    EventLog::Global().set_min_level(LogLevel::kInfo);
    TraceCollector::Disable();
    TraceCollector::Global().Clear();
    mdx::MdxExecutor::SetSlowQueryThresholdMicros(kDefaultSlowQueryUs);
  }

  static const LogRecord* FindEvent(const std::vector<LogRecord>& records,
                                    const std::string& event) {
    for (const LogRecord& r : records) {
      if (r.event == event) return &r;
    }
    return nullptr;
  }

  /// A small clinical warehouse for the MDX-facing tests.
  static warehouse::Warehouse BuildMedicalWarehouse() {
    discri::CohortOptions opt;
    opt.num_patients = 60;
    opt.seed = 20130408;
    auto raw = discri::GenerateCohort(opt);
    EXPECT_TRUE(raw.ok()) << raw.status().ToString();
    etl::TransformPipeline pipeline = discri::MakeDiscriPipeline();
    auto report = pipeline.Run(&raw.value());
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    warehouse::StarSchemaBuilder builder(discri::MakeDiscriSchemaDef());
    auto wh = builder.Build(raw.value());
    EXPECT_TRUE(wh.ok()) << wh.status().ToString();
    return std::move(wh).value();
  }
};

TEST_F(LogTest, LevelNamesRoundTrip) {
  for (LogLevel level : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                         LogLevel::kError}) {
    auto parsed = LogLevelFromName(LogLevelName(level));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_TRUE(LogLevelFromName("WARN").ok());  // case-insensitive
  EXPECT_FALSE(LogLevelFromName("verbose").ok());
}

TEST_F(LogTest, DisabledLogIsInert) {
  EventLog::Disable();
  DDGMS_LOG_INFO("t.event").With("k", 1).Message("dropped");
  LogEvent ev(LogLevel::kError, "t.direct");
  EXPECT_FALSE(ev.active());
  EXPECT_EQ(EventLog::Global().size(), 0u);
}

TEST_F(LogTest, MinLevelFiltersAtTheCallSite) {
  EventLog::Global().set_min_level(LogLevel::kWarn);
  DDGMS_LOG_DEBUG("t.debug");
  DDGMS_LOG_INFO("t.info");
  DDGMS_LOG_WARN("t.warn");
  DDGMS_LOG_ERROR("t.error");
  std::vector<LogRecord> records = EventLog::Global().Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].event, "t.warn");
  EXPECT_EQ(records[1].event, "t.error");
}

TEST_F(LogTest, RecordCapturesTypedFieldsAndRenders) {
  DDGMS_LOG_WARN("t.typed")
      .Message("hello \"world\"")
      .With("s", "a\nb")
      .With("i", 42)
      .With("d", 1.5)
      .With("b", true);
  std::vector<LogRecord> records = EventLog::Global().Snapshot();
  ASSERT_EQ(records.size(), 1u);
  const LogRecord& r = records[0];
  EXPECT_GT(r.seq, 0u);
  EXPECT_EQ(r.level, LogLevel::kWarn);
  ASSERT_EQ(r.fields.size(), 4u);
  EXPECT_EQ(r.fields[1].second.ToString(), "42");
  EXPECT_FALSE(r.fields[1].second.is_string());

  const std::string text = r.ToString();
  EXPECT_NE(text.find("[warn ]"), std::string::npos) << text;
  EXPECT_NE(text.find("t.typed"), std::string::npos);
  EXPECT_NE(text.find("i=42"), std::string::npos);

  const std::string json = r.ToJson();
  EXPECT_NE(json.find("\"level\":\"warn\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"event\":\"t.typed\""), std::string::npos);
  EXPECT_NE(json.find("\"message\":\"hello \\\"world\\\"\""),
            std::string::npos);
  EXPECT_NE(json.find("\"s\":\"a\\nb\""), std::string::npos);
  EXPECT_NE(json.find("\"i\":42"), std::string::npos);
  EXPECT_NE(json.find("\"b\":true"), std::string::npos);
}

TEST_F(LogTest, RingEvictsOldestAndCountsDropped) {
  EventLog::Global().set_capacity(8);
  for (int i = 0; i < 20; ++i) {
    DDGMS_LOG_INFO("t.ring").With("i", i);
  }
  EventLog& log = EventLog::Global();
  EXPECT_EQ(log.size(), 8u);
  EXPECT_EQ(log.dropped(), 12u);
  std::vector<LogRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 8u);
  // Ring keeps the newest records, in seq order, contiguous.
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, records[i - 1].seq + 1);
  }
  EXPECT_EQ(records.back().fields[0].second.ToString(), "19");
}

TEST_F(LogTest, ShrinkingCapacityKeepsNewest) {
  for (int i = 0; i < 10; ++i) {
    DDGMS_LOG_INFO("t.shrink").With("i", i);
  }
  EventLog::Global().set_capacity(3);
  std::vector<LogRecord> records = EventLog::Global().Snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].fields[0].second.ToString(), "7");
  EXPECT_EQ(records[2].fields[0].second.ToString(), "9");
}

TEST_F(LogTest, SinksReceiveEveryRecord) {
  std::vector<LogRecord> seen;
  EventLog::Global().AddSink(std::make_unique<CapturingSink>(&seen));
  EventLog::Global().set_capacity(2);  // sinks see past the ring
  for (int i = 0; i < 6; ++i) DDGMS_LOG_INFO("t.sink").With("i", i);
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(EventLog::Global().size(), 2u);
}

TEST_F(LogTest, JsonlFileSinkAppendsWellFormedLines) {
  const std::string path = testing::TempDir() + "/ddgms_events.jsonl";
  std::remove(path.c_str());
  auto sink = JsonlFileLogSink::Open(path);
  ASSERT_TRUE(sink.ok()) << sink.status().ToString();
  EventLog::Global().AddSink(std::move(sink).value());
  DDGMS_LOG_INFO("t.jsonl").With("k", 7);
  EventLog::Global().ClearSinks();  // closes + flushes the file

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buffer[512] = {};
  ASSERT_NE(std::fgets(buffer, sizeof(buffer), f), nullptr);
  std::fclose(f);
  std::string line(buffer);
  EXPECT_EQ(line.find("{\"seq\":"), 0u) << line;
  EXPECT_NE(line.find("\"event\":\"t.jsonl\""), std::string::npos);
  EXPECT_NE(line.find("\"k\":7"), std::string::npos);
  EXPECT_EQ(line.back(), '\n');
  std::remove(path.c_str());
}

TEST_F(LogTest, EventsCarryTheEnclosingSpanIds) {
  TraceCollector::Enable();
  DDGMS_LOG_INFO("t.outside");  // no span open
  uint64_t outer_id = 0;
  uint64_t inner_id = 0;
  {
    TraceSpan outer("t.outer");
    outer_id = outer.id();
    DDGMS_LOG_INFO("t.in_outer");
    {
      TraceSpan inner("t.inner");
      inner_id = inner.id();
      DDGMS_LOG_INFO("t.in_inner");
    }
    DDGMS_LOG_INFO("t.back_in_outer");
  }
  std::vector<LogRecord> records = EventLog::Global().Snapshot();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].span_id, 0u);
  EXPECT_EQ(records[0].parent_span_id, 0u);
  EXPECT_EQ(records[1].span_id, outer_id);
  EXPECT_EQ(records[1].parent_span_id, 0u);
  EXPECT_EQ(records[2].span_id, inner_id);
  EXPECT_EQ(records[2].parent_span_id, outer_id);
  // After the inner span closes the thread-local stack must unwind.
  EXPECT_EQ(records[3].span_id, outer_id);
  EXPECT_EQ(records[3].parent_span_id, 0u);
}

TEST_F(LogTest, MdxExecutionEventCarriesEnclosingExecuteSpanId) {
  // Acceptance criterion: the "mdx.execute" record logged during an
  // MDX execution is stamped with the id of the enclosing mdx.execute
  // trace span.
  TraceCollector::Enable();
  warehouse::Warehouse wh = BuildMedicalWarehouse();
  mdx::MdxExecutor executor(&wh);
  auto result = executor.Execute(
      "SELECT { [Measures].[Count] } ON COLUMNS FROM [MedicalMeasures]");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::vector<LogRecord> records = EventLog::Global().Snapshot();
  const LogRecord* event = FindEvent(records, "mdx.execute");
  ASSERT_NE(event, nullptr);
  ASSERT_NE(event->span_id, 0u);

  uint64_t exec_span_id = 0;
  for (const SpanRecord& span : TraceCollector::Global().Snapshot()) {
    if (span.name == "mdx.execute") exec_span_id = span.id;
  }
  ASSERT_NE(exec_span_id, 0u);
  EXPECT_EQ(event->span_id, exec_span_id);
}

TEST_F(LogTest, SlowQueryThresholdLogsPerStageProfile) {
  warehouse::Warehouse wh = BuildMedicalWarehouse();
  mdx::MdxExecutor executor(&wh);

  // Default threshold: a fast query logs mdx.execute but not
  // mdx.slow_query.
  auto fast = executor.Execute(
      "SELECT { [Measures].[Count] } ON COLUMNS FROM [MedicalMeasures]");
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  const std::vector<LogRecord> before = EventLog::Global().Snapshot();
  EXPECT_EQ(FindEvent(before, "mdx.slow_query"), nullptr);

  // Threshold 0: everything is a slow query.
  mdx::MdxExecutor::SetSlowQueryThresholdMicros(0.0);
  auto slow = executor.Execute(
      "SELECT { [Measures].[Count] } ON COLUMNS FROM [MedicalMeasures]");
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  const std::vector<LogRecord> after = EventLog::Global().Snapshot();
  const LogRecord* record = FindEvent(after, "mdx.slow_query");
  ASSERT_NE(record, nullptr);

  // The record carries the per-stage MdxProfile timings.
  bool has_compile = false;
  bool has_execute = false;
  bool has_total = false;
  for (const auto& [key, value] : record->fields) {
    if (key == "compile_us") has_compile = true;
    if (key == "execute_us") has_execute = true;
    if (key == "total_us") has_total = true;
  }
  EXPECT_TRUE(has_compile);
  EXPECT_TRUE(has_execute);
  EXPECT_TRUE(has_total);
}

TEST_F(LogTest, ConcurrentWritersProduceNoTornRecords) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  constexpr size_t kCapacity = 256;
  EventLog::Global().set_capacity(kCapacity);
  // Seq numbers are process-monotonic (Clear() does not rewind them);
  // note where this test starts so eviction can be checked absolutely.
  DDGMS_LOG_INFO("t.mt.baseline");
  const uint64_t base_seq = EventLog::Global().Snapshot().back().seq;
  EventLog::Global().Clear();
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        DDGMS_LOG_INFO("t.mt").With("tid", t).With("i", i);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EventLog& log = EventLog::Global();
  const size_t total = static_cast<size_t>(kThreads) * kPerThread;
  EXPECT_EQ(log.size(), kCapacity);
  EXPECT_EQ(log.dropped(), total - kCapacity);

  std::vector<LogRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), kCapacity);
  for (size_t i = 0; i < records.size(); ++i) {
    const LogRecord& r = records[i];
    // No torn records: every field pair intact and in range.
    EXPECT_EQ(r.event, "t.mt");
    ASSERT_EQ(r.fields.size(), 2u);
    EXPECT_EQ(r.fields[0].first, "tid");
    EXPECT_EQ(r.fields[1].first, "i");
    // Correct eviction order: the ring holds the newest `kCapacity`
    // records with contiguous strictly-increasing seq numbers.
    if (i > 0) {
      EXPECT_EQ(r.seq, records[i - 1].seq + 1);
    }
  }
  EXPECT_EQ(records.back().seq, base_seq + total);
}

}  // namespace
}  // namespace ddgms
