// AnomalyScanner tests: robust-z scoring of series read from the
// metrics registry, one point per scan — injected gauge and histogram
// spikes, counter growth, flat/short series guards, the bounded
// history, the end-to-end "injected MDX latency spike is flagged"
// acceptance path, and the scan-thread lifecycle.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/dd_dgms.h"
#include "discri/cohort.h"
#include "discri/model.h"
#include "mdx/executor.h"
#include "server/anomaly.h"

namespace ddgms {
namespace {

using server::AnomalyFinding;
using server::AnomalyScanner;
using server::AnomalyScannerOptions;

class AnomalyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().ResetValues();
    MetricsRegistry::Enable();
    TraceCollector::Global().Clear();
    TraceCollector::Enable();
    EventLog::Global().Clear();
    EventLog::Enable();
  }
  void TearDown() override {
    mdx::MdxExecutor::SetExecuteDelayMicrosForTesting(0);
    TraceCollector::Disable();
    TraceCollector::Global().Clear();
    EventLog::Disable();
    EventLog::Global().Clear();
    MetricsRegistry::Disable();
    MetricsRegistry::Global().ResetValues();
  }

  /// Options watching one instrument as target "t_signal".
  static AnomalyScannerOptions Watch(const std::string& instrument) {
    AnomalyScannerOptions options;
    options.targets.push_back({"t_signal", instrument});
    return options;
  }

  /// Observes `value` into histogram `name`, then scans.
  static std::vector<AnomalyFinding> ObserveAndScan(
      AnomalyScanner* scanner, const std::string& name, double value) {
    MetricsRegistry::Global().GetHistogram(name).Observe(value);
    return scanner->ScanOnce();
  }

  /// Eight scans of histogram `name`, one observation each, with mild
  /// jitter around 100: the first scan records the reading, the other
  /// seven add points.
  static void ScanBaseline(AnomalyScanner* scanner,
                           const std::string& name) {
    const double levels[] = {100, 102, 98, 101, 99, 103, 97, 100};
    for (double level : levels) {
      EXPECT_TRUE(ObserveAndScan(scanner, name, level).empty());
    }
  }
};

TEST_F(AnomalyTest, InjectedGaugeSpikeIsFlagged) {
  AnomalyScanner scanner(Watch("t.anomaly.signal"));
  // A gauge's point is its change since the last scan.
  const double levels[] = {100, 102, 98, 101, 99, 103, 97, 100};
  for (double level : levels) {
    DDGMS_METRIC_GAUGE_SET("t.anomaly.signal", level);
    ASSERT_TRUE(scanner.ScanOnce().empty());
  }

  DDGMS_METRIC_GAUGE_SET("t.anomaly.signal", 1000.0);
  const std::vector<AnomalyFinding> found = scanner.ScanOnce();
  ASSERT_EQ(found.size(), 1u);
  const AnomalyFinding& f = found[0];
  EXPECT_EQ(f.target, "t_signal");
  EXPECT_DOUBLE_EQ(f.value, 900.0);  // the change, not the level
  EXPECT_NEAR(f.median, 0.0, 5.0);
  EXPECT_GT(f.mad, 0.0);
  EXPECT_GE(f.robust_z, AnomalyScanner::kZThreshold);
  EXPECT_EQ(static_cast<uint64_t>(f.scan), scanner.scans());

  // Surfaced everywhere: the recent list, /alertz JSON, the flight
  // recorder and the detections counter.
  EXPECT_EQ(scanner.findings().size(), 1u);
  EXPECT_NE(scanner.ToJson().find("t_signal"), std::string::npos);
  EXPECT_NE(EventLog::Global().ToJsonl().find("anomaly.detected"),
            std::string::npos);
  EXPECT_EQ(MetricsRegistry::Global().Snapshot().counter(
                "ddgms.anomaly.detections"),
            1u);
  EXPECT_EQ(scanner.scans(), 9u);
}

TEST_F(AnomalyTest, RecoveredSignalStopsFlagging) {
  AnomalyScanner scanner(Watch("t.anomaly.recover_us"));
  ScanBaseline(&scanner, "t.anomaly.recover_us");

  // A histogram's point is the mean of the observations since the last
  // scan: the spike is flagged once, the recovered mean is not.
  const std::vector<AnomalyFinding> spike =
      ObserveAndScan(&scanner, "t.anomaly.recover_us", 1000.0);
  ASSERT_EQ(spike.size(), 1u);
  EXPECT_DOUBLE_EQ(spike[0].value, 1000.0);

  EXPECT_TRUE(
      ObserveAndScan(&scanner, "t.anomaly.recover_us", 101.0).empty());
  // A scan with no new observation adds no point, so nothing is
  // scored again.
  EXPECT_TRUE(scanner.ScanOnce().empty());
  EXPECT_EQ(scanner.findings().size(), 1u);
}

TEST_F(AnomalyTest, FlatSeriesIsNeverAnOutlier) {
  AnomalyScanner scanner(Watch("t.anomaly.flat_us"));
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(ObserveAndScan(&scanner, "t.anomaly.flat_us", 42.0).empty());
  }
  EXPECT_TRUE(scanner.findings().empty());
}

TEST_F(AnomalyTest, ShortSeriesIsNotScored) {
  AnomalyScanner scanner(Watch("t.anomaly.short_us"));
  // The first scan records; the next four (kMinPoints - 1) add points,
  // the last of them a spike that a longer history would flag.
  const double levels[] = {100, 102, 98, 101, 1000};
  for (double level : levels) {
    EXPECT_TRUE(ObserveAndScan(&scanner, "t.anomaly.short_us", level).empty());
  }
  EXPECT_TRUE(scanner.findings().empty());
}

TEST_F(AnomalyTest, DifferenceModeFlagsGrowthSpike) {
  // A counter's point is its growth since the last scan.
  AnomalyScanner scanner(Watch("t.anomaly.grow"));
  Counter& c = MetricsRegistry::Global().GetCounter("t.anomaly.grow");
  ASSERT_TRUE(scanner.ScanOnce().empty());
  const uint64_t steps[] = {9, 11, 10, 12, 8, 10, 11, 9};
  for (uint64_t step : steps) {
    c.Increment(step);
    ASSERT_TRUE(scanner.ScanOnce().empty());
  }

  c.Increment(1000);
  const std::vector<AnomalyFinding> found = scanner.ScanOnce();
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].target, "t_signal");
  EXPECT_DOUBLE_EQ(found[0].value, 1000.0);  // the growth, not the level
  EXPECT_GE(found[0].robust_z, AnomalyScanner::kZThreshold);
}

TEST_F(AnomalyTest, BoundedHistoryForgetsAnOldLevel) {
  // kHistoryPoints points near 100, then as many near 1000, then 100
  // again. The ring then holds only the 1000s, so the return is an
  // outlier. An unbounded history would hold 121 points near 100 and
  // 120 near 1000; its median and MAD would come from the 100s, and
  // the return would not be flagged.
  constexpr size_t kN = AnomalyScanner::kHistoryPoints;
  AnomalyScanner scanner(Watch("t.anomaly.level_us"));
  ObserveAndScan(&scanner, "t.anomaly.level_us", 100.0);  // records only
  for (size_t i = 0; i < kN; ++i) {
    ObserveAndScan(&scanner, "t.anomaly.level_us", 100.0 + i % 3);
  }
  for (size_t i = 0; i < kN; ++i) {
    ObserveAndScan(&scanner, "t.anomaly.level_us", 1000.0 + i % 3);
  }
  const std::vector<AnomalyFinding> found =
      ObserveAndScan(&scanner, "t.anomaly.level_us", 100.0);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_DOUBLE_EQ(found[0].value, 100.0);
  EXPECT_NEAR(found[0].median, 1001.0, 1.0);
  EXPECT_LE(found[0].robust_z, -AnomalyScanner::kZThreshold);
  EXPECT_EQ(static_cast<uint64_t>(found[0].scan), 2 * kN + 2);
}

TEST_F(AnomalyTest, InjectedMdxLatencySpikeIsFlaggedViaDefaultTargets) {
  discri::CohortOptions opt;
  opt.num_patients = 40;
  opt.seed = 20130408;
  auto raw = discri::GenerateCohort(opt);
  ASSERT_TRUE(raw.ok());
  auto dgms = core::DdDgms::Build(std::move(raw).value(),
                                  discri::MakeDiscriPipeline(),
                                  discri::MakeDiscriSchemaDef());
  ASSERT_TRUE(dgms.ok());

  const std::string query =
      "SELECT { [Measures].[Count] } ON COLUMNS "
      "FROM [MedicalMeasures]";
  AnomalyScanner scanner;  // stock targets
  // Pin the baseline at ~2ms per query so scheduler jitter on a loaded
  // test machine cannot inflate the series MAD enough to mask the spike.
  mdx::MdxExecutor::SetExecuteDelayMicrosForTesting(2000);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(dgms->QueryMdx(query).ok());
    scanner.ScanOnce();
  }

  // A 300ms injected execute delay dwarfs the ~2ms baseline spread of
  // the mean ddgms.mdx.execute_latency_us per scan.
  mdx::MdxExecutor::SetExecuteDelayMicrosForTesting(300000);
  ASSERT_TRUE(dgms->QueryMdx(query).ok());
  mdx::MdxExecutor::SetExecuteDelayMicrosForTesting(0);

  bool latency_flagged = false;
  for (const AnomalyFinding& f : scanner.ScanOnce()) {
    if (f.target == "mdx_latency_spike") {
      latency_flagged = true;
      EXPECT_GE(f.value, 300000.0);
      EXPECT_GE(f.robust_z, AnomalyScanner::kZThreshold);
    }
  }
  EXPECT_TRUE(latency_flagged) << scanner.ToJson();
}

TEST_F(AnomalyTest, ScanThreadLifecycle) {
  AnomalyScannerOptions options = Watch("t.anomaly.thread");
  options.period_ms = 5;
  AnomalyScanner scanner(options);
  EXPECT_FALSE(scanner.running());
  ASSERT_TRUE(scanner.Start().ok());
  EXPECT_TRUE(scanner.running());
  EXPECT_FALSE(scanner.Start().ok());  // already running
  ASSERT_TRUE(scanner.Stop().ok());
  EXPECT_FALSE(scanner.running());
  EXPECT_FALSE(scanner.Stop().ok());  // not running
}

}  // namespace
}  // namespace ddgms
