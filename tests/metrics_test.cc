// Metrics registry tests: counter/gauge/histogram semantics (including
// under concurrent mutation), snapshot ordering, exporter formats and
// the disabled-path no-op guarantees.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"

namespace ddgms {
namespace {

// The registry is process-global, so every test starts enabled with
// clean values and leaves the registry disabled.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().ResetValues();
    MetricsRegistry::Enable();
  }
  void TearDown() override {
    MetricsRegistry::Disable();
    MetricsRegistry::Global().ResetValues();
  }
};

TEST_F(MetricsTest, CounterIncrementAndReset) {
  Counter& c = MetricsRegistry::Global().GetCounter("t.counter");
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(MetricsTest, GetCounterReturnsSameInstance) {
  Counter& a = MetricsRegistry::Global().GetCounter("t.same");
  Counter& b = MetricsRegistry::Global().GetCounter("t.same");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(b.value(), 1u);
}

TEST_F(MetricsTest, CounterConcurrentIncrements) {
  Counter& c = MetricsRegistry::Global().GetCounter("t.concurrent");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST_F(MetricsTest, GaugeSetAndAdd) {
  Gauge& g = MetricsRegistry::Global().GetGauge("t.gauge");
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.Add(1.25);
  EXPECT_DOUBLE_EQ(g.value(), 3.75);
  g.Add(-5.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST_F(MetricsTest, GaugeConcurrentAdds) {
  Gauge& g = MetricsRegistry::Global().GetGauge("t.gauge.conc");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&g] {
      for (int i = 0; i < kPerThread; ++i) g.Add(0.5);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_DOUBLE_EQ(g.value(), kThreads * kPerThread * 0.5);
}

TEST_F(MetricsTest, HistogramBucketsAndStats) {
  Histogram& h =
      MetricsRegistry::Global().GetHistogram("t.hist", {10, 20, 30});
  h.Observe(5);    // bucket 0: <= 10
  h.Observe(10);   // bucket 0 (upper bounds inclusive)
  h.Observe(15);   // bucket 1
  h.Observe(25);   // bucket 2
  h.Observe(100);  // overflow bucket
  HistogramSnapshot snap = h.Snapshot("t.hist");
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 155.0);
  EXPECT_DOUBLE_EQ(snap.min, 5.0);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  ASSERT_EQ(snap.bounds.size(), 3u);
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets[0], 2u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.buckets[3], 1u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 31.0);
}

TEST_F(MetricsTest, HistogramPercentilesAreOrderedAndBounded) {
  Histogram& h = MetricsRegistry::Global().GetHistogram(
      "t.hist.pct", Histogram::DefaultLatencyBounds());
  for (int i = 1; i <= 1000; ++i) h.Observe(i);
  HistogramSnapshot snap = h.Snapshot("t.hist.pct");
  const double p50 = snap.Percentile(0.50);
  const double p95 = snap.Percentile(0.95);
  const double p99 = snap.Percentile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, snap.min);
  EXPECT_LE(p99, snap.max);
  // p50 of 1..1000 should land in the right region despite bucketing.
  EXPECT_GT(p50, 250.0);
  EXPECT_LT(p50, 1000.0);
}

TEST_F(MetricsTest, HistogramConcurrentObserve) {
  Histogram& h = MetricsRegistry::Global().GetHistogram(
      "t.hist.conc", {100, 200, 300});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Observe(50.0 * (t + 1));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  const double expected_sum = kPerThread * 50.0 * (1 + 2 + 3 + 4);
  EXPECT_DOUBLE_EQ(h.sum(), expected_sum);
}

TEST_F(MetricsTest, GaugeAddHighContentionLosesNoUpdates) {
  // Regression guard for Gauge::Add: the CAS loop must not lose
  // updates under write-write contention (a plain load+store would).
  Gauge& g = MetricsRegistry::Global().GetGauge("t.gauge.contended");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&g] {
      for (int i = 0; i < kPerThread; ++i) g.Add(1.0);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads * kPerThread));
}

TEST_F(MetricsTest, HistogramConcurrentObserveBucketAccounting) {
  // Bucket counters, count, sum and min/max must all be exact after
  // concurrent writers finish — no observation may be dropped or land
  // in the wrong bucket.
  Histogram& h = MetricsRegistry::Global().GetHistogram(
      "t.hist.acct", {100, 200, 300});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      // Thread t observes a fixed value in bucket t % 4.
      const double value = 50.0 + 100.0 * (t % 4);
      for (int i = 0; i < kPerThread; ++i) h.Observe(value);
    });
  }
  for (std::thread& w : workers) w.join();
  HistogramSnapshot snap = h.Snapshot("t.hist.acct");
  const uint64_t total = static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(snap.count, total);
  uint64_t bucket_sum = 0;
  for (uint64_t b : snap.buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, total);
  ASSERT_EQ(snap.buckets.size(), 4u);
  for (size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(snap.buckets[b], total / 4) << "bucket " << b;
  }
  EXPECT_DOUBLE_EQ(snap.min, 50.0);
  EXPECT_DOUBLE_EQ(snap.max, 350.0);
}

TEST_F(MetricsTest, SnapshotDuringConcurrentObserveIsConsistent) {
  // Sampler-vs-mutator: snapshots taken while writers are mid-flight
  // must never surface the +/-inf min/max sentinels, must keep
  // bucket-sum >= count (count is incremented last), and count must be
  // monotone across snapshots.
  Histogram& h = MetricsRegistry::Global().GetHistogram(
      "t.hist.race", {10, 100, 1000});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Observe(static_cast<double>((i % 2000) + t));
      }
    });
  }
  uint64_t last_count = 0;
  for (int s = 0; s < 200; ++s) {
    HistogramSnapshot snap = h.Snapshot("t.hist.race");
    EXPECT_GE(snap.count, last_count);
    last_count = snap.count;
    uint64_t bucket_sum = 0;
    for (uint64_t b : snap.buckets) bucket_sum += b;
    EXPECT_GE(bucket_sum, snap.count);
    EXPECT_TRUE(std::isfinite(snap.min)) << snap.min;
    EXPECT_TRUE(std::isfinite(snap.max)) << snap.max;
    if (snap.count > 0) {
      EXPECT_GE(snap.min, 0.0);
      EXPECT_LE(snap.max, 2003.0);
    }
  }
  for (std::thread& w : workers) w.join();
  HistogramSnapshot final_snap = h.Snapshot("t.hist.race");
  EXPECT_EQ(final_snap.count,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST_F(MetricsTest, SnapshotIsSortedAndQueriable) {
  MetricsRegistry::Global().GetCounter("t.b").Increment(2);
  MetricsRegistry::Global().GetCounter("t.a").Increment();
  MetricsRegistry::Global().GetGauge("t.g").Set(1.5);
  MetricsRegistry::Global().GetHistogram("t.h", {1, 2}).Observe(1.5);
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  ASSERT_GE(snap.counters.size(), 2u);
  for (size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
  EXPECT_EQ(snap.counter("t.a"), 1u);
  EXPECT_EQ(snap.counter("t.b"), 2u);
  EXPECT_EQ(snap.counter("t.missing"), 0u);
  const auto* h = snap.histogram("t.h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
}

TEST_F(MetricsTest, ToJsonContainsMetrics) {
  MetricsRegistry::Global().GetCounter("t.json.counter").Increment(7);
  MetricsRegistry::Global().GetGauge("t.json.gauge").Set(0.5);
  MetricsRegistry::Global()
      .GetHistogram("t.json.hist", {10})
      .Observe(3);
  std::string json = MetricsRegistry::Global().Snapshot().ToJson();
  EXPECT_NE(json.find("\"t.json.counter\""), std::string::npos);
  EXPECT_NE(json.find("7"), std::string::npos);
  EXPECT_NE(json.find("\"t.json.gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"t.json.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST_F(MetricsTest, ToPrometheusTextSanitizesNames) {
  MetricsRegistry::Global()
      .GetCounter("ddgms.retry.attempts:store.fetch")
      .Increment(3);
  std::string prom =
      MetricsRegistry::Global().Snapshot().ToPrometheusText();
  // Dots and the :detail separator become legal Prometheus characters.
  EXPECT_NE(prom.find("ddgms_retry_attempts:store_fetch"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE"), std::string::npos);
  // The original dotted name survives only in # HELP comments (where
  // it documents the sanitized -> registry mapping); every sample
  // line uses the sanitized form.
  std::istringstream lines(prom);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# HELP", 0) == 0) continue;
    EXPECT_EQ(line.find("ddgms.retry"), std::string::npos) << line;
  }
}

TEST_F(MetricsTest, ResetValuesKeepsRegistrationButZeroes) {
  Counter& c = MetricsRegistry::Global().GetCounter("t.reset");
  c.Increment(9);
  MetricsRegistry::Global().ResetValues();
  EXPECT_EQ(c.value(), 0u);
  // Same instance remains valid and usable.
  c.Increment();
  EXPECT_EQ(c.value(), 1u);
}

TEST_F(MetricsTest, DisabledPathIsANoOp) {
  Counter& c = MetricsRegistry::Global().GetCounter("t.disabled");
  Gauge& g = MetricsRegistry::Global().GetGauge("t.disabled.g");
  Histogram& h =
      MetricsRegistry::Global().GetHistogram("t.disabled.h", {1});
  MetricsRegistry::Disable();
  c.Increment();
  g.Set(5.0);
  g.Add(1.0);
  h.Observe(0.5);
  DDGMS_METRIC_INC("t.disabled");
  DDGMS_METRIC_ADD("t.disabled", 10);
  DDGMS_METRIC_GAUGE_SET("t.disabled.g", 2.0);
  DDGMS_METRIC_OBSERVE("t.disabled.h", 0.5);
  MetricsRegistry::Enable();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST_F(MetricsTest, MacroCreatesAndIncrements) {
  DDGMS_METRIC_INC("t.macro");
  DDGMS_METRIC_ADD("t.macro", 4);
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.counter("t.macro"), 5u);
}

TEST_F(MetricsTest, SpanHistogramObserves) {
  {
    TraceSpan span("t.span", "t.latency");
    // Any work; even an empty scope records a >= 0 duration.
  }
  Histogram& h = MetricsRegistry::Global().GetHistogram(
      "t.latency", Histogram::DefaultLatencyBounds());
  EXPECT_EQ(h.count(), 1u);
}

TEST_F(MetricsTest, PercentileEdgeCases) {
  Histogram& h =
      MetricsRegistry::Global().GetHistogram("t.hist.edge", {10, 20, 30});
  // Empty histogram: every percentile is 0, nothing divides by zero.
  HistogramSnapshot empty = h.Snapshot("t.hist.edge");
  EXPECT_DOUBLE_EQ(empty.Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.Percentile(1.0), 0.0);

  // Single sample: every percentile collapses onto that sample.
  h.Observe(17);
  HistogramSnapshot one = h.Snapshot("t.hist.edge");
  EXPECT_DOUBLE_EQ(one.Percentile(0.0), 17.0);
  EXPECT_DOUBLE_EQ(one.Percentile(0.5), 17.0);
  EXPECT_DOUBLE_EQ(one.Percentile(1.0), 17.0);

  // p outside [0,1] clamps to min/max; NaN degrades to 0 rather than
  // poisoning downstream arithmetic.
  h.Observe(5);
  h.Observe(100);
  HistogramSnapshot snap = h.Snapshot("t.hist.edge");
  EXPECT_DOUBLE_EQ(snap.Percentile(-0.5), snap.min);
  EXPECT_DOUBLE_EQ(snap.Percentile(0.0), snap.min);
  EXPECT_DOUBLE_EQ(snap.Percentile(1.0), snap.max);
  EXPECT_DOUBLE_EQ(snap.Percentile(2.0), snap.max);
  EXPECT_DOUBLE_EQ(snap.Percentile(std::nan("")), 0.0);
}

TEST_F(MetricsTest, PrometheusHistogramBucketsAreCumulative) {
  Histogram& h =
      MetricsRegistry::Global().GetHistogram("t.hist.prom", {10, 20, 30});
  h.Observe(5);    // le=10
  h.Observe(10);   // le=10 (bounds inclusive)
  h.Observe(15);   // le=20
  h.Observe(25);   // le=30
  h.Observe(100);  // +Inf only
  const std::string text =
      MetricsRegistry::Global().Snapshot().ToPrometheusText();
  // Buckets are CUMULATIVE counts-at-or-below each bound, ending with
  // +Inf == _count — the exposition-format contract scrapers rely on.
  EXPECT_NE(text.find("t_hist_prom_bucket{le=\"10\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("t_hist_prom_bucket{le=\"20\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("t_hist_prom_bucket{le=\"30\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("t_hist_prom_bucket{le=\"+Inf\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("t_hist_prom_count 5"), std::string::npos);
  EXPECT_NE(text.find("t_hist_prom_sum 155"), std::string::npos);
  EXPECT_NE(text.find("# TYPE t_hist_prom histogram"), std::string::npos);
  // HELP lines carry the original dotted name for all instrument kinds.
  MetricsRegistry::Global().GetCounter("t.prom.counter").Increment();
  MetricsRegistry::Global().GetGauge("t.prom.gauge").Set(1.0);
  const std::string full =
      MetricsRegistry::Global().Snapshot().ToPrometheusText();
  EXPECT_NE(full.find("# HELP t_hist_prom ddgms histogram t.hist.prom"),
            std::string::npos);
  EXPECT_NE(full.find("# HELP t_prom_counter ddgms counter t.prom.counter"),
            std::string::npos);
  EXPECT_NE(full.find("# HELP t_prom_gauge ddgms gauge t.prom.gauge"),
            std::string::npos);
}

TEST_F(MetricsTest, PrometheusHelpTextEscapesBackslashAndNewline) {
  // Instrument names are free-form registry keys; a hostile or buggy
  // one must not be able to break the exposition format by smuggling a
  // raw newline (which would start a bogus sample line) or a raw
  // backslash into # HELP text.
  MetricsRegistry::Global()
      .GetCounter("t.evil\nname\\with\\slashes")
      .Increment();
  const std::string text =
      MetricsRegistry::Global().Snapshot().ToPrometheusText();
  // Escaped forms appear...
  EXPECT_NE(text.find("t.evil\\nname\\\\with\\\\slashes"),
            std::string::npos);
  // ...and the raw (unescaped) fragment does not: a raw newline in
  // HELP would have split the comment and emitted a bogus sample line
  // starting with "name\with\slashes".
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_NE(line.rfind("name\\with", 0), 0u) << line;
  }
}

TEST_F(MetricsTest, PrometheusLabelValuesAreEscaped) {
  // The le label values today are numeric bounds or +Inf, but the
  // writer must escape per spec regardless: backslash, double quote
  // and newline inside a label value.
  using ::ddgms::MetricsSnapshot;
  MetricsSnapshot snapshot;
  HistogramSnapshot h;
  h.name = "t.label.esc";
  h.bounds = {10.0};
  h.buckets = {1, 0};
  h.count = 1;
  h.sum = 5.0;
  snapshot.histograms.push_back(h);
  const std::string text = snapshot.ToPrometheusText();
  EXPECT_NE(text.find("_bucket{le=\"10\"} 1"), std::string::npos);
  EXPECT_NE(text.find("_bucket{le=\"+Inf\"} 1"), std::string::npos);
}

TEST_F(MetricsTest, SpanHistogramInertWhenDisabled) {
  MetricsRegistry::Disable();
  {
    TraceSpan span("t.span", "t.latency.off");
  }
  MetricsRegistry::Enable();
  MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.histogram("t.latency.off"), nullptr);
}

}  // namespace
}  // namespace ddgms
