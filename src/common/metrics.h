#ifndef DDGMS_COMMON_METRICS_H_
#define DDGMS_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"

namespace ddgms {

/// -------------------------------------------------------------------
/// Metrics
///
/// A process-wide registry of named instruments — monotonic counters,
/// settable gauges and fixed-bucket latency histograms — that every
/// layer of the platform reports into. Like common/faults, the whole
/// subsystem is compiled in but inert by default: every mutation is
/// guarded by one relaxed atomic-bool load, so the disabled path costs
/// a single predictable branch. Call MetricsRegistry::Enable() (the
/// shell does this at startup) to start recording.
///
/// Instruments are created on first use and live for the process
/// lifetime, so references returned by the Get*() methods are stable
/// and may be cached by hot paths. ResetValues() zeroes values without
/// invalidating those references.
///
/// Naming convention: dot-separated "ddgms.<layer>.<what>[:<detail>]"
/// (e.g. "ddgms.etl.rows_in", "ddgms.quarantine.rows:csv-ingest").
/// Exporters sanitize names for their target format.
/// -------------------------------------------------------------------

/// Monotonically increasing event count. Thread-safe; increments are
/// dropped while the registry is disabled.
class Counter {
 public:
  void Increment(uint64_t delta = 1);
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written value (fill levels, cardinalities, configuration).
/// Thread-safe; writes are dropped while the registry is disabled.
class Gauge {
 public:
  void Set(double value);
  void Add(double delta);
  double value() const;
  void Reset();

 private:
  std::atomic<uint64_t> bits_{0};  // bit-cast double
};

/// Point-in-time view of one histogram (see Histogram).
struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // 0 when count == 0
  double max = 0.0;
  /// Upper bounds of each finite bucket; one extra overflow bucket
  /// (+Inf) follows, so buckets.size() == bounds.size() + 1.
  std::vector<double> bounds;
  std::vector<uint64_t> buckets;

  double Mean() const { return count == 0 ? 0.0 : sum / count; }
  /// Estimated p-quantile (0 < p < 1) by linear interpolation inside
  /// the containing bucket; 0 when empty.
  double Percentile(double p) const;
};

/// Fixed-bucket histogram for latency-style observations. Bucket
/// bounds are set at creation (DefaultLatencyBounds() unless
/// overridden) and never change, so recording is lock-free: one atomic
/// add per observation plus min/max CAS. Observations are dropped
/// while the registry is disabled.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  HistogramSnapshot Snapshot(const std::string& name) const;

  void Reset();

  /// Exponential microsecond bounds: 1us .. 10s.
  static std::vector<double> DefaultLatencyBounds();

 private:
  std::vector<double> bounds_;  // sorted, strictly increasing
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size()+1
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};
  std::atomic<uint64_t> min_bits_;
  std::atomic<uint64_t> max_bits_;
};

/// Point-in-time view of the whole registry, sorted by name. This is
/// what `DdDgms::MetricsSnapshot()` and the shell's `stats` command
/// return; exporters format it for humans, dashboards and scrapers.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Value of a counter by exact name (0 when absent).
  uint64_t counter(const std::string& name) const;
  /// Histogram by exact name (nullptr when absent).
  const HistogramSnapshot* histogram(const std::string& name) const;

  /// Human-readable multi-line listing.
  std::string ToString() const;
  /// Machine-readable JSON object:
  /// {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string ToJson() const;
  /// Prometheus text exposition format (names sanitized to
  /// [a-zA-Z0-9_:], histogram as cumulative _bucket/_sum/_count).
  std::string ToPrometheusText() const;
};

/// The global named registry. All methods are thread-safe.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// Master switch (one relaxed atomic, shared by all instruments).
  static void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  static void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  static bool Enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Finds or creates an instrument. Returned references are stable
  /// for the process lifetime.
  Counter& GetCounter(const std::string& name) EXCLUDES(mu_);
  Gauge& GetGauge(const std::string& name) EXCLUDES(mu_);
  /// Default latency bounds; a custom-bounds overload for
  /// non-latency distributions. Bounds are fixed on first creation —
  /// later calls with different bounds return the existing histogram.
  Histogram& GetHistogram(const std::string& name) EXCLUDES(mu_);
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> bounds) EXCLUDES(mu_);

  MetricsSnapshot Snapshot() const EXCLUDES(mu_);

  /// Zeroes every instrument's value. Registrations (and outstanding
  /// references) stay valid.
  void ResetValues() EXCLUDES(mu_);

 private:
  MetricsRegistry() = default;

  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GUARDED_BY(mu_);
  static std::atomic<bool> enabled_;
};

/// Call-site helpers matching the DDGMS_FAULT_POINT idiom: one relaxed
/// load on the disabled path, registry lookup only when enabled.
#define DDGMS_METRIC_ADD(name, delta)                                \
  do {                                                               \
    if (::ddgms::MetricsRegistry::Enabled()) {                       \
      ::ddgms::MetricsRegistry::Global().GetCounter(name).Increment( \
          delta);                                                    \
    }                                                                \
  } while (false)

#define DDGMS_METRIC_INC(name) DDGMS_METRIC_ADD(name, 1)

#define DDGMS_METRIC_GAUGE_SET(name, value)                         \
  do {                                                              \
    if (::ddgms::MetricsRegistry::Enabled()) {                      \
      ::ddgms::MetricsRegistry::Global().GetGauge(name).Set(value); \
    }                                                               \
  } while (false)

#define DDGMS_METRIC_OBSERVE(name, value)                    \
  do {                                                       \
    if (::ddgms::MetricsRegistry::Enabled()) {               \
      ::ddgms::MetricsRegistry::Global().GetHistogram(name)  \
          .Observe(value);                                   \
    }                                                        \
  } while (false)

}  // namespace ddgms

#endif  // DDGMS_COMMON_METRICS_H_
