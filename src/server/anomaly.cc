#include "server/anomaly.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <utility>

#include "common/log.h"
#include "common/metrics.h"
#include "common/resource.h"
#include "common/strings.h"

namespace ddgms::server {

namespace {

/// Rescales MAD to the standard deviation of a normal distribution.
constexpr double kMadToSigma = 0.6745;

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  std::nth_element(values.begin(), values.begin() + mid - 1,
                   values.begin() + mid);
  return (values[mid - 1] + upper) / 2.0;
}

/// An instrument's value in one registry snapshot: a counter's or
/// gauge's value, or a histogram's sum and observation count.
struct Reading {
  enum class Kind { kCounter, kGauge, kHistogram } kind;
  double value = 0.0;
  uint64_t count = 0;
};

std::optional<Reading> Read(const MetricsSnapshot& snapshot,
                            const std::string& instrument) {
  if (const HistogramSnapshot* h = snapshot.histogram(instrument)) {
    return Reading{Reading::Kind::kHistogram, h->sum, h->count};
  }
  for (const MetricsSnapshot::CounterValue& c : snapshot.counters) {
    if (c.name == instrument) {
      return Reading{Reading::Kind::kCounter, static_cast<double>(c.value)};
    }
  }
  for (const MetricsSnapshot::GaugeValue& g : snapshot.gauges) {
    if (g.name == instrument) return Reading{Reading::Kind::kGauge, g.value};
  }
  return std::nullopt;
}

/// The point `now` makes after the last reading: a histogram's mean of
/// the observations between the two, a counter's or gauge's change.
/// None when a histogram observed nothing, or when a counter or
/// histogram went backwards (the registry was reset).
std::optional<double> PointSince(double last_value, uint64_t last_count,
                                 const Reading& now) {
  switch (now.kind) {
    case Reading::Kind::kHistogram:
      if (now.count <= last_count) return std::nullopt;
      return (now.value - last_value) /
             static_cast<double>(now.count - last_count);
    case Reading::Kind::kCounter:
      if (now.value < last_value) return std::nullopt;
      return now.value - last_value;
    case Reading::Kind::kGauge:
      return now.value - last_value;
  }
  return std::nullopt;
}

/// Scores the newest of `history`'s points; a finding (target and scan
/// left for the caller) when its |robust z| reaches the threshold.
std::optional<AnomalyFinding> Score(const std::vector<double>& history,
                                    double newest) {
  if (history.size() < AnomalyScanner::kMinPoints) return std::nullopt;
  const double median = Median(history);
  std::vector<double> deviations(history.size());
  for (size_t i = 0; i < history.size(); ++i) {
    deviations[i] = std::fabs(history[i] - median);
  }
  const double mad = Median(std::move(deviations));
  if (mad <= 0.0) return std::nullopt;  // a flat series has no spread
  const double z = kMadToSigma * (newest - median) / mad;
  if (std::fabs(z) < AnomalyScanner::kZThreshold) return std::nullopt;
  AnomalyFinding finding;
  finding.value = newest;
  finding.median = median;
  finding.mad = mad;
  finding.robust_z = z;
  return finding;
}

}  // namespace

std::string AnomalyFinding::ToString() const {
  return StrFormat(
      "%-24s scan=%lld value=%s median=%s mad=%s z=%s", target.c_str(),
      static_cast<long long>(scan), FormatDouble(value, 4).c_str(),
      FormatDouble(median, 4).c_str(), FormatDouble(mad, 4).c_str(),
      FormatDouble(robust_z, 3).c_str());
}

std::string AnomalyFinding::ToJson() const {
  return StrFormat(
      "{\"target\":\"%s\",\"scan\":%lld,\"value\":%s,"
      "\"median\":%s,\"mad\":%s,\"robust_z\":%s}",
      JsonEscape(target).c_str(), static_cast<long long>(scan),
      FormatDouble(value, 6).c_str(), FormatDouble(median, 6).c_str(),
      FormatDouble(mad, 6).c_str(), FormatDouble(robust_z, 4).c_str());
}

AnomalyScanner::AnomalyScanner(AnomalyScannerOptions options)
    : options_([&options] {
        if (options.targets.empty()) options.targets = DefaultTargets();
        return std::move(options);
      }()),
      series_(options_.targets.size()) {}

AnomalyScanner::~AnomalyScanner() {
  if (running()) Stop().IgnoreError();
}

std::vector<AnomalyTarget> AnomalyScanner::DefaultTargets() {
  return {{"mdx_latency_spike", "ddgms.mdx.execute_latency_us"},
          {"quarantine_rate", "ddgms.quarantine.rows"},
          {"resource_growth", "ddgms.resource.bytes_current:total"}};
}

Status AnomalyScanner::Start() {
  MutexLock lock(mu_);
  if (running_) {
    return Status::FailedPrecondition("anomaly: scanner already running");
  }
  running_ = true;
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread(&AnomalyScanner::ScanLoop, this);
  return Status::OK();
}

Status AnomalyScanner::Stop() {
  {
    MutexLock lock(mu_);
    if (!running_) {
      return Status::FailedPrecondition("anomaly: scanner not running");
    }
    // Set under the lock, so the loop cannot miss it between its
    // predicate check and its wait.
    stop_.store(true, std::memory_order_relaxed);
  }
  cv_.NotifyAll();
  thread_.join();
  MutexLock lock(mu_);
  running_ = false;
  return Status::OK();
}

bool AnomalyScanner::running() const {
  MutexLock lock(mu_);
  return running_;
}

uint64_t AnomalyScanner::scans() const {
  MutexLock lock(mu_);
  return scans_;
}

void AnomalyScanner::ScanLoop() {
  for (;;) {
    {
      MutexLock lock(mu_);
      cv_.WaitFor(mu_, std::chrono::milliseconds(options_.period_ms),
                  [this] { return stop_.load(std::memory_order_relaxed); });
    }
    if (stop_.load(std::memory_order_relaxed)) return;
    ScanOnce();
  }
}

std::vector<AnomalyFinding> AnomalyScanner::ScanOnce() {
  // Refresh the resource-pool gauges so the snapshot reads current
  // bytes.
  if (ResourceMeter::Enabled()) ResourceMeter::Global().PublishToMetrics();

  std::vector<AnomalyFinding> found;
  {
    MutexLock lock(mu_);
    // Snapshot under the lock, so concurrent scans (the thread and the
    // shell's `anomaly scan`) apply their readings in order.
    const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
    const int64_t scan = static_cast<int64_t>(++scans_);
    for (size_t t = 0; t < options_.targets.size(); ++t) {
      const std::optional<Reading> now =
          Read(snapshot, options_.targets[t].instrument);
      if (!now.has_value()) continue;
      Series& series = series_[t];
      const std::optional<double> point =
          series.seen ? PointSince(series.last_value, series.last_count, *now)
                      : std::nullopt;
      series.seen = true;
      series.last_value = now->value;
      series.last_count = now->count;
      if (!point.has_value()) continue;

      series.points[series.next] = *point;
      series.next = (series.next + 1) % kHistoryPoints;
      series.size = std::min(series.size + 1, kHistoryPoints);
      std::optional<AnomalyFinding> finding =
          Score(std::vector<double>(series.points.begin(),
                                    series.points.begin() + series.size),
                *point);
      if (!finding.has_value()) continue;
      finding->target = options_.targets[t].name;
      finding->scan = scan;
      found.push_back(std::move(*finding));
    }
    findings_.insert(findings_.end(), found.begin(), found.end());
    while (findings_.size() > kMaxFindings) findings_.pop_front();
  }

  DDGMS_METRIC_INC("ddgms.anomaly.scans");
  for (const AnomalyFinding& finding : found) {
    DDGMS_METRIC_INC("ddgms.anomaly.detections");
    DDGMS_LOG_WARN("anomaly.detected")
        .With("target", finding.target)
        .With("scan", finding.scan)
        .With("value", finding.value)
        .With("median", finding.median)
        .With("mad", finding.mad)
        .With("robust_z", finding.robust_z);
  }
  return found;
}

std::vector<AnomalyFinding> AnomalyScanner::findings() const {
  MutexLock lock(mu_);
  return std::vector<AnomalyFinding>(findings_.begin(), findings_.end());
}

std::string AnomalyScanner::ToJson() const {
  std::string out = "{\"running\":";
  out += running() ? "true" : "false";
  out += StrFormat(",\"scans\":%llu,\"z_threshold\":%s,\"findings\":[",
                   static_cast<unsigned long long>(scans()),
                   FormatDouble(kZThreshold, 2).c_str());
  const std::vector<AnomalyFinding> all = findings();
  for (size_t i = 0; i < all.size(); ++i) {
    if (i > 0) out += ",";
    out += all[i].ToJson();
  }
  out += "]}";
  return out;
}

}  // namespace ddgms::server
