#include "common/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/annotations.h"
#include "common/strings.h"

namespace ddgms {

std::atomic<bool> MetricsRegistry::enabled_{false};

namespace {

constexpr uint64_t kPosInfBits = 0x7ff0000000000000ULL;  // +inf
constexpr uint64_t kNegInfBits = 0xfff0000000000000ULL;  // -inf

double BitsToDouble(uint64_t bits) { return std::bit_cast<double>(bits); }
uint64_t DoubleToBits(double v) { return std::bit_cast<uint64_t>(v); }

/// Lock-free add on a bit-cast double.
void AtomicDoubleAdd(std::atomic<uint64_t>* bits, double delta) {
  uint64_t old_bits = bits->load(std::memory_order_relaxed);
  while (!bits->compare_exchange_weak(
      old_bits, DoubleToBits(BitsToDouble(old_bits) + delta),
      std::memory_order_relaxed)) {
  }
}

void AtomicDoubleMin(std::atomic<uint64_t>* bits, double v) {
  uint64_t old_bits = bits->load(std::memory_order_relaxed);
  while (BitsToDouble(old_bits) > v &&
         !bits->compare_exchange_weak(old_bits, DoubleToBits(v),
                                      std::memory_order_relaxed)) {
  }
}

void AtomicDoubleMax(std::atomic<uint64_t>* bits, double v) {
  uint64_t old_bits = bits->load(std::memory_order_relaxed);
  while (BitsToDouble(old_bits) < v &&
         !bits->compare_exchange_weak(old_bits, DoubleToBits(v),
                                      std::memory_order_relaxed)) {
  }
}

/// Prometheus metric names allow [a-zA-Z_:][a-zA-Z0-9_:]*.
std::string SanitizeForPrometheus(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) {
    out.insert(out.begin(), '_');
  }
  return out;
}

/// Text-exposition-format escaping for `# HELP` text: backslash and
/// newline must be escaped (a raw newline would split the comment
/// line and corrupt the exposition).
std::string EscapePrometheusHelp(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

/// Label values additionally escape the double quote that delimits
/// them.
std::string EscapePrometheusLabelValue(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

/// JSON number formatting (finite; never locale-dependent here since
/// FormatDouble uses snprintf with the C locale semantics of %g).
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  return FormatDouble(v, 9);
}

}  // namespace

// The DDGMS_METRIC_* record paths run inside scan/parse loops; they
// must stay lock-free and allocation-free (the analyzer's hot-path
// pass enforces the latter).
DDGMS_HOT void Counter::Increment(uint64_t delta) {
  if (!MetricsRegistry::Enabled()) return;
  value_.fetch_add(delta, std::memory_order_relaxed);
}

DDGMS_HOT void Gauge::Set(double value) {
  if (!MetricsRegistry::Enabled()) return;
  bits_.store(DoubleToBits(value), std::memory_order_relaxed);
}

DDGMS_HOT void Gauge::Add(double delta) {
  if (!MetricsRegistry::Enabled()) return;
  AtomicDoubleAdd(&bits_, delta);
}

double Gauge::value() const {
  return BitsToDouble(bits_.load(std::memory_order_relaxed));
}

void Gauge::Reset() { bits_.store(0, std::memory_order_relaxed); }

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      min_bits_(kPosInfBits),
      max_bits_(kNegInfBits) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()),
                bounds_.end());
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

std::vector<double> Histogram::DefaultLatencyBounds() {
  return {1,     2,     5,      10,     25,     50,     100,    250,
          500,   1000,  2500,   5000,   10000,  25000,  50000,  100000,
          250000, 500000, 1000000, 2500000, 5000000, 10000000};
}

DDGMS_HOT void Histogram::Observe(double value) {
  if (!MetricsRegistry::Enabled()) return;
  size_t idx = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  // count_ is updated LAST, with release, and Snapshot() reads it
  // FIRST, with acquire: a snapshot that sees count = n also sees the
  // bucket, sum and min/max updates of at least n completed
  // observations, instead of e.g. count=1 with min still at the +inf
  // sentinel or a bucket total below the count.
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  AtomicDoubleAdd(&sum_bits_, value);
  AtomicDoubleMin(&min_bits_, value);
  AtomicDoubleMax(&max_bits_, value);
  count_.fetch_add(1, std::memory_order_release);
}

double Histogram::sum() const {
  return BitsToDouble(sum_bits_.load(std::memory_order_relaxed));
}

HistogramSnapshot Histogram::Snapshot(const std::string& name) const {
  HistogramSnapshot snap;
  snap.name = name;
  snap.bounds = bounds_;
  // Count first (see Observe): every observation it includes has
  // already landed in the buckets read below.
  snap.count = count_.load(std::memory_order_acquire);
  snap.buckets.reserve(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    snap.buckets.push_back(buckets_[i].load(std::memory_order_relaxed));
  }
  snap.sum = sum();
  if (snap.count > 0) {
    const uint64_t min_bits = min_bits_.load(std::memory_order_relaxed);
    const uint64_t max_bits = max_bits_.load(std::memory_order_relaxed);
    // A Reset() racing a writer can still leave count ahead of the
    // min/max CAS; never surface the +/-inf sentinels.
    snap.min = min_bits == kPosInfBits ? 0.0 : BitsToDouble(min_bits);
    snap.max = max_bits == kNegInfBits ? 0.0 : BitsToDouble(max_bits);
  }
  return snap;
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
  min_bits_.store(kPosInfBits, std::memory_order_relaxed);
  max_bits_.store(kNegInfBits, std::memory_order_relaxed);
}

double HistogramSnapshot::Percentile(double p) const {
  if (std::isnan(p)) return 0.0;
  if (count == 0 || p <= 0.0) return count == 0 ? 0.0 : min;
  if (p >= 1.0) return max;
  const double target = p * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    uint64_t in_bucket = buckets[i];
    if (cumulative + in_bucket < target || in_bucket == 0) {
      cumulative += in_bucket;
      continue;
    }
    // Interpolate within [lower, upper). The overflow bucket is capped
    // at the observed max; the first bucket starts at the observed min.
    double lower = i == 0 ? min : bounds[i - 1];
    double upper = i < bounds.size() ? bounds[i] : max;
    lower = std::min(std::max(lower, min), max);
    upper = std::min(std::max(upper, lower), max);
    double fraction =
        (target - static_cast<double>(cumulative)) /
        static_cast<double>(in_bucket);
    return lower + (upper - lower) * std::min(1.0, fraction);
  }
  return max;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  return GetHistogram(name, Histogram::DefaultLatencyBounds());
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.push_back({name, counter->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.push_back({name, gauge->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.push_back(histogram->Snapshot(name));
  }
  return snap;  // std::map iteration => already sorted by name
}

void MetricsRegistry::ResetValues() {
  MutexLock lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

uint64_t MetricsSnapshot::counter(const std::string& name) const {
  for (const CounterValue& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    const std::string& name) const {
  for (const HistogramSnapshot& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::string MetricsSnapshot::ToString() const {
  std::string out;
  if (!counters.empty()) {
    out += "counters:\n";
    for (const CounterValue& c : counters) {
      out += StrFormat("  %-44s %12llu\n", c.name.c_str(),
                       static_cast<unsigned long long>(c.value));
    }
  }
  if (!gauges.empty()) {
    out += "gauges:\n";
    for (const GaugeValue& g : gauges) {
      out += StrFormat("  %-44s %12s\n", g.name.c_str(),
                       FormatDouble(g.value).c_str());
    }
  }
  if (!histograms.empty()) {
    out += StrFormat("histograms:%34s %10s %10s %10s %10s %10s\n", "count",
                     "mean", "p50", "p95", "p99", "max");
    for (const HistogramSnapshot& h : histograms) {
      out += StrFormat("  %-42s %10llu %10s %10s %10s %10s %10s\n",
                       h.name.c_str(),
                       static_cast<unsigned long long>(h.count),
                       FormatDouble(h.Mean(), 4).c_str(),
                       FormatDouble(h.Percentile(0.5), 4).c_str(),
                       FormatDouble(h.Percentile(0.95), 4).c_str(),
                       FormatDouble(h.Percentile(0.99), 4).c_str(),
                       FormatDouble(h.max, 4).c_str());
    }
  }
  if (out.empty()) out = "no metrics recorded\n";
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  for (size_t i = 0; i < counters.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"";
    out += JsonEscape(counters[i].name);
    out += "\":";
    out += StrFormat("%llu",
                     static_cast<unsigned long long>(counters[i].value));
  }
  out += "},\"gauges\":{";
  for (size_t i = 0; i < gauges.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"";
    out += JsonEscape(gauges[i].name);
    out += "\":";
    out += JsonNumber(gauges[i].value);
  }
  out += "},\"histograms\":{";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    if (i > 0) out += ",";
    out += "\"";
    out += JsonEscape(h.name);
    out += "\":{";
    out += StrFormat("\"count\":%llu,",
                     static_cast<unsigned long long>(h.count));
    out += "\"sum\":";
    out += JsonNumber(h.sum);
    out += ",\"min\":";
    out += JsonNumber(h.min);
    out += ",\"max\":";
    out += JsonNumber(h.max);
    out += ",\"buckets\":[";
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      if (b > 0) out += ",";
      out += "{\"le\":";
      out += b < h.bounds.size() ? JsonNumber(h.bounds[b])
                                 : std::string("\"+Inf\"");
      out += StrFormat(",\"count\":%llu}",
                       static_cast<unsigned long long>(h.buckets[b]));
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string MetricsSnapshot::ToPrometheusText() const {
  std::string out;
  for (const CounterValue& c : counters) {
    std::string name = SanitizeForPrometheus(c.name);
    out += "# HELP " + name + " ddgms counter " +
           EscapePrometheusHelp(c.name) + "\n";
    out += "# TYPE ";
    out += name;
    out += " counter\n";
    out += name;
    out += StrFormat(" %llu\n", static_cast<unsigned long long>(c.value));
  }
  for (const GaugeValue& g : gauges) {
    std::string name = SanitizeForPrometheus(g.name);
    out += "# HELP " + name + " ddgms gauge " +
           EscapePrometheusHelp(g.name) + "\n";
    out += "# TYPE ";
    out += name;
    out += " gauge\n";
    out += name;
    out += " ";
    out += FormatDouble(g.value, 9);
    out += "\n";
  }
  for (const HistogramSnapshot& h : histograms) {
    std::string name = SanitizeForPrometheus(h.name);
    out += "# HELP " + name + " ddgms histogram " +
           EscapePrometheusHelp(h.name) + "\n";
    out += "# TYPE ";
    out += name;
    out += " histogram\n";
    uint64_t cumulative = 0;
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      cumulative += h.buckets[b];
      out += name;
      out += "_bucket{le=\"";
      out += EscapePrometheusLabelValue(
          b < h.bounds.size() ? FormatDouble(h.bounds[b], 9)
                              : std::string("+Inf"));
      out += StrFormat("\"} %llu\n",
                       static_cast<unsigned long long>(cumulative));
    }
    out += name;
    out += "_sum ";
    out += FormatDouble(h.sum, 9);
    out += "\n";
    // The exposition format requires _count == the +Inf bucket. The
    // snapshot's count field is read from a separate atomic than the
    // bucket array, so under concurrent observation the two can skew
    // by an in-flight observation — emit the bucket sum for both.
    out += name;
    out += StrFormat("_count %llu\n",
                     static_cast<unsigned long long>(cumulative));
  }
  return out;
}

}  // namespace ddgms
