#include "common/trace.h"

#include <algorithm>
#include <unordered_map>

#include "common/annotations.h"
#include "common/metrics.h"
#include "common/strings.h"

namespace ddgms {

std::atomic<bool> TraceCollector::enabled_{false};

namespace {

/// Per-thread innermost live span, for parent/child wiring. The parent
/// of the innermost span is tracked alongside so the event log can
/// stamp records with both ids without walking span objects.
thread_local uint64_t tls_current_span = 0;
thread_local uint64_t tls_parent_span = 0;
thread_local int tls_depth = 0;

std::string FormatDuration(uint64_t micros) {
  if (micros < 1000) {
    return StrFormat("%llu us", static_cast<unsigned long long>(micros));
  }
  if (micros < 1000000) {
    return StrFormat("%.2f ms", static_cast<double>(micros) / 1000.0);
  }
  return StrFormat("%.2f s", static_cast<double>(micros) / 1e6);
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

}  // namespace

TraceCollector::TraceCollector()
    : epoch_(std::chrono::steady_clock::now()) {}

TraceCollector& TraceCollector::Global() {
  static TraceCollector* collector = new TraceCollector();
  return *collector;
}

uint64_t TraceCollector::MicrosAt(
    std::chrono::steady_clock::time_point t) const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_)
          .count());
}

void TraceCollector::set_capacity(size_t capacity) {
  MutexLock lock(mu_);
  if (capacity == 0) capacity = 1;
  if (capacity < ring_.size()) {
    // Keep the newest `capacity` spans, restore chronological layout.
    std::vector<SpanRecord> kept;
    kept.reserve(capacity);
    size_t n = ring_.size();
    for (size_t i = n - capacity; i < n; ++i) {
      kept.push_back(std::move(ring_[(head_ + i) % n]));
    }
    dropped_ += n - capacity;
    ring_ = std::move(kept);
    head_ = 0;
  }
  capacity_ = capacity;
}

size_t TraceCollector::capacity() const {
  MutexLock lock(mu_);
  return capacity_;
}

// Every span destructor lands here — per-query at the coarse spans,
// per-operation at the fine ones.
DDGMS_HOT void TraceCollector::Record(SpanRecord record) {
  MutexLock lock(mu_);
  if (ring_.size() < capacity_) {
    // Reserving the full ring up front keeps the warm-up appends from
    // reallocating under the collector lock.
    ring_.reserve(capacity_);
    ring_.push_back(std::move(record));
    return;
  }
  ring_[head_] = std::move(record);
  head_ = (head_ + 1) % ring_.size();
  ++dropped_;
}

std::vector<SpanRecord> TraceCollector::Snapshot() const {
  MutexLock lock(mu_);
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  const size_t n = ring_.size();
  for (size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(head_ + i) % n]);
  }
  return out;
}

std::vector<SpanRecord> TraceCollector::Drain() {
  MutexLock lock(mu_);
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  const size_t n = ring_.size();
  for (size_t i = 0; i < n; ++i) {
    out.push_back(std::move(ring_[(head_ + i) % n]));
  }
  ring_.clear();
  head_ = 0;
  dropped_ = 0;
  return out;
}

uint64_t TraceCollector::CurrentSpanId() { return tls_current_span; }

uint64_t TraceCollector::CurrentParentSpanId() { return tls_parent_span; }

size_t TraceCollector::size() const {
  MutexLock lock(mu_);
  return ring_.size();
}

size_t TraceCollector::dropped() const {
  MutexLock lock(mu_);
  return dropped_;
}

void TraceCollector::Clear() {
  MutexLock lock(mu_);
  ring_.clear();
  head_ = 0;
  dropped_ = 0;
}

std::string TraceCollector::ToString() const {
  std::vector<SpanRecord> spans = Snapshot();
  size_t evicted = dropped();
  std::string out = StrFormat(
      "trace: %zu spans%s\n", spans.size(),
      evicted > 0 ? StrFormat(" (%zu evicted)", evicted).c_str() : "");
  if (spans.empty()) return out;

  // Children grouped by parent, each group ordered by start time.
  std::unordered_map<uint64_t, std::vector<const SpanRecord*>> children;
  std::unordered_map<uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) by_id.emplace(s.id, &s);
  std::vector<const SpanRecord*> roots;
  for (const SpanRecord& s : spans) {
    if (s.parent_id != 0 && by_id.count(s.parent_id) > 0) {
      children[s.parent_id].push_back(&s);
    } else {
      roots.push_back(&s);
    }
  }
  auto by_start = [](const SpanRecord* a, const SpanRecord* b) {
    return a->start_us != b->start_us ? a->start_us < b->start_us
                                      : a->id < b->id;
  };
  std::sort(roots.begin(), roots.end(), by_start);
  for (auto& [id, kids] : children) {
    std::sort(kids.begin(), kids.end(), by_start);
  }

  // Depth-first render.
  struct Frame {
    const SpanRecord* span;
    int indent;
  };
  std::vector<Frame> stack;
  for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
    stack.push_back({*it, 0});
  }
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    out += std::string(static_cast<size_t>(frame.indent) * 2, ' ');
    out += StrFormat("%-*s %10s", 40 - frame.indent * 2,
                     frame.span->name.c_str(),
                     FormatDuration(frame.span->duration_us).c_str());
    if (!frame.span->attributes.empty()) {
      out += "  {";
      for (size_t i = 0; i < frame.span->attributes.size(); ++i) {
        if (i > 0) out += ", ";
        out += frame.span->attributes[i].first + "=" +
               frame.span->attributes[i].second;
      }
      out += "}";
    }
    out += "\n";
    auto it = children.find(frame.span->id);
    if (it != children.end()) {
      for (auto kid = it->second.rbegin(); kid != it->second.rend();
           ++kid) {
        stack.push_back({*kid, frame.indent + 1});
      }
    }
  }
  return out;
}

std::string TraceCollector::ToJson() const {
  std::vector<SpanRecord> spans = Snapshot();
  std::string out = "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (i > 0) out += ",";
    out += StrFormat(
        "{\"id\":%llu,\"parent\":%llu,\"depth\":%d,\"name\":\"%s\","
        "\"start_us\":%llu,\"duration_us\":%llu,\"attributes\":{",
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent_id), s.depth,
        JsonEscape(s.name).c_str(),
        static_cast<unsigned long long>(s.start_us),
        static_cast<unsigned long long>(s.duration_us));
    for (size_t a = 0; a < s.attributes.size(); ++a) {
      if (a > 0) out += ",";
      out += "\"";
      out += JsonEscape(s.attributes[a].first);
      out += "\":\"";
      out += JsonEscape(s.attributes[a].second);
      out += "\"";
    }
    out += "}}";
  }
  out += "]";
  return out;
}

TraceSpan::TraceSpan(const char* name, const char* histogram, bool timed)
    : active_(TraceCollector::Enabled()) {
  if (histogram != nullptr && MetricsRegistry::Enabled()) {
    histogram_ = histogram;
  }
  timed_ = timed || active_ || histogram_ != nullptr;
  if (!timed_) return;
  start_ = std::chrono::steady_clock::now();
  if (!active_) return;
  TraceCollector& collector = TraceCollector::Global();
  record_.id = collector.NextId();
  record_.parent_id = tls_current_span;
  record_.depth = tls_depth;
  record_.name = name;
  record_.start_us = collector.MicrosAt(start_);
  saved_parent_ = tls_current_span;
  saved_grandparent_ = tls_parent_span;
  saved_depth_ = tls_depth;
  tls_parent_span = tls_current_span;
  tls_current_span = record_.id;
  tls_depth = tls_depth + 1;
}

double TraceSpan::Stop() {
  if (!timed_ || stopped_) return micros_;
  stopped_ = true;
  micros_ = std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - start_)
                .count();
  if (histogram_ != nullptr) {
    MetricsRegistry::Global().GetHistogram(histogram_).Observe(micros_);
  }
  return micros_;
}

TraceSpan::~TraceSpan() {
  Stop();
  if (!active_) return;
  tls_current_span = saved_parent_;
  tls_parent_span = saved_grandparent_;
  tls_depth = saved_depth_;
  record_.duration_us = static_cast<uint64_t>(micros_);
  TraceCollector::Global().Record(std::move(record_));
}

void TraceSpan::SetAttribute(const std::string& key, std::string value) {
  if (!active_) return;
  record_.attributes.emplace_back(key, std::move(value));
}

void TraceSpan::SetAttribute(const std::string& key, double value) {
  if (!active_) return;
  SetAttribute(key, FormatDouble(value));
}

}  // namespace ddgms
