#ifndef DDGMS_COMMON_TRACE_H_
#define DDGMS_COMMON_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/sync.h"

namespace ddgms {

/// -------------------------------------------------------------------
/// Pipeline tracing
///
/// RAII spans record how long each stage of a flow took and how the
/// stages nest: a span opened while another span is live on the same
/// thread becomes its child. Finished spans land in a global
/// fixed-capacity ring buffer (oldest evicted first) that the shell's
/// `trace` command renders as a tree.
///
/// A span may also name a latency histogram, which the same two clock
/// readings feed while the metrics registry is enabled.
///
/// Like common/faults and common/metrics the collector is compiled in
/// but inert by default: a span with every collector off costs a
/// relaxed atomic load per collector and nothing else (no clock read,
/// no allocation).
/// -------------------------------------------------------------------

/// One finished span as stored by the collector.
struct SpanRecord {
  uint64_t id = 0;
  /// Enclosing span on the same thread; 0 for a root span.
  uint64_t parent_id = 0;
  /// Nesting depth at record time (root = 0). Informational — tree
  /// rendering recomputes structure from parent links.
  int depth = 0;
  std::string name;
  /// Start offset from the collector epoch (first Global() use).
  uint64_t start_us = 0;
  uint64_t duration_us = 0;
  std::vector<std::pair<std::string, std::string>> attributes;
};

/// Global ring-buffer collector of finished spans. Thread-safe.
class TraceCollector {
 public:
  static TraceCollector& Global();

  static void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  static void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  static bool Enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Ring capacity (default 4096). Shrinking drops oldest spans.
  void set_capacity(size_t capacity) EXCLUDES(mu_);
  size_t capacity() const EXCLUDES(mu_);

  /// Finished spans in completion order (oldest first).
  std::vector<SpanRecord> Snapshot() const EXCLUDES(mu_);
  size_t size() const EXCLUDES(mu_);
  /// Spans evicted from the ring since the last Clear().
  size_t dropped() const EXCLUDES(mu_);

  void Clear() EXCLUDES(mu_);

  /// Renders the snapshot as an indented tree (children under their
  /// parents, ordered by start time). Spans whose parent was evicted
  /// or is still open are shown at the root.
  std::string ToString() const;
  /// JSON array of span objects, completion order.
  std::string ToJson() const;

  /// Internal (TraceSpan): appends a finished span, evicting the
  /// oldest when full.
  void Record(SpanRecord record) EXCLUDES(mu_);
  /// Internal (TraceSpan): allocates a span id (monotonic, never 0).
  uint64_t NextId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Microseconds since the collector epoch.
  uint64_t NowMicros() const {
    return MicrosAt(std::chrono::steady_clock::now());
  }
  /// Microseconds from the collector epoch to `t`.
  uint64_t MicrosAt(std::chrono::steady_clock::time_point t) const;

  /// Id of the innermost live span on the calling thread (0 when no
  /// span is open, or tracing was disabled when it opened). The event
  /// log stamps every record with this so logs, spans and metrics
  /// join on one id.
  static uint64_t CurrentSpanId();
  /// Parent id of the innermost live span on the calling thread (0 at
  /// the root).
  static uint64_t CurrentParentSpanId();

 private:
  TraceCollector();

  mutable Mutex mu_;
  std::vector<SpanRecord> ring_ GUARDED_BY(mu_);
  size_t capacity_ GUARDED_BY(mu_) = 4096;
  /// Next eviction slot once the ring is full.
  size_t head_ GUARDED_BY(mu_) = 0;
  size_t dropped_ GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> next_id_{1};
  std::chrono::steady_clock::time_point epoch_;
  static std::atomic<bool> enabled_;
};

/// RAII span: opens on construction, records on destruction. Must be
/// destroyed on the thread that created it (parentage is tracked in a
/// thread-local stack). When the collector is disabled at construction
/// the span is inert and every attribute method is a no-op.
class TraceSpan {
 public:
  /// `name` should be a stable operation identifier
  /// ("warehouse.build", "etl.step"); put variable detail in
  /// attributes so disabled call sites never build strings.
  /// `histogram` names a latency histogram, in microseconds.
  explicit TraceSpan(const char* name, const char* histogram = nullptr)
      : TraceSpan(name, histogram, /*timed=*/false) {}
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool active() const { return active_; }
  uint64_t id() const { return record_.id; }

  /// Takes the closing clock reading (once) and observes the histogram;
  /// returns the duration in microseconds, 0 with no clock read. The span
  /// stays the thread's innermost until destroyed, so events logged
  /// after Stop() still carry its id.
  double Stop();

  /// Attaches key=value detail (no-op when inert).
  void SetAttribute(const std::string& key, std::string value);
  void SetAttribute(const std::string& key, const char* value) {
    SetAttribute(key, std::string(value));
  }
  void SetAttribute(const std::string& key, double value);
  template <typename T>
    requires std::is_integral_v<T>
  void SetAttribute(const std::string& key, T value) {
    if (!active_) return;
    SetAttribute(key, std::to_string(value));
  }

 protected:
  /// `timed`: read the clock even with every collector off, for a
  /// subclass with a sink of its own (olap::Stage's plan node).
  TraceSpan(const char* name, const char* histogram, bool timed);

 private:
  bool active_ = false;
  bool timed_ = false;
  bool stopped_ = false;
  const char* histogram_ = nullptr;  // null unless a sample is owed
  double micros_ = 0.0;
  SpanRecord record_;
  std::chrono::steady_clock::time_point start_;
  uint64_t saved_parent_ = 0;
  uint64_t saved_grandparent_ = 0;
  int saved_depth_ = 0;
};

}  // namespace ddgms

#endif  // DDGMS_COMMON_TRACE_H_
