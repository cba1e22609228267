#ifndef DDGMS_COMMON_LOG_H_
#define DDGMS_COMMON_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/sync.h"

namespace ddgms {

/// -------------------------------------------------------------------
/// Structured event log (the "flight recorder")
///
/// Severity-levelled records with typed key/value fields, automatically
/// stamped with the innermost live TraceSpan id/parent on the emitting
/// thread — so log lines, spans and metrics all join on one span id.
/// Finished records land in a thread-safe bounded in-memory ring
/// (oldest evicted first) and fan out to any registered sinks (stderr
/// text, JSONL file).
///
/// Like common/faults, common/metrics and common/trace the subsystem is
/// compiled in but inert by default: a disabled call site costs one
/// relaxed atomic-bool load and nothing else (no clock read, no string
/// building, no allocation). Call EventLog::Enable() (the shell does
/// this at startup) to start recording.
///
/// Event naming convention mirrors span names: a stable dotted
/// operation identifier, "<layer>.<what>" (e.g. "etl.run",
/// "mdx.slow_query", "quarantine.row"); variable detail goes in fields.
/// -------------------------------------------------------------------

enum class LogLevel {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
};

/// Canonical lower-case name ("debug", "info", "warn", "error").
const char* LogLevelName(LogLevel level);

/// Parses a level name (case-insensitive); ParseError otherwise.
Result<LogLevel> LogLevelFromName(std::string_view name);

/// One typed field value. Strings render quoted in JSON, numbers and
/// bools as bare literals, so downstream consumers keep the types.
class LogValue {
 public:
  LogValue(std::string v) : data_(std::move(v)) {}          // NOLINT
  LogValue(const char* v) : data_(std::string(v)) {}        // NOLINT
  LogValue(double v) : data_(v) {}                          // NOLINT
  LogValue(bool v) : data_(v) {}                            // NOLINT
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  LogValue(T v) : data_(static_cast<int64_t>(v)) {}         // NOLINT

  bool is_string() const {
    return std::holds_alternative<std::string>(data_);
  }
  /// Unquoted human-readable rendering.
  std::string ToString() const;
  /// JSON literal (quoted+escaped for strings; null for non-finite
  /// doubles).
  std::string ToJson() const;

 private:
  std::variant<std::string, int64_t, double, bool> data_;
};

/// One finished record as stored by the ring and handed to sinks.
struct LogRecord {
  /// Monotonic sequence number, assigned at record time under the ring
  /// lock — strictly increasing in ring order, never 0.
  uint64_t seq = 0;
  LogLevel level = LogLevel::kInfo;
  /// Stable dotted event identifier ("warehouse.build").
  std::string event;
  /// Optional free-form human text.
  std::string message;
  /// Innermost live TraceSpan on the emitting thread (0 when none).
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  /// Emit time in microseconds since the TraceCollector epoch — the
  /// same timeline as SpanRecord::start_us, so records and spans
  /// interleave directly.
  uint64_t time_us = 0;
  std::vector<std::pair<std::string, LogValue>> fields;

  /// "seq=N +T [level] event span=S/P message {k=v, ...}".
  std::string ToString() const;
  /// One JSON object (a JSONL line, without the trailing newline).
  std::string ToJson() const;
};

/// Receives every record accepted by the ring. Write() is called under
/// the EventLog lock — keep implementations fast and do not emit log
/// events from inside a sink.
class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void Write(const LogRecord& record) = 0;
};

/// Human-readable one-line-per-record sink on stderr.
class StderrLogSink : public LogSink {
 public:
  void Write(const LogRecord& record) override;
};

/// Appends each record as one JSON line to a file (flushed per record
/// so tail -f and crash post-mortems see complete lines).
class JsonlFileLogSink : public LogSink {
 public:
  /// Opens `path` for appending.
  static Result<std::unique_ptr<JsonlFileLogSink>> Open(
      const std::string& path);
  ~JsonlFileLogSink() override;

  void Write(const LogRecord& record) override;

 private:
  explicit JsonlFileLogSink(std::FILE* file) : file_(file) {}
  std::FILE* file_;
};

/// The global bounded event log. All methods are thread-safe.
class EventLog {
 public:
  static EventLog& Global();

  /// Master switch (one relaxed atomic, shared by all call sites).
  static void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  static void Disable() {
    enabled_.store(false, std::memory_order_relaxed);
  }
  static bool Enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Records below this level are dropped at the call site (no record
  /// is built). Default kInfo, so debug-rate events cost nothing until
  /// a session opts in.
  LogLevel min_level() const {
    return static_cast<LogLevel>(min_level_.load(std::memory_order_relaxed));
  }
  void set_min_level(LogLevel level) {
    min_level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }

  /// One check for call sites: enabled AND at/above the minimum level.
  static bool ShouldLog(LogLevel level) {
    return Enabled() && level >= Global().min_level();
  }

  /// Ring capacity (default 2048). Shrinking drops oldest records.
  void set_capacity(size_t capacity) EXCLUDES(mu_);
  size_t capacity() const EXCLUDES(mu_);

  /// Records in ring order (oldest first; seq strictly increasing).
  std::vector<LogRecord> Snapshot() const EXCLUDES(mu_);
  size_t size() const EXCLUDES(mu_);
  /// Records evicted from the ring since the last Clear().
  size_t dropped() const EXCLUDES(mu_);

  void Clear() EXCLUDES(mu_);

  /// Sinks receive every accepted record in addition to the ring.
  void AddSink(std::unique_ptr<LogSink> sink) EXCLUDES(mu_);
  void ClearSinks() EXCLUDES(mu_);

  /// Human-readable listing; `tail` > 0 keeps only the newest records.
  std::string ToString(size_t tail = 0) const;
  /// JSONL: one object per line; `tail` as above.
  std::string ToJsonl(size_t tail = 0) const;

  /// Internal (LogEvent): assigns seq + appends, evicting the oldest
  /// when full, then fans out to sinks.
  void Record(LogRecord record) EXCLUDES(mu_);

 private:
  EventLog() = default;

  mutable Mutex mu_;
  std::vector<LogRecord> ring_ GUARDED_BY(mu_);
  size_t capacity_ GUARDED_BY(mu_) = 2048;
  /// Next eviction slot once the ring is full.
  size_t head_ GUARDED_BY(mu_) = 0;
  size_t dropped_ GUARDED_BY(mu_) = 0;
  uint64_t next_seq_ GUARDED_BY(mu_) = 1;
  std::vector<std::unique_ptr<LogSink>> sinks_ GUARDED_BY(mu_);
  std::atomic<int> min_level_{static_cast<int>(LogLevel::kInfo)};
  static std::atomic<bool> enabled_;
};

/// Builder for one record: stamps level/event/span ids/time on
/// construction, collects fields via With(), records on destruction
/// (end of the full expression at the call site). Inert — every method
/// a no-op — when the log is disabled or the level is below the
/// minimum at construction.
class LogEvent {
 public:
  LogEvent(LogLevel level, const char* event);
  ~LogEvent();

  LogEvent(const LogEvent&) = delete;
  LogEvent& operator=(const LogEvent&) = delete;

  bool active() const { return active_; }

  LogEvent& Message(std::string text) {
    if (active_) record_.message = std::move(text);
    return *this;
  }

  /// Attaches one typed field. Accepts string, const char*, double,
  /// bool and integral values; disabled call sites never build
  /// LogValues.
  template <typename T>
  LogEvent& With(const std::string& key, T&& value) {
    if (active_) {
      record_.fields.emplace_back(key, LogValue(std::forward<T>(value)));
    }
    return *this;
  }

 private:
  bool active_ = false;
  LogRecord record_;
};

/// Call-site helpers matching the DDGMS_METRIC_* idiom: the LogEvent
/// constructor performs the one-relaxed-load gate, so these are plain
/// expression builders:
///   DDGMS_LOG_INFO("warehouse.build").With("fact_rows", n);
#define DDGMS_LOG(level, event) ::ddgms::LogEvent((level), (event))
#define DDGMS_LOG_DEBUG(event) DDGMS_LOG(::ddgms::LogLevel::kDebug, event)
#define DDGMS_LOG_INFO(event) DDGMS_LOG(::ddgms::LogLevel::kInfo, event)
#define DDGMS_LOG_WARN(event) DDGMS_LOG(::ddgms::LogLevel::kWarn, event)
#define DDGMS_LOG_ERROR(event) DDGMS_LOG(::ddgms::LogLevel::kError, event)

}  // namespace ddgms

#endif  // DDGMS_COMMON_LOG_H_
