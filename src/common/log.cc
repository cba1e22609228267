#include "common/log.h"

#include <cmath>

#include "common/strings.h"
#include "common/trace.h"

namespace ddgms {

std::atomic<bool> EventLog::enabled_{false};

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "info";
}

Result<LogLevel> LogLevelFromName(std::string_view name) {
  for (LogLevel level : {LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
                         LogLevel::kError}) {
    if (EqualsIgnoreCase(name, LogLevelName(level))) return level;
  }
  return Status::ParseError("unknown log level '" + std::string(name) +
                            "' (debug|info|warn|error)");
}

std::string LogValue::ToString() const {
  if (const auto* s = std::get_if<std::string>(&data_)) return *s;
  if (const auto* i = std::get_if<int64_t>(&data_)) {
    return StrFormat("%lld", static_cast<long long>(*i));
  }
  if (const auto* d = std::get_if<double>(&data_)) {
    return FormatDouble(*d);
  }
  return std::get<bool>(data_) ? "true" : "false";
}

std::string LogValue::ToJson() const {
  if (const auto* s = std::get_if<std::string>(&data_)) {
    std::string out = "\"";
    out += JsonEscape(*s);
    out += "\"";
    return out;
  }
  if (const auto* d = std::get_if<double>(&data_)) {
    if (!std::isfinite(*d)) return "null";
    return FormatDouble(*d, 9);
  }
  return ToString();  // int64 / bool render identically
}

std::string LogRecord::ToString() const {
  std::string out = StrFormat(
      "#%-5llu %+10.3fms [%-5s] %-28s",
      static_cast<unsigned long long>(seq),
      static_cast<double>(time_us) / 1000.0, LogLevelName(level),
      event.c_str());
  if (span_id != 0) {
    out += StrFormat(" span=%llu", static_cast<unsigned long long>(span_id));
    if (parent_span_id != 0) {
      out += StrFormat("/%llu",
                       static_cast<unsigned long long>(parent_span_id));
    }
  }
  if (!message.empty()) {
    out += " ";
    out += message;
  }
  if (!fields.empty()) {
    out += "  {";
    for (size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) out += ", ";
      out += fields[i].first + "=" + fields[i].second.ToString();
    }
    out += "}";
  }
  return out;
}

std::string LogRecord::ToJson() const {
  std::string out = StrFormat(
      "{\"seq\":%llu,\"time_us\":%llu,\"level\":\"%s\",\"event\":\"%s\","
      "\"span\":%llu,\"parent_span\":%llu",
      static_cast<unsigned long long>(seq),
      static_cast<unsigned long long>(time_us), LogLevelName(level),
      JsonEscape(event).c_str(), static_cast<unsigned long long>(span_id),
      static_cast<unsigned long long>(parent_span_id));
  if (!message.empty()) {
    out += ",\"message\":\"";
    out += JsonEscape(message);
    out += "\"";
  }
  out += ",\"fields\":{";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"";
    out += JsonEscape(fields[i].first);
    out += "\":";
    out += fields[i].second.ToJson();
  }
  out += "}}";
  return out;
}

void StderrLogSink::Write(const LogRecord& record) {
  std::string line = record.ToString();
  line += "\n";
  std::fwrite(line.data(), 1, line.size(), stderr);
}

Result<std::unique_ptr<JsonlFileLogSink>> JsonlFileLogSink::Open(
    const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "a");
  if (file == nullptr) {
    return Status::NotFound("cannot open log file '" + path +
                            "' for appending");
  }
  return std::unique_ptr<JsonlFileLogSink>(new JsonlFileLogSink(file));
}

JsonlFileLogSink::~JsonlFileLogSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void JsonlFileLogSink::Write(const LogRecord& record) {
  std::string line = record.ToJson();
  line += "\n";
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
}

EventLog& EventLog::Global() {
  static EventLog* log = new EventLog();
  return *log;
}

void EventLog::set_capacity(size_t capacity) {
  MutexLock lock(mu_);
  if (capacity == 0) capacity = 1;
  if (capacity < ring_.size()) {
    std::vector<LogRecord> kept;
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

size_t EventLog::capacity() const {
  MutexLock lock(mu_);
  return capacity_;
}

void EventLog::Record(LogRecord record) {
  MutexLock lock(mu_);
  record.seq = next_seq_++;
  for (std::unique_ptr<LogSink>& sink : sinks_) {
    sink->Write(record);
  }
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
    return;
  }
  ring_[head_] = std::move(record);
  head_ = (head_ + 1) % ring_.size();
  ++dropped_;
}

std::vector<LogRecord> EventLog::Snapshot() const {
  MutexLock lock(mu_);
  std::vector<LogRecord> out;
  out.reserve(ring_.size());
  const size_t n = ring_.size();
  for (size_t i = 0; i < n; ++i) {
    out.push_back(ring_[(head_ + i) % n]);
  }
  return out;
}

size_t EventLog::size() const {
  MutexLock lock(mu_);
  return ring_.size();
}

size_t EventLog::dropped() const {
  MutexLock lock(mu_);
  return dropped_;
}

void EventLog::Clear() {
  MutexLock lock(mu_);
  ring_.clear();
  head_ = 0;
  dropped_ = 0;
}

void EventLog::AddSink(std::unique_ptr<LogSink> sink) {
  MutexLock lock(mu_);
  sinks_.push_back(std::move(sink));
}

void EventLog::ClearSinks() {
  MutexLock lock(mu_);
  sinks_.clear();
}

std::string EventLog::ToString(size_t tail) const {
  std::vector<LogRecord> records = Snapshot();
  size_t evicted = dropped();
  size_t start = 0;
  if (tail > 0 && tail < records.size()) start = records.size() - tail;
  std::string out = StrFormat(
      "log: %zu records%s%s\n", records.size(),
      evicted > 0 ? StrFormat(" (%zu evicted)", evicted).c_str() : "",
      start > 0 ? StrFormat(", showing newest %zu", tail).c_str() : "");
  for (size_t i = start; i < records.size(); ++i) {
    out += records[i].ToString();
    out += "\n";
  }
  return out;
}

std::string EventLog::ToJsonl(size_t tail) const {
  std::vector<LogRecord> records = Snapshot();
  size_t start = 0;
  if (tail > 0 && tail < records.size()) start = records.size() - tail;
  std::string out;
  for (size_t i = start; i < records.size(); ++i) {
    out += records[i].ToJson();
    out += "\n";
  }
  return out;
}

LogEvent::LogEvent(LogLevel level, const char* event) {
  if (!EventLog::ShouldLog(level)) return;
  active_ = true;
  record_.level = level;
  record_.event = event;
  record_.span_id = TraceCollector::CurrentSpanId();
  record_.parent_span_id = TraceCollector::CurrentParentSpanId();
  record_.time_us = TraceCollector::Global().NowMicros();
}

LogEvent::~LogEvent() {
  if (!active_) return;
  EventLog::Global().Record(std::move(record_));
}

}  // namespace ddgms
