#include "common/query_registry.h"

#include <utility>

#include "common/log.h"
#include "common/metrics.h"
#include "common/resource.h"
#include "common/strings.h"
#include "common/trace.h"

namespace ddgms {

std::atomic<bool> QueryRegistry::enabled_{false};

namespace {

/// The query the calling thread is currently executing (0 when none);
/// maintained by ScopedQueryRecord so deep layers (mdx/executor) can
/// report stages without threading an id through every signature.
thread_local uint64_t tls_current_query_id = 0;

}  // namespace

QueryRegistry& QueryRegistry::Global() {
  static QueryRegistry* registry = new QueryRegistry();
  return *registry;
}

uint64_t QueryRegistry::Begin(const std::string& kind,
                              const std::string& text) {
  if (!Enabled()) return 0;
  Record record;
  record.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  record.kind = kind;
  record.text = text;
  record.span_id = TraceCollector::CurrentSpanId();
  record.start = std::chrono::steady_clock::now();
  record.baseline_bytes = ResourceMeter::Global().root().allocated();
  const uint64_t id = record.id;
  size_t active_now = 0;
  {
    MutexLock lock(mu_);
    active_now = inflight_.size() + 1;
    inflight_.emplace(id, std::move(record));
  }
  DDGMS_METRIC_INC("ddgms.queries.started");
  DDGMS_METRIC_GAUGE_SET("ddgms.queries.active",
                         static_cast<double>(active_now));
  return id;
}

void QueryRegistry::SetStage(uint64_t id, const std::string& stage) {
  if (id == 0) return;
  MutexLock lock(mu_);
  auto it = inflight_.find(id);
  if (it != inflight_.end()) it->second.stage = stage;
}

void QueryRegistry::SetCurrentStage(const std::string& stage) {
  if (tls_current_query_id != 0) {
    Global().SetStage(tls_current_query_id, stage);
  }
}

void QueryRegistry::End(uint64_t id) {
  if (id == 0) return;
  const auto now = std::chrono::steady_clock::now();
  size_t active_now = 0;
  size_t stalled_now = 0;
  bool found = false;
  {
    MutexLock lock(mu_);
    auto it = inflight_.find(id);
    found = it != inflight_.end();
    if (found) {
      if (history_capacity_ > 0) {
        const Record& record = it->second;
        CompletedQuerySnapshot done;
        done.id = record.id;
        done.kind = record.kind;
        done.text = record.text;
        done.span_id = record.span_id;
        done.stage = record.stage;
        done.duration_ms =
            std::chrono::duration<double, std::milli>(now - record.start)
                .count();
        done.stalled = record.stalled;
        history_.push_back(std::move(done));
        while (history_.size() > history_capacity_) history_.pop_front();
      }
      inflight_.erase(it);
    }
    active_now = inflight_.size();
    for (const auto& [unused, record] : inflight_) {
      if (record.stalled) ++stalled_now;
    }
  }
  if (!found) return;
  DDGMS_METRIC_INC("ddgms.queries.finished");
  DDGMS_METRIC_GAUGE_SET("ddgms.queries.active",
                         static_cast<double>(active_now));
  DDGMS_METRIC_GAUGE_SET("ddgms.queries.stalled",
                         static_cast<double>(stalled_now));
}

InflightQuerySnapshot QueryRegistry::SnapshotRecord(
    const Record& record,
    std::chrono::steady_clock::time_point now) const {
  InflightQuerySnapshot snapshot;
  snapshot.id = record.id;
  snapshot.kind = record.kind;
  snapshot.text = record.text;
  snapshot.span_id = record.span_id;
  snapshot.stage = record.stage;
  snapshot.elapsed_ms =
      std::chrono::duration<double, std::milli>(now - record.start)
          .count();
  snapshot.resource_delta_bytes =
      static_cast<int64_t>(ResourceMeter::Global().root().allocated()) -
      static_cast<int64_t>(record.baseline_bytes);
  snapshot.stalled = record.stalled;
  return snapshot;
}

std::vector<InflightQuerySnapshot> QueryRegistry::Snapshot() const {
  const auto now = std::chrono::steady_clock::now();
  MutexLock lock(mu_);
  std::vector<InflightQuerySnapshot> out;
  out.reserve(inflight_.size());
  for (const auto& [unused, record] : inflight_) {
    out.push_back(SnapshotRecord(record, now));
  }
  return out;
}

std::string QueryRegistry::ToJson() const {
  std::string out = "[";
  bool first = true;
  for (const InflightQuerySnapshot& q : Snapshot()) {
    if (!first) out += ",";
    first = false;
    out += StrFormat(
        "{\"id\":%llu,\"kind\":\"%s\",\"text\":\"%s\","
        "\"span_id\":%llu,\"stage\":\"%s\",\"elapsed_ms\":%s,"
        "\"resource_delta_bytes\":%lld,\"stalled\":%s}",
        static_cast<unsigned long long>(q.id),
        JsonEscape(q.kind).c_str(), JsonEscape(q.text).c_str(),
        static_cast<unsigned long long>(q.span_id),
        JsonEscape(q.stage).c_str(),
        FormatDouble(q.elapsed_ms, 3).c_str(),
        static_cast<long long>(q.resource_delta_bytes),
        q.stalled ? "true" : "false");
  }
  out += "]";
  return out;
}

std::vector<CompletedQuerySnapshot> QueryRegistry::History() const {
  MutexLock lock(mu_);
  return std::vector<CompletedQuerySnapshot>(history_.begin(),
                                             history_.end());
}

std::string QueryRegistry::HistoryToJson() const {
  std::string out = "[";
  bool first = true;
  for (const CompletedQuerySnapshot& q : History()) {
    if (!first) out += ",";
    first = false;
    out += StrFormat(
        "{\"id\":%llu,\"kind\":\"%s\",\"text\":\"%s\","
        "\"span_id\":%llu,\"stage\":\"%s\",\"duration_ms\":%s,"
        "\"stalled\":%s}",
        static_cast<unsigned long long>(q.id),
        JsonEscape(q.kind).c_str(), JsonEscape(q.text).c_str(),
        static_cast<unsigned long long>(q.span_id),
        JsonEscape(q.stage).c_str(),
        FormatDouble(q.duration_ms, 3).c_str(),
        q.stalled ? "true" : "false");
  }
  out += "]";
  return out;
}

size_t QueryRegistry::history_capacity() const {
  MutexLock lock(mu_);
  return history_capacity_;
}

void QueryRegistry::set_history_capacity(size_t capacity) {
  MutexLock lock(mu_);
  history_capacity_ = capacity;
  while (history_.size() > history_capacity_) history_.pop_front();
}

size_t QueryRegistry::history_size() const {
  MutexLock lock(mu_);
  return history_.size();
}

size_t QueryRegistry::active() const {
  MutexLock lock(mu_);
  return inflight_.size();
}

void QueryRegistry::Sweep(int deadline_ms) {
  const auto now = std::chrono::steady_clock::now();
  // Collect the newly-over-deadline records under the lock, log after
  // releasing it (the event log takes its own lock).
  std::vector<InflightQuerySnapshot> newly_stalled;
  size_t stalled_now = 0;
  {
    MutexLock lock(mu_);
    for (auto& [unused, record] : inflight_) {
      if (record.stalled) {
        ++stalled_now;
        continue;
      }
      const double elapsed_ms =
          std::chrono::duration<double, std::milli>(now - record.start)
              .count();
      if (elapsed_ms > deadline_ms) {
        record.stalled = true;
        ++stalled_now;
        newly_stalled.push_back(SnapshotRecord(record, now));
      }
    }
  }
  for (const InflightQuerySnapshot& q : newly_stalled) {
    stalled_total_.fetch_add(1, std::memory_order_relaxed);
    DDGMS_METRIC_INC("ddgms.queries.stalled_total");
    DDGMS_LOG_WARN("mdx.stalled")
        .With("query_id", q.id)
        .With("kind", q.kind)
        .With("text", q.text)
        .With("stage", q.stage)
        .With("elapsed_ms", q.elapsed_ms)
        .With("deadline_ms", deadline_ms);
  }
  DDGMS_METRIC_GAUGE_SET("ddgms.queries.stalled",
                         static_cast<double>(stalled_now));
}

void QueryRegistry::WatchdogLoop(QueryWatchdogOptions options) {
  for (;;) {
    {
      MutexLock lock(mu_);
      watchdog_cv_.WaitFor(
          mu_, std::chrono::milliseconds(options.poll_ms), [this] {
            return watchdog_stop_.load(std::memory_order_relaxed);
          });
    }
    if (watchdog_stop_.load(std::memory_order_relaxed)) return;
    Sweep(options.deadline_ms);
  }
}

Status QueryRegistry::StartWatchdog(QueryWatchdogOptions options) {
  if (options.deadline_ms <= 0 || options.poll_ms <= 0) {
    return Status::InvalidArgument(
        "watchdog deadline_ms and poll_ms must be positive");
  }
  {
    MutexLock lock(mu_);
    if (watchdog_running_) {
      return Status::FailedPrecondition("watchdog already running");
    }
    watchdog_running_ = true;
  }
  watchdog_stop_.store(false, std::memory_order_relaxed);
  watchdog_ = std::thread([this, options] { WatchdogLoop(options); });
  DDGMS_LOG_INFO("queries.watchdog_start")
      .With("deadline_ms", options.deadline_ms)
      .With("poll_ms", options.poll_ms);
  return Status::OK();
}

Status QueryRegistry::StopWatchdog() {
  {
    MutexLock lock(mu_);
    if (!watchdog_running_) {
      return Status::FailedPrecondition("watchdog not running");
    }
  }
  watchdog_stop_.store(true, std::memory_order_relaxed);
  watchdog_cv_.NotifyAll();
  watchdog_.join();
  {
    MutexLock lock(mu_);
    watchdog_running_ = false;
  }
  DDGMS_LOG_INFO("queries.watchdog_stop");
  return Status::OK();
}

bool QueryRegistry::watchdog_running() const {
  MutexLock lock(mu_);
  return watchdog_running_;
}

void QueryRegistry::ResetForTesting() {
  MutexLock lock(mu_);
  inflight_.clear();
  history_.clear();
  stalled_total_.store(0, std::memory_order_relaxed);
  next_id_.store(1, std::memory_order_relaxed);
}

ScopedQueryRecord::ScopedQueryRecord(const std::string& kind,
                                     const std::string& text) {
  id_ = QueryRegistry::Global().Begin(kind, text);
  previous_tls_id_ = tls_current_query_id;
  if (id_ != 0) tls_current_query_id = id_;
}

ScopedQueryRecord::~ScopedQueryRecord() {
  if (id_ != 0) {
    QueryRegistry::Global().End(id_);
    tls_current_query_id = previous_tls_id_;
  }
}

}  // namespace ddgms
