#include "server/observability.h"

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/metrics.h"
#include "common/profiler.h"
#include "common/resource.h"
#include "common/strings.h"
#include "common/trace.h"
#include "common/window.h"

namespace ddgms::server {

namespace {

constexpr char kPrometheusContentType[] =
    "text/plain; version=0.0.4; charset=utf-8";

std::string HtmlEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '&': out += "&amp;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

/// Parses a non-negative integer query parameter, clamped to
/// [0, max]; `fallback` on absence or garbage.
int64_t IntParam(const HttpRequest& request, const std::string& name,
                 int64_t fallback, int64_t max) {
  const std::string raw = request.QueryParam(name);
  if (raw.empty()) return fallback;
  Result<int64_t> parsed = ParseInt64(raw);
  if (!parsed.ok() || *parsed < 0) return fallback;
  return std::min(*parsed, max);
}

}  // namespace

ObservabilityServer::ObservabilityServer(ObservabilityOptions options,
                                         const core::DdDgms* dgms)
    : options_(std::move(options)),
      dgms_(dgms),
      server_(options_.http),
      started_at_(std::chrono::steady_clock::now()) {
  scanner_ = options_.anomaly_scanner;
  if (scanner_ == nullptr) {
    owned_scanner_ = std::make_unique<AnomalyScanner>(options_.anomaly);
    scanner_ = owned_scanner_.get();
  }
  RegisterRoutes();
}

ObservabilityServer::~ObservabilityServer() {
  if (server_.running()) Stop().IgnoreError();
}

Status ObservabilityServer::Start() {
  started_at_ = std::chrono::steady_clock::now();
  DDGMS_RETURN_IF_ERROR(server_.Start());
  if (options_.start_watchdog &&
      !QueryRegistry::Global().watchdog_running()) {
    const Status watchdog =
        QueryRegistry::Global().StartWatchdog(options_.watchdog);
    if (!watchdog.ok()) {
      server_.Stop().IgnoreError();
      return watchdog;
    }
    owns_watchdog_ = true;
  }
  if (options_.start_slo_evaluator &&
      !SloEngine::Global().evaluator_running()) {
    const Status evaluator =
        SloEngine::Global().StartEvaluator(options_.slo_evaluator);
    if (!evaluator.ok()) {
      Stop().IgnoreError();
      return evaluator;
    }
    owns_evaluator_ = true;
  }
  if (options_.start_anomaly_scanner && !scanner_->running()) {
    const Status scan = scanner_->Start();
    if (!scan.ok()) {
      Stop().IgnoreError();
      return scan;
    }
    owns_scanner_run_ = true;
  }
  return Status::OK();
}

Status ObservabilityServer::Stop() {
  Status status = server_.Stop();
  if (owns_watchdog_) {
    QueryRegistry::Global().StopWatchdog().IgnoreError();
    owns_watchdog_ = false;
  }
  if (owns_evaluator_) {
    SloEngine::Global().StopEvaluator().IgnoreError();
    owns_evaluator_ = false;
  }
  if (owns_scanner_run_) {
    scanner_->Stop().IgnoreError();
    owns_scanner_run_ = false;
  }
  return status;
}

double ObservabilityServer::UptimeSeconds() const {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now() - started_at_)
      .count();
}

void ObservabilityServer::RegisterRoutes() {
  // One literal Handle() call per route so ddgms_lint's endpoint-path
  // rule sees (and vets) every registered path.
  const auto bind = [this](HttpResponse (ObservabilityServer::*fn)(
                        const HttpRequest&) const) {
    return [this, fn](const HttpRequest& request) {
      return (this->*fn)(request);
    };
  };
  server_.Handle("GET", "/", bind(&ObservabilityServer::HandleStatusz));
  server_.Handle("GET", "/statusz",
                 bind(&ObservabilityServer::HandleStatusz));
  server_.Handle("GET", "/metrics",
                 bind(&ObservabilityServer::HandleMetrics));
  server_.Handle("GET", "/varz", bind(&ObservabilityServer::HandleVarz));
  server_.Handle("GET", "/healthz",
                 bind(&ObservabilityServer::HandleHealthz));
  server_.Handle("GET", "/readyz",
                 bind(&ObservabilityServer::HandleReadyz));
  server_.Handle("GET", "/queryz",
                 bind(&ObservabilityServer::HandleQueryz));
  server_.Handle("GET", "/tracez",
                 bind(&ObservabilityServer::HandleTracez));
  server_.Handle("GET", "/logz", bind(&ObservabilityServer::HandleLogz));
  server_.Handle("GET", "/resourcez",
                 bind(&ObservabilityServer::HandleResourcez));
  server_.Handle("GET", "/profilez",
                 bind(&ObservabilityServer::HandleProfilez));
  server_.Handle("GET", "/sloz", bind(&ObservabilityServer::HandleSloz));
  server_.Handle("GET", "/alertz",
                 bind(&ObservabilityServer::HandleAlertz));
}

HttpResponse ObservabilityServer::HandleMetrics(
    const HttpRequest&) const {
  HttpResponse response = HttpResponse::Text(
      MetricsRegistry::Global().Snapshot().ToPrometheusText());
  response.content_type = kPrometheusContentType;
  return response;
}

HttpResponse ObservabilityServer::HandleVarz(const HttpRequest&) const {
  return HttpResponse::Json(
      MetricsRegistry::Global().Snapshot().ToJson());
}

HttpResponse ObservabilityServer::HandleHealthz(
    const HttpRequest&) const {
  // Liveness only: if this handler runs, the process serves.
  return HttpResponse::Json(StrFormat(
      "{\"status\":\"ok\",\"uptime_seconds\":%s}",
      FormatDouble(UptimeSeconds(), 3).c_str()));
}

HttpResponse ObservabilityServer::HandleReadyz(
    const HttpRequest&) const {
  if (dgms_ == nullptr) {
    return HttpResponse::Json(
        "{\"status\":\"unavailable\",\"warehouse\":\"none\"}", 503);
  }
  std::string body = StrFormat(
      "{\"status\":\"ok\",\"warehouse_lineage\":%llu,"
      "\"fact_rows\":%zu,\"durable\":%s",
      static_cast<unsigned long long>(dgms_->warehouse().lineage()),
      dgms_->warehouse().fact().num_rows(),
      dgms_->durable() ? "true" : "false");
  if (dgms_->durable()) {
    body += StrFormat(
        ",\"durable_seq\":%llu",
        static_cast<unsigned long long>(dgms_->durable_store()->seq()));
  }
  body += "}";
  return HttpResponse::Json(std::move(body));
}

HttpResponse ObservabilityServer::HandleQueryz(
    const HttpRequest&) const {
  QueryRegistry& registry = QueryRegistry::Global();
  const std::string body = StrFormat(
      "{\"watchdog_running\":%s,\"deadline_ms\":%d,"
      "\"stalled_total\":%llu,\"queries\":%s,"
      "\"history_capacity\":%zu,\"recent_completed\":%s}",
      registry.watchdog_running() ? "true" : "false",
      options_.watchdog.deadline_ms,
      static_cast<unsigned long long>(registry.stalled_total()),
      registry.ToJson().c_str(), registry.history_capacity(),
      registry.HistoryToJson().c_str());
  return HttpResponse::Json(body);
}

HttpResponse ObservabilityServer::HandleTracez(
    const HttpRequest& request) const {
  if (request.QueryParam("format") == "json") {
    return HttpResponse::Json(TraceCollector::Global().ToJson());
  }
  return HttpResponse::Text(TraceCollector::Global().ToString());
}

HttpResponse ObservabilityServer::HandleLogz(
    const HttpRequest& request) const {
  LogLevel min_level = LogLevel::kDebug;
  const std::string level_name = request.QueryParam("level");
  if (!level_name.empty()) {
    Result<LogLevel> parsed = LogLevelFromName(level_name);
    if (!parsed.ok()) {
      return HttpResponse::BadRequest("unknown level '" + level_name +
                                      "'");
    }
    min_level = *parsed;
  }
  const size_t tail = static_cast<size_t>(
      IntParam(request, "tail", 100, 100000));

  std::vector<LogRecord> records = EventLog::Global().Snapshot();
  records.erase(std::remove_if(records.begin(), records.end(),
                               [min_level](const LogRecord& r) {
                                 return r.level < min_level;
                               }),
                records.end());
  if (records.size() > tail) {
    records.erase(records.begin(),
                  records.end() - static_cast<ptrdiff_t>(tail));
  }

  const bool json = request.QueryParam("format") == "json";
  std::string body;
  for (const LogRecord& record : records) {
    body += json ? record.ToJson() : record.ToString();
    body += "\n";
  }
  return json ? HttpResponse{200, "application/jsonl", std::move(body)}
              : HttpResponse::Text(std::move(body));
}

HttpResponse ObservabilityServer::HandleResourcez(
    const HttpRequest& request) const {
  const ResourceSnapshot snapshot = ResourceMeter::Global().Snapshot();
  if (request.QueryParam("format") == "json") {
    return HttpResponse::Json(snapshot.ToJson());
  }
  return HttpResponse::Text(snapshot.ToString());
}

HttpResponse ObservabilityServer::HandleProfilez(
    const HttpRequest& request) const {
  // Unlike the advisory ?tail= style parameters, a malformed duration
  // here would silently profile for the default — reject it instead.
  int64_t seconds = 2;
  const std::string raw = request.QueryParam("seconds");
  if (!raw.empty()) {
    Result<int64_t> parsed = ParseInt64(raw);
    if (!parsed.ok() || *parsed <= 0) {
      return HttpResponse::BadRequest(
          "seconds must be a positive integer, got '" + raw + "'");
    }
    seconds = std::min<int64_t>(
        *parsed, std::max(1, options_.max_profile_seconds));
  }
  Profiler& profiler = Profiler::Global();
  const Status started = profiler.Start(ProfilerOptions{});
  if (!started.ok()) {
    // Concurrent /profilez (or a shell-driven session): report the
    // conflict rather than queueing behind an unbounded wait.
    return HttpResponse::Text(
        "profiler busy: " + started.ToString() + "\n", 409);
  }
  std::this_thread::sleep_for(std::chrono::seconds(seconds));
  const Status stopped = profiler.Stop();
  if (!stopped.ok()) {
    return HttpResponse::InternalError(stopped.ToString());
  }
  Result<ProfileDump> dump = profiler.Dump();
  if (!dump.ok()) {
    return HttpResponse::InternalError(dump.status().ToString());
  }
  if (request.QueryParam("format") == "json") {
    return HttpResponse::Json(dump->ToJson());
  }
  // Collapsed stacks (flamegraph.pl input) with the summary as
  // comment lines, so the payload stays pipeable.
  std::string body;
  for (const std::string& line : Split(dump->Summary(), '\n')) {
    if (!line.empty()) body += "# " + line + "\n";
  }
  body += dump->ToCollapsed();
  return HttpResponse::Text(std::move(body));
}

HttpResponse ObservabilityServer::HandleSloz(const HttpRequest&) const {
  std::string body = "{\"slo\":";
  body += SloEngine::Global().ToJson();
  body += ",\"windows\":";
  body += WindowRegistry::Global().ToJson();
  body += "}";
  return HttpResponse::Json(std::move(body));
}

HttpResponse ObservabilityServer::HandleAlertz(const HttpRequest&) const {
  const std::vector<SloStatus> slos = SloEngine::Global().Snapshot();
  size_t firing = 0;
  size_t warning = 0;
  std::string alerts = "[";
  bool first = true;
  for (const SloStatus& slo : slos) {
    if (slo.state == SloState::kFiring) ++firing;
    if (slo.state == SloState::kWarning) ++warning;
    if (slo.state == SloState::kOk) continue;
    if (!first) alerts += ",";
    first = false;
    alerts += slo.ToJson();
  }
  alerts += "]";
  std::string body = StrFormat(
      "{\"firing\":%zu,\"warning\":%zu,\"evaluator_running\":%s,"
      "\"alerts\":%s,\"anomaly\":",
      firing, warning,
      SloEngine::Global().evaluator_running() ? "true" : "false",
      alerts.c_str());
  body += scanner_->ToJson();
  body += "}";
  return HttpResponse::Json(std::move(body));
}

HttpResponse ObservabilityServer::HandleStatusz(
    const HttpRequest&) const {
  const MetricsSnapshot metrics = MetricsRegistry::Global().Snapshot();
  QueryRegistry& queries = QueryRegistry::Global();

  std::string warehouse_line = "none";
  if (dgms_ != nullptr) {
    warehouse_line = StrFormat(
        "lineage %llu, %zu fact rows, %s",
        static_cast<unsigned long long>(dgms_->warehouse().lineage()),
        dgms_->warehouse().fact().num_rows(),
        dgms_->durable()
            ? StrFormat("durable (seq %llu)",
                        static_cast<unsigned long long>(
                            dgms_->durable_store()->seq()))
                  .c_str()
            : "in-memory");
  }

  std::string html =
      "<!doctype html><html><head><title>ddgms statusz</title>"
      "<style>body{font-family:monospace;margin:2em}"
      "table{border-collapse:collapse}"
      "td,th{border:1px solid #999;padding:4px 10px;text-align:left}"
      "</style></head><body><h1>ddgms observability</h1>";
  html += StrFormat(
      "<p>uptime %s s &middot; port %d &middot; warehouse: %s</p>",
      FormatDouble(UptimeSeconds(), 1).c_str(), server_.port(),
      HtmlEscape(warehouse_line).c_str());
  html += StrFormat(
      "<p>instruments: %zu counters, %zu gauges, %zu histograms "
      "&middot; in-flight queries: %zu &middot; stalled ever: %llu "
      "&middot; watchdog: %s</p>",
      metrics.counters.size(), metrics.gauges.size(),
      metrics.histograms.size(), queries.active(),
      static_cast<unsigned long long>(queries.stalled_total()),
      queries.watchdog_running() ? "running" : "off");
  html += "<table><tr><th>endpoint</th><th>what</th></tr>";
  struct Row {
    const char* path;
    const char* what;
  };
  static constexpr Row kRows[] = {
      {"/metrics", "Prometheus text exposition (scrape target)"},
      {"/varz", "metrics snapshot as JSON"},
      {"/healthz", "liveness probe"},
      {"/readyz", "readiness probe (warehouse state)"},
      {"/queryz", "live in-flight queries + stall watchdog"},
      {"/tracez", "recent trace spans (?format=json)"},
      {"/logz", "flight-recorder tail (?level=, ?tail=, ?format=json)"},
      {"/resourcez", "resource pool tree (?format=json)"},
      {"/profilez?seconds=2", "sampling profiler, collapsed stacks"},
      {"/sloz", "SLO engine state + sliding-window stats"},
      {"/alertz", "firing/warning SLOs + recent anomaly findings"},
  };
  for (const Row& row : kRows) {
    html += StrFormat(
        "<tr><td><a href=\"%s\">%s</a></td><td>%s</td></tr>", row.path,
        row.path, row.what);
  }
  html += "</table>";

  const std::vector<SloStatus> slos = SloEngine::Global().Snapshot();
  if (!slos.empty()) {
    html += "<h2>SLOs</h2><table><tr><th>slo</th><th>state</th>"
            "<th>burn (fast)</th><th>burn (slow)</th>"
            "<th>transitions</th></tr>";
    for (const SloStatus& slo : slos) {
      html += StrFormat(
          "<tr><td>%s</td><td>%s</td><td>%s</td><td>%s</td>"
          "<td>%llu</td></tr>",
          HtmlEscape(slo.name).c_str(), SloStateName(slo.state),
          FormatDouble(slo.fast_burn_rate, 3).c_str(),
          FormatDouble(slo.slow_burn_rate, 3).c_str(),
          static_cast<unsigned long long>(slo.transitions));
    }
    html += "</table>";
  }
  const std::vector<AnomalyFinding> findings = scanner_->findings();
  html += StrFormat(
      "<h2>anomaly scanner</h2><p>%s &middot; %llu scans &middot; "
      "%zu recent findings</p>",
      scanner_->running() ? "running" : "off",
      static_cast<unsigned long long>(scanner_->scans()),
      findings.size());
  if (!findings.empty()) {
    html += "<table><tr><th>target</th><th>scan</th>"
            "<th>value</th><th>median</th><th>robust z</th></tr>";
    const size_t shown = std::min<size_t>(findings.size(), 10);
    for (size_t i = findings.size() - shown; i < findings.size(); ++i) {
      const AnomalyFinding& f = findings[i];
      html += StrFormat(
          "<tr><td>%s</td><td>%lld</td><td>%s</td><td>%s</td>"
          "<td>%s</td></tr>",
          HtmlEscape(f.target).c_str(),
          static_cast<long long>(f.scan),
          FormatDouble(f.value, 4).c_str(),
          FormatDouble(f.median, 4).c_str(),
          FormatDouble(f.robust_z, 3).c_str());
    }
    html += "</table>";
  }
  html += "</body></html>";
  return HttpResponse::Html(std::move(html));
}

}  // namespace ddgms::server
