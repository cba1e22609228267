#ifndef DDGMS_SERVER_OBSERVABILITY_H_
#define DDGMS_SERVER_OBSERVABILITY_H_

#include <chrono>
#include <memory>
#include <string>

#include "common/http.h"
#include "common/query_registry.h"
#include "common/slo.h"
#include "common/status.h"
#include "core/dd_dgms.h"
#include "server/anomaly.h"

namespace ddgms::server {

/// -------------------------------------------------------------------
/// Observability server
///
/// The external introspection surface: one embedded HttpServer
/// (loopback-bound by default — see common/http.h for the security
/// posture) whose routes expose every signal the platform already
/// collects internally:
///
///   /            HTML overview (same page as /statusz)
///   /statusz     HTML overview: uptime, warehouse state, endpoints
///   /metrics     Prometheus text exposition (scrape target)
///   /varz        metrics snapshot as JSON
///   /healthz     liveness: 200 as long as the process serves
///   /readyz      readiness: 200 once a warehouse is attached, else 503
///   /queryz      live in-flight query table + watchdog state (JSON)
///   /tracez      recent trace spans (text; ?format=json)
///   /logz        flight-recorder tail (?level=warn, ?tail=100,
///                ?format=json)
///   /resourcez   ResourceMeter pool tree (text; ?format=json)
///   /profilez    runs the sampling profiler for ?seconds=N (400 on
///                non-numeric or non-positive values, clamped to the
///                configurable cap) and returns collapsed stacks
///   /sloz        SLO engine state + sliding-window stats (JSON)
///   /alertz      firing/warning SLOs + recent anomaly findings (JSON)
///
/// Start() also starts the QueryRegistry stall watchdog, the SLO
/// evaluator thread and the anomaly scanner (each configurable off),
/// so `serve` in the shell is the single switch that turns the process
/// into an externally observable — and self-judging — service.
/// -------------------------------------------------------------------

struct ObservabilityOptions {
  HttpServerOptions http;
  /// Start (and on Stop(), stop) the query stall watchdog alongside
  /// the listener — unless one is already running.
  bool start_watchdog = true;
  QueryWatchdogOptions watchdog;
  /// Upper bound for /profilez?seconds=N; numeric requests beyond it
  /// are clamped (non-numeric or non-positive ones get a 400).
  int max_profile_seconds = 30;
  /// Start (and on Stop(), stop) the SLO evaluator thread alongside
  /// the listener — unless one is already running.
  bool start_slo_evaluator = true;
  SloEvaluatorOptions slo_evaluator;
  /// Start (and on Stop(), stop) the anomaly scanner alongside the
  /// listener — unless the provided scanner is already running.
  bool start_anomaly_scanner = true;
  AnomalyScannerOptions anomaly;
  /// Non-owning; the shell passes its scanner so /alertz and the
  /// `alerts` command agree. When null, the server owns a scanner
  /// built from `anomaly`.
  AnomalyScanner* anomaly_scanner = nullptr;
};

class ObservabilityServer {
 public:
  /// `dgms` may be null: every endpoint still serves, /readyz reports
  /// 503 and warehouse fields read "none". The pointer is not owned
  /// and must stay valid while the server runs. Handlers only call
  /// const accessors, but DdDgms query paths are not internally
  /// synchronized — keep mutating commands on the thread that owns the
  /// facade (the shell does) and treat /readyz warehouse fields as
  /// advisory during a rebuild.
  explicit ObservabilityServer(ObservabilityOptions options = {},
                               const core::DdDgms* dgms = nullptr);
  ~ObservabilityServer();

  ObservabilityServer(const ObservabilityServer&) = delete;
  ObservabilityServer& operator=(const ObservabilityServer&) = delete;

  Status Start();
  Status Stop();

  bool running() const { return server_.running(); }
  /// Bound port (resolves port 0); 0 before Start().
  int port() const { return server_.port(); }

  /// The underlying listener (tests register extra routes before
  /// Start()).
  HttpServer& http() { return server_; }

 private:
  void RegisterRoutes();

  HttpResponse HandleStatusz(const HttpRequest& request) const;
  HttpResponse HandleMetrics(const HttpRequest& request) const;
  HttpResponse HandleVarz(const HttpRequest& request) const;
  HttpResponse HandleHealthz(const HttpRequest& request) const;
  HttpResponse HandleReadyz(const HttpRequest& request) const;
  HttpResponse HandleQueryz(const HttpRequest& request) const;
  HttpResponse HandleTracez(const HttpRequest& request) const;
  HttpResponse HandleLogz(const HttpRequest& request) const;
  HttpResponse HandleResourcez(const HttpRequest& request) const;
  HttpResponse HandleProfilez(const HttpRequest& request) const;
  HttpResponse HandleSloz(const HttpRequest& request) const;
  HttpResponse HandleAlertz(const HttpRequest& request) const;

  double UptimeSeconds() const;

  ObservabilityOptions options_;
  const core::DdDgms* dgms_;
  HttpServer server_;
  /// True when Start() started the watchdog (and Stop() should stop
  /// it); false when one was already running or start_watchdog is off.
  bool owns_watchdog_ = false;
  /// Same ownership discipline for the SLO evaluator thread.
  bool owns_evaluator_ = false;
  /// Server-owned scanner when none was provided via options.
  std::unique_ptr<AnomalyScanner> owned_scanner_;
  /// The scanner /alertz reads: the provided one, or owned_scanner_.
  AnomalyScanner* scanner_ = nullptr;
  /// True when Start() started the scanner thread.
  bool owns_scanner_run_ = false;
  std::chrono::steady_clock::time_point started_at_;
};

}  // namespace ddgms::server

#endif  // DDGMS_SERVER_OBSERVABILITY_H_
