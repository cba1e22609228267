// Interactive shell over the DD-DGMS: load a CSV extract (or generate a
// synthetic cohort), then issue SQL / MDX queries and platform commands
// line by line. Reads stdin, so it scripts cleanly:
//
//   echo 'sql SELECT Gender, count(*) FROM extract GROUP BY Gender' |
//     ./ddgms_shell --patients 100
//
// Commands:
//   sql <SELECT ...>     OLTP query (tables: extract, fact, dimensions)
//   mdx <SELECT ...>     OLAP query rendered as a grid
//   explain <SELECT ...> MDX query with a per-stage timing profile
//   explain analyze <SELECT ...>  executed per-operator plan tree with
//                        times, cardinalities, cache hit/miss and bytes
//   profile start [hz] | stop | dump [collapsed|json]
//                        sampling wall-clock profiler (flamegraph
//                        export via 'dump collapsed')
//   dims                 list dimensions and member counts
//   report               transformation report
//   quarantine           rows quarantined by the last (lenient) load
//   stats [json|prom|reset|resource]  metrics registry, or the
//                        resource-pool accounting snapshot
//   trace [json|clear|capacity N]  recorded span tree
//   log [json|tail N|clear|level L]  flight-recorder event log
//   kb                   knowledge-base contents
//   save <dir>           persist the warehouse as CSV
//   snapshot <dir>       durable binary snapshot (first call attaches
//                        the store; later calls checkpoint into it)
//   append <n>           acquire n synthetic rows (journaled when a
//                        store is attached)
//   load <dir>           strict load from a durable store
//   recover <dir>        crash recovery from a durable store
//   serve [--port N]     start the HTTP observability server
//                        (loopback; port 0 = ephemeral); 'serve stop'
//                        stops it; see /statusz for the endpoint index
//   slo [json|eval]      SLO engine state (burn rates, state machine);
//                        'slo eval' forces one evaluation
//   alerts [json]        firing/warning SLOs + recent anomaly findings
//   anomaly [scan|json]  anomaly scanner status; 'anomaly scan' forces
//                        one synchronous scan of the metrics registry
//   slow <micros>        test hook: delay every MDX execute stage (to
//                        watch /queryz catch a stalled query)
//   help / quit
//
// Pass --lenient to quarantine corrupt rows at every stage instead of
// failing the load on the first bad row. Metrics, tracing and the
// event log are enabled before the build, so `stats`, `trace` and
// `log` cover the load itself as well as interactive queries. Pass
// --log-jsonl <path> to additionally append every event to a JSONL
// file.
//
// --crash-after-bytes N kills the process (exit 137, no flushes — a
// simulated power cut) once the durable io layer has written N more
// bytes, tearing the write in flight. CI uses it to rehearse genuine
// mid-snapshot crashes and then `recover` from the wreckage.
//
// --serve-port N starts the observability server immediately after the
// build (equivalent to typing `serve --port N`). SIGTERM / SIGINT
// interrupt the command loop and shut the server down cleanly (exit
// 0), so a supervised deployment can stop the process without losing
// in-flight scrapes mid-response.

#include <csignal>
#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/io.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/profiler.h"
#include "common/query_registry.h"
#include "common/resource.h"
#include "common/slo.h"
#include "common/strings.h"
#include "common/trace.h"
#include "common/window.h"
#include "core/dd_dgms.h"
#include "discri/cohort.h"
#include "discri/model.h"
#include "server/anomaly.h"
#include "server/observability.h"
#include "table/describe.h"
#include "warehouse/persist.h"

namespace {

using namespace ddgms;  // NOLINT: example brevity

/// Set by the SIGTERM/SIGINT handler; the command loop checks it and
/// getline returns early on EINTR (sigaction installs the handler
/// without SA_RESTART for exactly that reason).
volatile std::sig_atomic_t g_shutdown_requested = 0;

void HandleShutdownSignal(int) { g_shutdown_requested = 1; }

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  sql <SELECT ...>   query extract/fact/dimension tables\n"
      "  mdx <SELECT ...>   OLAP query (cube: MedicalMeasures)\n"
      "  explain <SELECT ...>  MDX query + per-stage timing profile\n"
      "  explain analyze <SELECT ...>  executed per-operator plan\n"
      "                     tree (times, rows, cache, bytes)\n"
      "  profile start [hz] | stop | dump [collapsed|json]\n"
      "                     sampling profiler; 'dump collapsed' is\n"
      "                     flamegraph.pl / speedscope input\n"
      "  dims               list dimensions\n"
      "  report             transformation report\n"
      "  quarantine         rows quarantined by the last load\n"
      "  stats [json|prom|reset|resource]  metrics snapshot or\n"
      "                     resource-pool accounting\n"
      "  trace [json|clear|capacity N]  recorded span tree\n"
      "  log [json|tail N|clear|level L]  flight-recorder events\n"
      "  describe           per-column profile of the extract\n"
      "  kb                 knowledge base contents\n"
      "  save <dir>         persist warehouse to a directory (CSV)\n"
      "  snapshot <dir>     durable binary snapshot (attach/checkpoint)\n"
      "  append <n>         acquire n synthetic rows (journaled when\n"
      "                     a durable store is attached)\n"
      "  load <dir>         strict load from a durable store\n"
      "  recover <dir>      crash recovery from a durable store\n"
      "  serve [--port N]   HTTP observability server on 127.0.0.1\n"
      "                     (port 0 = ephemeral); 'serve stop' stops;\n"
      "                     browse /statusz for the endpoint index\n"
      "  slo [json|eval]    SLO engine state (multi-window burn rates);\n"
      "                     'slo eval' forces one evaluation\n"
      "  alerts [json]      firing/warning SLOs + anomaly findings\n"
      "  anomaly [scan|json]  anomaly scanner status; 'anomaly scan'\n"
      "                     forces one scan of the metrics registry\n"
      "  slow <micros>      delay every MDX execute stage (test hook\n"
      "                     for watching /queryz flag a stalled query)\n"
      "  help | quit\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string csv_path;
  std::string log_jsonl_path;
  size_t patients = 300;
  int serve_port = -1;  // -1 = do not serve; 0 = ephemeral
  int watchdog_deadline_ms = 10000;
  core::RobustnessOptions robustness;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (std::strcmp(argv[i], "--patients") == 0 && i + 1 < argc) {
      auto n = ParseInt64(argv[++i]);
      if (n.ok() && *n > 0) patients = static_cast<size_t>(*n);
    } else if (std::strcmp(argv[i], "--lenient") == 0) {
      robustness.error_mode = ErrorMode::kLenient;
    } else if (std::strcmp(argv[i], "--log-jsonl") == 0 && i + 1 < argc) {
      log_jsonl_path = argv[++i];
    } else if (std::strcmp(argv[i], "--crash-after-bytes") == 0 &&
               i + 1 < argc) {
      auto n = ParseInt64(argv[++i]);
      if (n.ok() && *n >= 0) SetCrashAfterBytes(*n);
    } else if (std::strcmp(argv[i], "--serve-port") == 0 && i + 1 < argc) {
      auto n = ParseInt64(argv[++i]);
      if (n.ok() && *n >= 0) serve_port = static_cast<int>(*n);
    } else if (std::strcmp(argv[i], "--watchdog-deadline-ms") == 0 &&
               i + 1 < argc) {
      auto n = ParseInt64(argv[++i]);
      if (n.ok() && *n > 0) watchdog_deadline_ms = static_cast<int>(*n);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--csv extract.csv | --patients N] "
                   "[--lenient] [--log-jsonl events.jsonl] "
                   "[--crash-after-bytes N] [--serve-port N] "
                   "[--watchdog-deadline-ms N]\n",
                   argv[0]);
      return 2;
    }
  }

  // Turn observability on before the load so the build's spans,
  // counters and events are visible to `stats` / `trace` / `log`.
  MetricsRegistry::Enable();
  TraceCollector::Enable();
  EventLog::Enable();
  ResourceMeter::Enable();
  QueryRegistry::Enable();
  WindowRegistry::Enable();
  SloEngine::Enable();

  // Clean shutdown on SIGTERM/SIGINT: no SA_RESTART, so a blocked
  // getline returns with EINTR and the command loop falls through to
  // the teardown path (stops the observability server, exits 0).
  struct sigaction shutdown_action {};
  shutdown_action.sa_handler = HandleShutdownSignal;
  sigemptyset(&shutdown_action.sa_mask);
  shutdown_action.sa_flags = 0;
  sigaction(SIGTERM, &shutdown_action, nullptr);
  sigaction(SIGINT, &shutdown_action, nullptr);
  if (!log_jsonl_path.empty()) {
    auto sink = JsonlFileLogSink::Open(log_jsonl_path);
    if (!sink.ok()) {
      std::fprintf(stderr, "log sink: %s\n",
                   sink.status().ToString().c_str());
      return 2;
    }
    EventLog::Global().AddSink(std::move(sink).value());
  }

  QuarantineReport ingest_quarantine;
  Result<Table> raw = Status::NotFound("unset");
  if (!csv_path.empty()) {
    CsvReadOptions csv_options;
    csv_options.error_mode = robustness.error_mode;
    csv_options.quarantine = &ingest_quarantine;
    raw = Table::FromCsvFile(csv_path, csv_options);
  } else {
    discri::CohortOptions opt;
    opt.num_patients = patients;
    raw = discri::GenerateCohort(opt);
  }
  if (!raw.ok()) {
    std::fprintf(stderr, "load: %s\n", raw.status().ToString().c_str());
    return 1;
  }
  auto dgms = core::DdDgms::Build(
      std::move(raw).value(), discri::MakeDiscriPipeline(),
      discri::MakeDiscriSchemaDef(), robustness,
      std::move(ingest_quarantine));
  if (!dgms.ok()) {
    std::fprintf(stderr, "build: %s\n",
                 dgms.status().ToString().c_str());
    return 1;
  }
  std::printf("ddgms shell — %zu fact rows, %zu dimensions. Type "
              "'help' for commands.\n",
              dgms->warehouse().num_fact_rows(),
              dgms->warehouse().dimensions().size());

  // Stock objectives over instruments the shell just enabled; the
  // evaluator thread only starts with `serve`, but `slo eval` and the
  // registered windows work immediately.
  SloEngine::Global().RegisterDefaultSlos().IgnoreError();

  // The shell owns the anomaly scanner (and hands it to the server via
  // options) so the `alerts` / `anomaly` commands and /alertz agree.
  // It reads only the metrics registry, so it and its history outlive
  // load/recover.
  server::AnomalyScanner scanner;

  // The facade pointer handed to the server stays valid across
  // `load`/`recover`: those move-assign into the same Result storage.
  std::unique_ptr<server::ObservabilityServer> obs_server;
  const auto start_server = [&](int port) {
    if (obs_server != nullptr && obs_server->running()) {
      std::printf("server already listening on 127.0.0.1:%d\n",
                  obs_server->port());
      return;
    }
    server::ObservabilityOptions options;
    options.http.port = port;
    options.watchdog.deadline_ms = watchdog_deadline_ms;
    options.anomaly_scanner = &scanner;
    obs_server = std::make_unique<server::ObservabilityServer>(
        std::move(options), &*dgms);
    Status st = obs_server->Start();
    if (st.ok()) {
      std::printf("observability server listening on 127.0.0.1:%d\n",
                  obs_server->port());
    } else {
      std::printf("error: %s\n", st.ToString().c_str());
      obs_server.reset();
    }
    std::fflush(stdout);
  };
  // load/recover replace the facade the server's handlers read.
  // Quiesce the server before the swap and restart it after.
  const auto before_facade_swap = [&]() -> int {
    int restart_port = -1;
    if (obs_server != nullptr && obs_server->running()) {
      restart_port = obs_server->port();
      obs_server->Stop().IgnoreError();
    }
    obs_server.reset();
    return restart_port;
  };
  const auto after_facade_swap = [&](int restart_port) {
    if (restart_port >= 0) start_server(restart_port);
  };
  if (serve_port >= 0) start_server(serve_port);

  std::string line;
  while (!g_shutdown_requested &&
         (std::printf("> "), std::fflush(stdout),
          std::getline(std::cin, line))) {
    std::string trimmed(Trim(line));
    if (trimmed.empty()) continue;
    if (trimmed == "quit" || trimmed == "exit") break;
    if (trimmed == "help") {
      PrintHelp();
      continue;
    }
    if (trimmed == "dims") {
      for (const auto& dim : dgms->warehouse().dimensions()) {
        std::printf("  %-24s %6zu members\n", dim.name().c_str(),
                    dim.num_members());
      }
      continue;
    }
    if (trimmed == "report") {
      std::printf("%s\n", dgms->transform_report().ToString().c_str());
      continue;
    }
    if (trimmed == "quarantine") {
      const QuarantineReport& q = dgms->transform_report().quarantine;
      if (q.empty()) {
        std::printf("no quarantined rows%s\n",
                    robustness.error_mode == ErrorMode::kLenient
                        ? ""
                        : " (strict mode; rerun with --lenient)");
      } else {
        std::printf("%s\n", q.ToString().c_str());
      }
      continue;
    }
    if (trimmed == "stats" || StartsWith(trimmed, "stats ")) {
      std::string mode(Trim(trimmed.substr(5)));
      if (mode == "reset") {
        MetricsRegistry::Global().ResetValues();
        std::printf("metrics reset\n");
        continue;
      }
      if (mode == "resource") {
        std::printf("%s", ResourceMeter::Global().Snapshot().ToString().c_str());
        continue;
      }
      MetricsSnapshot snapshot = core::DdDgms::MetricsSnapshot();
      if (mode == "json") {
        std::printf("%s\n", snapshot.ToJson().c_str());
      } else if (mode == "prom") {
        std::printf("%s", snapshot.ToPrometheusText().c_str());
      } else {
        std::printf("%s", snapshot.ToString().c_str());
      }
      continue;
    }
    if (trimmed == "trace" || StartsWith(trimmed, "trace ")) {
      std::string mode(Trim(trimmed.substr(5)));
      TraceCollector& collector = TraceCollector::Global();
      if (mode == "clear") {
        collector.Clear();
        std::printf("trace buffer cleared\n");
      } else if (StartsWith(mode, "capacity")) {
        auto n = ParseInt64(Trim(mode.substr(8)));
        if (n.ok() && *n > 0) {
          collector.set_capacity(static_cast<size_t>(*n));
          std::printf("trace capacity set to %lld\n",
                      static_cast<long long>(*n));
        } else {
          std::printf("usage: trace capacity <N>\n");
        }
      } else if (mode == "json") {
        std::printf("%s\n", collector.ToJson().c_str());
      } else {
        std::printf("%s", collector.ToString().c_str());
      }
      continue;
    }
    if (trimmed == "log" || StartsWith(trimmed, "log ")) {
      std::string mode(Trim(trimmed.substr(3)));
      EventLog& log = EventLog::Global();
      if (mode == "clear") {
        log.Clear();
        std::printf("event log cleared\n");
      } else if (mode == "json") {
        std::printf("%s", log.ToJsonl().c_str());
      } else if (StartsWith(mode, "tail")) {
        auto n = ParseInt64(Trim(mode.substr(4)));
        if (n.ok() && *n > 0) {
          std::printf("%s", log.ToString(static_cast<size_t>(*n)).c_str());
        } else {
          std::printf("usage: log tail <N>\n");
        }
      } else if (StartsWith(mode, "level")) {
        auto level = LogLevelFromName(Trim(mode.substr(5)));
        if (level.ok()) {
          log.set_min_level(*level);
          std::printf("log level set to %s\n", LogLevelName(*level));
        } else {
          std::printf("%s\n", level.status().ToString().c_str());
        }
      } else {
        std::printf("%s", log.ToString().c_str());
      }
      continue;
    }
    if (StartsWith(trimmed, "explain analyze ")) {
      auto plan = dgms->ExplainMdx(trimmed.substr(16));
      if (plan.ok()) {
        std::printf("%s", plan->ToString().c_str());
      } else {
        std::printf("error: %s\n", plan.status().ToString().c_str());
      }
      continue;
    }
    if (trimmed == "profile" || StartsWith(trimmed, "profile ")) {
      std::string mode(Trim(trimmed.substr(7)));
      Profiler& profiler = Profiler::Global();
      if (StartsWith(mode, "start")) {
        ProfilerOptions options;
        auto hz = ParseInt64(Trim(mode.substr(5)));
        if (hz.ok() && *hz > 0) options.hz = static_cast<int>(*hz);
        Status st = profiler.Start(options);
        if (st.ok()) {
          std::printf("profiler sampling at %d Hz\n", options.hz);
        } else {
          std::printf("error: %s\n", st.ToString().c_str());
        }
      } else if (mode == "stop") {
        Status st = profiler.Stop();
        if (st.ok()) {
          std::printf("profiler stopped after %llu samples\n",
                      static_cast<unsigned long long>(
                          profiler.samples_captured()));
        } else {
          std::printf("error: %s\n", st.ToString().c_str());
        }
      } else if (StartsWith(mode, "dump")) {
        std::string format(Trim(mode.substr(4)));
        auto dump = profiler.Dump();
        if (!dump.ok()) {
          std::printf("error: %s\n", dump.status().ToString().c_str());
        } else if (format == "json") {
          std::printf("%s\n", dump->ToJson().c_str());
        } else if (format == "collapsed") {
          std::printf("%s", dump->ToCollapsed().c_str());
        } else {
          std::printf("%s\n", dump->Summary().c_str());
        }
      } else {
        std::printf("profiler %s, %llu samples captured\n",
                    profiler.running() ? "running" : "stopped",
                    static_cast<unsigned long long>(
                        profiler.samples_captured()));
      }
      continue;
    }
    if (StartsWith(trimmed, "explain ")) {
      auto result = dgms->QueryMdx(trimmed.substr(8));
      if (!result.ok()) {
        std::printf("error: %s\n", result.status().ToString().c_str());
        continue;
      }
      std::printf("%s", result->profile.ToString().c_str());
      auto grid = result->ToGrid();
      if (grid.ok()) {
        std::printf("%s", grid->ToPrettyString(40).c_str());
      }
      continue;
    }
    if (trimmed == "describe") {
      auto profile = Describe(dgms->transformed());
      if (profile.ok()) {
        std::printf("%s", profile->ToPrettyString(80).c_str());
      }
      continue;
    }
    if (trimmed == "kb") {
      auto table = dgms->knowledge_base().ToTable();
      if (table.ok()) {
        std::printf("%s", table->ToPrettyString(50).c_str());
      }
      continue;
    }
    if (StartsWith(trimmed, "save ")) {
      std::string dir(Trim(trimmed.substr(5)));
      Status st = warehouse::SaveWarehouse(dgms->warehouse(), dir);
      std::printf("%s\n", st.ok() ? ("saved to " + dir).c_str()
                                  : st.ToString().c_str());
      continue;
    }
    if (StartsWith(trimmed, "snapshot ")) {
      std::string dir(Trim(trimmed.substr(9)));
      ::mkdir(dir.c_str(), 0755);  // idempotent; store requires it
      Status st = dgms->durable()
                      ? dgms->Checkpoint()
                      : dgms->AttachDurableStorage(dir);
      if (st.ok()) {
        std::printf("snapshot generation %llu committed to %s\n",
                    static_cast<unsigned long long>(
                        dgms->durable_store()->seq()),
                    dgms->durable_store()->dir().c_str());
      } else {
        std::printf("error: %s\n", st.ToString().c_str());
      }
      continue;
    }
    if (StartsWith(trimmed, "append ")) {
      auto n = ParseInt64(Trim(trimmed.substr(7)));
      if (!n.ok() || *n <= 0) {
        std::printf("usage: append <rows>\n");
        continue;
      }
      discri::CohortOptions opt;
      opt.num_patients = static_cast<size_t>(*n);
      opt.seed = 20130408 + dgms->warehouse().num_fact_rows();
      auto batch = discri::GenerateCohort(opt);
      Status st = batch.ok() ? dgms->AcquireData(*batch)
                             : batch.status();
      if (st.ok()) {
        std::printf("appended; %zu fact rows now%s\n",
                    dgms->warehouse().num_fact_rows(),
                    dgms->durable() ? " (journaled)" : "");
      } else {
        std::printf("error: %s\n", st.ToString().c_str());
      }
      continue;
    }
    if (StartsWith(trimmed, "load ")) {
      std::string dir(Trim(trimmed.substr(5)));
      auto loaded = core::DdDgms::LoadDurable(
          dir, discri::MakeDiscriPipeline(), robustness);
      if (loaded.ok()) {
        const int restart_port = before_facade_swap();
        dgms = std::move(loaded);
        after_facade_swap(restart_port);
        std::printf("loaded generation %llu: %zu fact rows\n",
                    static_cast<unsigned long long>(
                        dgms->durable_store()->seq()),
                    dgms->warehouse().num_fact_rows());
      } else {
        std::printf("error: %s\n", loaded.status().ToString().c_str());
      }
      continue;
    }
    if (StartsWith(trimmed, "recover ")) {
      std::string dir(Trim(trimmed.substr(8)));
      warehouse::RecoveryReport report;
      auto recovered = core::DdDgms::RecoverDurable(
          dir, discri::MakeDiscriPipeline(), &report, robustness);
      if (recovered.ok()) {
        const int restart_port = before_facade_swap();
        dgms = std::move(recovered);
        after_facade_swap(restart_port);
        std::printf("%s\n%zu fact rows after recovery\n",
                    report.ToString().c_str(),
                    dgms->warehouse().num_fact_rows());
      } else {
        std::printf("error: %s\n",
                    recovered.status().ToString().c_str());
      }
      continue;
    }
    if (trimmed == "serve" || StartsWith(trimmed, "serve ")) {
      std::string mode(Trim(trimmed.substr(5)));
      if (mode == "stop") {
        if (obs_server != nullptr && obs_server->running()) {
          Status st = obs_server->Stop();
          std::printf("%s\n", st.ok() ? "server stopped"
                                      : st.ToString().c_str());
        } else {
          std::printf("server not running\n");
        }
        continue;
      }
      if (mode == "status") {
        if (obs_server != nullptr && obs_server->running()) {
          std::printf("listening on 127.0.0.1:%d\n",
                      obs_server->port());
        } else {
          std::printf("server not running\n");
        }
        continue;
      }
      int port = 0;
      if (StartsWith(mode, "--port")) mode = Trim(mode.substr(6));
      if (!mode.empty()) {
        auto n = ParseInt64(mode);
        if (!n.ok() || *n < 0 || *n > 65535) {
          std::printf("usage: serve [--port N] | serve stop\n");
          continue;
        }
        port = static_cast<int>(*n);
      }
      start_server(port);
      continue;
    }
    if (trimmed == "slo" || StartsWith(trimmed, "slo ")) {
      std::string mode(Trim(trimmed.substr(3)));
      SloEngine& engine = SloEngine::Global();
      if (mode == "eval") {
        engine.Evaluate();
        std::printf("evaluated %zu slos\n", engine.slo_count());
        continue;
      }
      if (mode == "json") {
        std::printf("%s\n", engine.ToJson().c_str());
        continue;
      }
      const auto slos = engine.Snapshot();
      if (slos.empty()) {
        std::printf("no slos registered\n");
      } else {
        for (const SloStatus& s : slos) {
          std::printf("%s\n", s.ToString().c_str());
        }
        std::printf("evaluator %s\n", engine.evaluator_running()
                                          ? "running"
                                          : "stopped (try 'slo eval' "
                                            "or 'serve')");
      }
      continue;
    }
    if (trimmed == "alerts" || StartsWith(trimmed, "alerts ")) {
      std::string mode(Trim(trimmed.substr(6)));
      if (mode == "json") {
        std::printf("{\"slo\":%s,\"anomaly\":%s}\n",
                    SloEngine::Global().ToJson().c_str(),
                    scanner.ToJson().c_str());
        continue;
      }
      size_t alerting = 0;
      for (const SloStatus& s : SloEngine::Global().Snapshot()) {
        if (s.state == SloState::kOk) continue;
        ++alerting;
        std::printf("%s\n", s.ToString().c_str());
      }
      if (alerting == 0) std::printf("no slo alerts\n");
      const auto findings = scanner.findings();
      if (findings.empty()) {
        std::printf("no anomaly findings (%llu scans)\n",
                    static_cast<unsigned long long>(scanner.scans()));
      } else {
        for (const server::AnomalyFinding& f : findings) {
          std::printf("%s\n", f.ToString().c_str());
        }
      }
      continue;
    }
    if (trimmed == "anomaly" || StartsWith(trimmed, "anomaly ")) {
      std::string mode(Trim(trimmed.substr(7)));
      if (mode == "scan") {
        const std::vector<server::AnomalyFinding> found = scanner.ScanOnce();
        if (found.empty()) {
          std::printf("scan complete, no new findings\n");
        }
        for (const server::AnomalyFinding& f : found) {
          std::printf("%s\n", f.ToString().c_str());
        }
        continue;
      }
      if (mode == "json") {
        std::printf("%s\n", scanner.ToJson().c_str());
        continue;
      }
      std::printf("scanner %s, %llu scans, %zu recent findings\n",
                  scanner.running() ? "running" : "stopped",
                  static_cast<unsigned long long>(scanner.scans()),
                  scanner.findings().size());
      continue;
    }
    if (StartsWith(trimmed, "slow ")) {
      auto n = ParseInt64(Trim(trimmed.substr(5)));
      if (n.ok() && *n >= 0) {
        mdx::MdxExecutor::SetExecuteDelayMicrosForTesting(
            static_cast<uint64_t>(*n));
        std::printf("mdx execute delay set to %lld us\n",
                    static_cast<long long>(*n));
      } else {
        std::printf("usage: slow <micros>\n");
      }
      continue;
    }
    if (StartsWith(trimmed, "sql ")) {
      auto result = dgms->QuerySql(trimmed.substr(4));
      if (result.ok()) {
        std::printf("%s", result->ToPrettyString(40).c_str());
      } else {
        std::printf("error: %s\n", result.status().ToString().c_str());
      }
      continue;
    }
    if (StartsWith(trimmed, "mdx ")) {
      auto result = dgms->QueryMdx(trimmed.substr(4));
      if (result.ok()) {
        auto grid = result->ToGrid();
        if (grid.ok()) {
          std::printf("%s", grid->ToPrettyString(40).c_str());
        } else {
          std::printf("error: %s\n", grid.status().ToString().c_str());
        }
      } else {
        std::printf("error: %s\n", result.status().ToString().c_str());
      }
      continue;
    }
    std::printf("unknown command (try 'help')\n");
  }
  if (g_shutdown_requested) {
    std::printf("\nshutdown signal received\n");
  }
  if (obs_server != nullptr && obs_server->running()) {
    obs_server->Stop().IgnoreError();
    std::printf("observability server stopped\n");
  }
  return 0;
}
