// Observability server tests: HTTP parse/serialize round trips, the
// listener's routing (404/405), fault-injected accept/read failures,
// the live query registry + stall watchdog (fires exactly once per
// query), the bounded completed-query history, /profilez input
// validation, the /sloz + /alertz surface, serving that leaves the
// flight recorder and the latency histogram alone, and a concurrent
// scrape-while-query stress run under the TSan lane.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/faults.h"
#include "common/http.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/query_registry.h"
#include "common/slo.h"
#include "common/trace.h"
#include "common/strings.h"
#include "common/window.h"
#include "core/dd_dgms.h"
#include "discri/cohort.h"
#include "discri/model.h"
#include "mdx/executor.h"
#include "mutate_text.h"
#include "server/observability.h"

namespace ddgms {
namespace {

// ---------------------------------------------------------------- //
// HTTP message parsing / serialization (no sockets involved)
// ---------------------------------------------------------------- //

TEST(HttpParseTest, ParsesRequestLineHeadersAndQuery) {
  auto request = ParseHttpRequest(
      "GET /profilez?seconds=2&format=json HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "X-Custom: hello world\r\n"
      "\r\n");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->method, "GET");
  EXPECT_EQ(request->path, "/profilez");
  EXPECT_EQ(request->target, "/profilez?seconds=2&format=json");
  EXPECT_EQ(request->QueryParam("seconds"), "2");
  EXPECT_EQ(request->QueryParam("format"), "json");
  EXPECT_EQ(request->QueryParam("absent", "fallback"), "fallback");
  // Header names are lower-cased; values keep their case.
  EXPECT_EQ(request->headers.at("host"), "localhost");
  EXPECT_EQ(request->headers.at("x-custom"), "hello world");
}

TEST(HttpParseTest, PercentDecodesPathAndQuery) {
  auto request = ParseHttpRequest(
      "GET /logz?level=warn&q=a%20b%2Bc+d HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->QueryParam("q"), "a b+c d");
}

TEST(HttpParseTest, ParsesContentLengthBody) {
  auto request = ParseHttpRequest(
      "POST /queryz HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->method, "POST");
  EXPECT_EQ(request->body, "hello");
}

TEST(HttpParseTest, RejectsMalformedRequests) {
  EXPECT_FALSE(ParseHttpRequest("").ok());
  EXPECT_FALSE(ParseHttpRequest("GET /\r\n\r\n").ok());  // no version
  EXPECT_FALSE(ParseHttpRequest("garbage\r\n\r\n").ok());
  EXPECT_FALSE(
      ParseHttpRequest("GET / HTTP/1.1\r\nbad header line\r\n\r\n").ok());
}

TEST(HttpParseTest, SerializeResponseRoundTrips) {
  HttpResponse response = HttpResponse::Json("{\"a\":1}");
  const std::string raw = SerializeHttpResponse(response);
  EXPECT_NE(raw.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(raw.find("Content-Type: application/json\r\n"),
            std::string::npos);
  EXPECT_NE(raw.find("Content-Length: 7\r\n"), std::string::npos);
  auto parsed = ParseHttpResponse(raw);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->first, 200);
  EXPECT_EQ(parsed->second, "{\"a\":1}");
}

TEST(HttpParseTest, ReasonPhrases) {
  EXPECT_STREQ(HttpReasonPhrase(200), "OK");
  EXPECT_STREQ(HttpReasonPhrase(404), "Not Found");
  EXPECT_STREQ(HttpReasonPhrase(405), "Method Not Allowed");
  EXPECT_STREQ(HttpReasonPhrase(777), "Unknown");
}

// Requests as the observability routes receive them: the inputs the
// request fuzzer mutates.
const char* const kFuzzRequests[] = {
    "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n",
    "GET /profilez?seconds=2&format=json HTTP/1.1\r\n"
    "Host: localhost\r\nX-Custom: hello world\r\n\r\n",
    "GET /logz?level=warn&q=a%20b%2Bc+d HTTP/1.1\r\nAccept: */*\r\n\r\n",
    "POST /queryz HTTP/1.1\r\nContent-Length: 5\r\n"
    "Content-Type: text/plain\r\n\r\nhello",
    "GET /metrics HTTP/1.0\r\nUser-Agent: curl/8.0\r\n"
    "Connection: close\r\n\r\n",
};

// What an insertion splices in: methods, versions, separators, escapes
// and bytes a parser must not trip over.
const std::string_view kHttpTokens[] = {
    "GET", "POST", "HTTP/1.1", "HTTP/", " ", "  ", "\r\n", "\r\n\r\n",
    "\n", "\r", "\t", ":", ": ", "?", "&", "=", "?&=", "%", "%2", "%zz",
    "%00", "%%", "+", "/", "Host:", "Content-Length: 99", "X-A: b",
    "\xff", std::string_view("\0", 1)};

// Every mutant of a request either parses or fails with a Status; a
// parsed one keeps the parser's promises: a method, lower-cased header
// names, and the bytes after the head as its body. About a second in
// Release over all inputs. A failure names the input and the mutant's
// seed: MutateText(kFuzzRequests[input], seed, kHttpTokens) replays it.
class HttpFuzzTest : public testing::TestWithParam<size_t> {};

TEST_P(HttpFuzzTest, SeededMutantsReturnAStatus) {
  const size_t input = GetParam();
  ASSERT_TRUE(ParseHttpRequest(kFuzzRequests[input]).ok());
  for (int i = 0; i < 60000; ++i) {
    const uint64_t seed = 20130408u + (uint64_t{input} << 32) +
                          static_cast<uint64_t>(i);
    const std::string raw =
        MutateText(kFuzzRequests[input], seed, kHttpTokens);
    SCOPED_TRACE(testing::Message() << "replay: input " << input
                                    << ", MutateText seed " << seed << ": "
                                    << testing::PrintToString(raw));
    auto request = ParseHttpRequest(raw);
    if (!request.ok()) {
      EXPECT_FALSE(request.status().message().empty());
    } else {
      EXPECT_FALSE(request->method.empty());
      for (const auto& [name, value] : request->headers) {
        EXPECT_EQ(name, ToLower(name));
      }
      EXPECT_EQ(request->body, raw.substr(raw.find("\r\n\r\n") + 4));
    }
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Requests, HttpFuzzTest,
                         testing::Range<size_t>(0, std::size(kFuzzRequests)));

// ---------------------------------------------------------------- //
// HttpServer: loopback round trips, routing, faults
// ---------------------------------------------------------------- //

class HttpServerTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultRegistry::Global().Reset(); }

  /// GET `target` against `server`, returning (status, body).
  static std::pair<int, std::string> Get(const HttpServer& server,
                                         const std::string& target) {
    auto raw = HttpGet("127.0.0.1", server.port(), target);
    EXPECT_TRUE(raw.ok()) << raw.status().ToString();
    if (!raw.ok()) return {0, ""};
    auto parsed = ParseHttpResponse(*raw);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    if (!parsed.ok()) return {0, ""};
    return *parsed;
  }
};

TEST_F(HttpServerTest, ServesRegisteredRoutes) {
  HttpServer server;
  server.Handle("GET", "/pingz", [](const HttpRequest&) {
    return HttpResponse::Text("pong\n");
  });
  server.Handle("GET", "/echoz", [](const HttpRequest& request) {
    return HttpResponse::Text(request.QueryParam("msg"));
  });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_GT(server.port(), 0);
  EXPECT_TRUE(server.running());

  EXPECT_EQ(Get(server, "/pingz"),
            (std::pair<int, std::string>{200, "pong\n"}));
  EXPECT_EQ(Get(server, "/echoz?msg=hello").second, "hello");
  ASSERT_TRUE(server.Stop().ok());
  EXPECT_FALSE(server.running());
}

TEST_F(HttpServerTest, UnknownPathIs404WrongMethodIs405) {
  HttpServer server;
  server.Handle("POST", "/postz", [](const HttpRequest&) {
    return HttpResponse::Text("posted");
  });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(Get(server, "/missingz").first, 404);
  EXPECT_EQ(Get(server, "/postz").first, 405);  // GET on a POST route
  ASSERT_TRUE(server.Stop().ok());
}

TEST_F(HttpServerTest, StartTwiceFailsStopWithoutStartFails) {
  HttpServer server;
  ASSERT_TRUE(server.Start().ok());
  EXPECT_FALSE(server.Start().ok());
  ASSERT_TRUE(server.Stop().ok());
  EXPECT_FALSE(server.Stop().ok());
}

TEST_F(HttpServerTest, SurvivesInjectedAcceptFailures) {
  HttpServer server;
  server.Handle("GET", "/pingz", [](const HttpRequest&) {
    return HttpResponse::Text("pong");
  });
  ASSERT_TRUE(server.Start().ok());
  // First two accepted connections are dropped; the listener must keep
  // serving afterwards.
  FaultPlan plan;
  plan.fail_first = 2;
  FaultRegistry::Global().Arm("server.accept", plan);
  EXPECT_FALSE(HttpGet("127.0.0.1", server.port(), "/pingz", 2000).ok());
  EXPECT_FALSE(HttpGet("127.0.0.1", server.port(), "/pingz", 2000).ok());
  EXPECT_EQ(Get(server, "/pingz").first, 200);
  ASSERT_TRUE(server.Stop().ok());
}

TEST_F(HttpServerTest, SurvivesInjectedReadFailures) {
  HttpServer server;
  server.Handle("GET", "/pingz", [](const HttpRequest&) {
    return HttpResponse::Text("pong");
  });
  ASSERT_TRUE(server.Start().ok());
  FaultPlan plan;
  plan.code = StatusCode::kDataLoss;
  plan.fail_first = 1;
  FaultRegistry::Global().Arm("server.read", plan);
  EXPECT_FALSE(HttpGet("127.0.0.1", server.port(), "/pingz", 2000).ok());
  EXPECT_EQ(Get(server, "/pingz").first, 200);
  ASSERT_TRUE(server.Stop().ok());
}

TEST_F(HttpServerTest, OversizedRequestIsRejected) {
  HttpServerOptions options;
  options.max_request_bytes = 128;
  HttpServer server(options);
  server.Handle("GET", "/pingz", [](const HttpRequest&) {
    return HttpResponse::Text("pong");
  });
  ASSERT_TRUE(server.Start().ok());
  const std::string long_target = "/pingz?pad=" + std::string(500, 'x');
  auto raw = HttpGet("127.0.0.1", server.port(), long_target, 2000);
  if (raw.ok()) {
    auto parsed = ParseHttpResponse(*raw);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->first, 413);
  }
  ASSERT_TRUE(server.Stop().ok());
}

// ---------------------------------------------------------------- //
// QueryRegistry + watchdog
// ---------------------------------------------------------------- //

class QueryRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    QueryRegistry::Global().ResetForTesting();
    QueryRegistry::Global().set_history_capacity(128);
    QueryRegistry::Enable();
    MetricsRegistry::Global().ResetValues();
    MetricsRegistry::Enable();
  }
  void TearDown() override {
    QueryRegistry::Disable();
    QueryRegistry::Global().ResetForTesting();
    QueryRegistry::Global().set_history_capacity(128);
    MetricsRegistry::Disable();
    MetricsRegistry::Global().ResetValues();
  }
};

TEST_F(QueryRegistryTest, BeginSnapshotEndLifecycle) {
  QueryRegistry& registry = QueryRegistry::Global();
  const uint64_t id = registry.Begin("mdx", "SELECT ...");
  ASSERT_NE(id, 0u);
  EXPECT_EQ(registry.active(), 1u);

  auto snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].id, id);
  EXPECT_EQ(snapshot[0].kind, "mdx");
  EXPECT_EQ(snapshot[0].text, "SELECT ...");
  EXPECT_EQ(snapshot[0].stage, "start");
  EXPECT_FALSE(snapshot[0].stalled);
  EXPECT_GE(snapshot[0].elapsed_ms, 0.0);

  registry.SetStage(id, "execute");
  EXPECT_EQ(registry.Snapshot()[0].stage, "execute");

  registry.End(id);
  EXPECT_EQ(registry.active(), 0u);
  MetricsSnapshot metrics = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(metrics.counter("ddgms.queries.started"), 1u);
  EXPECT_EQ(metrics.counter("ddgms.queries.finished"), 1u);
}

TEST_F(QueryRegistryTest, DisabledRegistryRegistersNothing) {
  QueryRegistry::Disable();
  const uint64_t id = QueryRegistry::Global().Begin("mdx", "q");
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(QueryRegistry::Global().active(), 0u);
  QueryRegistry::Global().End(id);  // no-op, must not crash
}

TEST_F(QueryRegistryTest, ScopedRecordRoutesCurrentStage) {
  {
    ScopedQueryRecord record("mdx", "outer");
    ASSERT_NE(record.id(), 0u);
    QueryRegistry::SetCurrentStage("compile");
    EXPECT_EQ(QueryRegistry::Global().Snapshot()[0].stage, "compile");
    {
      ScopedQueryRecord inner("mdx", "inner");
      QueryRegistry::SetCurrentStage("execute");
      // The innermost record gets the stage update.
      for (const auto& q : QueryRegistry::Global().Snapshot()) {
        if (q.id == inner.id()) {
          EXPECT_EQ(q.stage, "execute");
        }
        if (q.id == record.id()) {
          EXPECT_EQ(q.stage, "compile");
        }
      }
    }
    // TLS restored: updates target the outer record again.
    QueryRegistry::SetCurrentStage("finish");
    EXPECT_EQ(QueryRegistry::Global().Snapshot()[0].stage, "finish");
  }
  EXPECT_EQ(QueryRegistry::Global().active(), 0u);
  // Stage updates after the record ends are silently dropped.
  QueryRegistry::SetCurrentStage("late");
}

TEST_F(QueryRegistryTest, WatchdogFlagsStalledQueryExactlyOnce) {
  EventLog::Global().Clear();
  EventLog::Enable();
  QueryRegistry& registry = QueryRegistry::Global();
  const uint64_t id = registry.Begin("mdx", "slow query");
  ASSERT_NE(id, 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  registry.SweepForTesting(/*deadline_ms=*/1);
  registry.SweepForTesting(/*deadline_ms=*/1);
  registry.SweepForTesting(/*deadline_ms=*/1);

  // Flagged exactly once despite three sweeps.
  EXPECT_EQ(registry.stalled_total(), 1u);
  EXPECT_EQ(MetricsRegistry::Global().Snapshot().counter(
                "ddgms.queries.stalled_total"),
            1u);
  auto snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_TRUE(snapshot[0].stalled);

  // Exactly one mdx.stalled flight-recorder event.
  size_t stalled_events = 0;
  for (const LogRecord& record : EventLog::Global().Snapshot()) {
    if (record.event == "mdx.stalled") ++stalled_events;
  }
  EXPECT_EQ(stalled_events, 1u);

  // The gauge reflects in-flight stalled queries and drops on End.
  auto stalled_gauge = [] {
    double value = -1.0;
    for (const auto& g : MetricsRegistry::Global().Snapshot().gauges) {
      if (g.name == "ddgms.queries.stalled") value = g.value;
    }
    return value;
  };
  EXPECT_EQ(stalled_gauge(), 1.0);
  registry.End(id);
  EXPECT_EQ(stalled_gauge(), 0.0);
  EXPECT_EQ(registry.stalled_total(), 1u);  // monotonic

  EventLog::Disable();
  EventLog::Global().Clear();
}

TEST_F(QueryRegistryTest, WatchdogThreadStartStop) {
  QueryRegistry& registry = QueryRegistry::Global();
  EXPECT_FALSE(registry.watchdog_running());
  QueryWatchdogOptions options;
  options.deadline_ms = 1;
  options.poll_ms = 1;
  ASSERT_TRUE(registry.StartWatchdog(options).ok());
  EXPECT_TRUE(registry.watchdog_running());
  EXPECT_FALSE(registry.StartWatchdog(options).ok());  // already running

  const uint64_t id = registry.Begin("mdx", "stalls under the thread");
  // The real watchdog thread (1ms deadline, 1ms poll) must flag it.
  for (int i = 0; i < 500 && registry.stalled_total() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(registry.stalled_total(), 1u);
  registry.End(id);

  ASSERT_TRUE(registry.StopWatchdog().ok());
  EXPECT_FALSE(registry.watchdog_running());
  EXPECT_FALSE(registry.StopWatchdog().ok());
}

TEST_F(QueryRegistryTest, ToJsonListsQueries) {
  QueryRegistry& registry = QueryRegistry::Global();
  EXPECT_EQ(registry.ToJson(), "[]");
  const uint64_t id = registry.Begin("mdx", "SELECT \"x\"");
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"kind\":\"mdx\""), std::string::npos);
  EXPECT_NE(json.find("SELECT \\\"x\\\""), std::string::npos);
  EXPECT_NE(json.find("\"stalled\":false"), std::string::npos);
  registry.End(id);
}

TEST_F(QueryRegistryTest, CompletedQueriesMoveIntoBoundedHistory) {
  QueryRegistry& registry = QueryRegistry::Global();
  registry.set_history_capacity(4);
  EXPECT_EQ(registry.history_capacity(), 4u);

  std::vector<uint64_t> ids;
  for (int i = 0; i < 10; ++i) {
    std::string text = "q";
    text += std::to_string(i);
    const uint64_t id = registry.Begin("mdx", text);
    registry.SetStage(id, "execute");
    registry.End(id);
    ids.push_back(id);
  }
  EXPECT_EQ(registry.active(), 0u);
  // Only the newest `capacity` records survive, oldest first.
  auto history = registry.History();
  ASSERT_EQ(history.size(), 4u);
  EXPECT_EQ(registry.history_size(), 4u);
  for (size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(history[i].id, ids[ids.size() - 4 + i]);
    EXPECT_EQ(history[i].stage, "execute");
    EXPECT_GE(history[i].duration_ms, 0.0);
    EXPECT_FALSE(history[i].stalled);
  }
  const std::string json = registry.HistoryToJson();
  EXPECT_NE(json.find("\"duration_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"q9\""), std::string::npos);
  EXPECT_EQ(json.find("\"q0\""), std::string::npos);  // evicted

  // Shrinking evicts immediately; zero disables capture entirely.
  registry.set_history_capacity(2);
  EXPECT_EQ(registry.history_size(), 2u);
  registry.set_history_capacity(0);
  EXPECT_EQ(registry.history_size(), 0u);
  registry.End(registry.Begin("mdx", "uncaptured"));
  EXPECT_EQ(registry.history_size(), 0u);
}

TEST_F(QueryRegistryTest, HistoryRecordsStalledFlag) {
  QueryRegistry& registry = QueryRegistry::Global();
  const uint64_t id = registry.Begin("mdx", "was stalled");
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  registry.SweepForTesting(/*deadline_ms=*/1);
  registry.End(id);
  auto history = registry.History();
  ASSERT_EQ(history.size(), 1u);
  EXPECT_TRUE(history[0].stalled);
}

TEST_F(QueryRegistryTest, HistoryStaysBoundedUnderConcurrentLoad) {
  // The TSan lane runs this: concurrent Begin/End churn against the
  // bounded history plus snapshot readers must stay race-free, and
  // /queryz-visible state must never grow without bound.
  QueryRegistry& registry = QueryRegistry::Global();
  registry.set_history_capacity(8);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < 100; ++i) {
        std::string text = "w";
        text += std::to_string(t);
        text += "-q";
        text += std::to_string(i);
        ScopedQueryRecord record("mdx", text);
        QueryRegistry::SetCurrentStage("execute");
      }
    });
  }
  std::atomic<bool> stop{false};
  std::thread reader([&registry, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)registry.HistoryToJson();
      EXPECT_LE(registry.history_size(), 8u);
    }
  });
  for (std::thread& w : workers) w.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(registry.active(), 0u);
  EXPECT_EQ(registry.history_size(), 8u);
}

// ---------------------------------------------------------------- //
// ObservabilityServer endpoints
// ---------------------------------------------------------------- //

class ObservabilityServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().ResetValues();
    MetricsRegistry::Enable();
    TraceCollector::Enable();
    EventLog::Enable();
    QueryRegistry::Global().ResetForTesting();
    QueryRegistry::Enable();
  }
  void TearDown() override {
    QueryRegistry::Disable();
    QueryRegistry::Global().ResetForTesting();
    EventLog::Disable();
    EventLog::Global().Clear();
    TraceCollector::Disable();
    TraceCollector::Global().Clear();
    MetricsRegistry::Disable();
    MetricsRegistry::Global().ResetValues();
  }

  /// GET returning (status, body, raw-with-headers).
  static std::tuple<int, std::string, std::string> Get(
      int port, const std::string& target) {
    auto raw = HttpGet("127.0.0.1", port, target);
    EXPECT_TRUE(raw.ok()) << raw.status().ToString();
    if (!raw.ok()) return {0, "", ""};
    auto parsed = ParseHttpResponse(*raw);
    EXPECT_TRUE(parsed.ok());
    if (!parsed.ok()) return {0, "", *raw};
    return {parsed->first, parsed->second, *raw};
  }
};

TEST_F(ObservabilityServerTest, ServesAllEndpointsWithoutWarehouse) {
  server::ObservabilityOptions options;
  options.start_watchdog = false;
  server::ObservabilityServer obs(options, /*dgms=*/nullptr);
  ASSERT_TRUE(obs.Start().ok());
  DDGMS_METRIC_INC("ddgms.server.requests");  // something to scrape

  auto [metrics_status, metrics_body, metrics_raw] =
      Get(obs.port(), "/metrics");
  EXPECT_EQ(metrics_status, 200);
  EXPECT_NE(metrics_raw.find(
                "Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(metrics_body.find("# TYPE"), std::string::npos);

  auto [healthz_status, healthz_body, healthz_raw] =
      Get(obs.port(), "/healthz");
  EXPECT_EQ(healthz_status, 200);
  EXPECT_NE(healthz_body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(healthz_raw.find("Content-Type: application/json"),
            std::string::npos);

  // No warehouse attached: alive but not ready.
  EXPECT_EQ(std::get<0>(Get(obs.port(), "/readyz")), 503);

  auto [statusz_status, statusz_body, statusz_raw] =
      Get(obs.port(), "/statusz");
  EXPECT_EQ(statusz_status, 200);
  EXPECT_NE(statusz_raw.find("Content-Type: text/html"),
            std::string::npos);
  EXPECT_NE(statusz_body.find("/queryz"), std::string::npos);
  EXPECT_NE(statusz_body.find("/metrics"), std::string::npos);

  // The index page serves the same overview.
  EXPECT_EQ(std::get<0>(Get(obs.port(), "/")), 200);

  auto [queryz_status, queryz_body, queryz_raw] =
      Get(obs.port(), "/queryz");
  EXPECT_EQ(queryz_status, 200);
  EXPECT_NE(queryz_body.find("\"queries\":[]"), std::string::npos);

  EXPECT_EQ(std::get<0>(Get(obs.port(), "/varz")), 200);
  EXPECT_EQ(std::get<0>(Get(obs.port(), "/tracez")), 200);
  EXPECT_EQ(std::get<0>(Get(obs.port(), "/tracez?format=json")), 200);
  EXPECT_EQ(std::get<0>(Get(obs.port(), "/logz")), 200);
  EXPECT_EQ(std::get<0>(Get(obs.port(), "/logz?level=bogus")), 400);
  EXPECT_EQ(std::get<0>(Get(obs.port(), "/resourcez")), 200);
  EXPECT_EQ(std::get<0>(Get(obs.port(), "/nothere")), 404);

  ASSERT_TRUE(obs.Stop().ok());
}

TEST_F(ObservabilityServerTest, StalledMdxQueryTripsTheWatchdog) {
  discri::CohortOptions cohort;
  cohort.num_patients = 40;
  cohort.seed = 7;
  auto raw = discri::GenerateCohort(cohort);
  ASSERT_TRUE(raw.ok());
  auto dgms = core::DdDgms::Build(std::move(raw).value(),
                                  discri::MakeDiscriPipeline(),
                                  discri::MakeDiscriSchemaDef());
  ASSERT_TRUE(dgms.ok()) << dgms.status().ToString();

  server::ObservabilityOptions options;
  options.watchdog.deadline_ms = 20;
  options.watchdog.poll_ms = 5;
  server::ObservabilityServer obs(options, &*dgms);
  ASSERT_TRUE(obs.Start().ok());
  EXPECT_TRUE(QueryRegistry::Global().watchdog_running());

  // Readiness now reports the warehouse.
  auto ready = HttpGet("127.0.0.1", obs.port(), "/readyz");
  ASSERT_TRUE(ready.ok());
  EXPECT_NE(ready->find("\"warehouse_lineage\""), std::string::npos);

  // Deliberately slow every MDX execute stage well past the deadline,
  // and run a query on a second thread while scraping /queryz.
  mdx::MdxExecutor::SetExecuteDelayMicrosForTesting(200000);
  std::thread query([&dgms] {
    auto result = dgms->QueryMdx(
        "SELECT [PersonalInformation].[Gender].Members ON ROWS "
        "FROM [MedicalMeasures]");
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  });

  // Poll /queryz until the in-flight query shows up as stalled.
  bool saw_stalled = false;
  for (int i = 0; i < 200 && !saw_stalled; ++i) {
    auto queryz = HttpGet("127.0.0.1", obs.port(), "/queryz");
    if (queryz.ok() &&
        queryz->find("\"stalled\":true") != std::string::npos) {
      saw_stalled = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  query.join();
  mdx::MdxExecutor::SetExecuteDelayMicrosForTesting(0);
  EXPECT_TRUE(saw_stalled);
  EXPECT_GE(QueryRegistry::Global().stalled_total(), 1u);

  // The flight recorder holds the mdx.stalled event.
  bool saw_event = false;
  for (const LogRecord& record : EventLog::Global().Snapshot()) {
    if (record.event == "mdx.stalled") saw_event = true;
  }
  EXPECT_TRUE(saw_event);

  ASSERT_TRUE(obs.Stop().ok());
  EXPECT_FALSE(QueryRegistry::Global().watchdog_running());
}

TEST_F(ObservabilityServerTest, ProfilezValidatesSecondsParam) {
  server::ObservabilityOptions options;
  options.start_watchdog = false;
  options.start_slo_evaluator = false;
  options.start_anomaly_scanner = false;
  server::ObservabilityServer obs(options, /*dgms=*/nullptr);
  ASSERT_TRUE(obs.Start().ok());

  // Non-numeric and non-positive values are client errors, not silent
  // defaults.
  EXPECT_EQ(std::get<0>(Get(obs.port(), "/profilez?seconds=abc")), 400);
  EXPECT_EQ(std::get<0>(Get(obs.port(), "/profilez?seconds=-3")), 400);
  EXPECT_EQ(std::get<0>(Get(obs.port(), "/profilez?seconds=0")), 400);
  EXPECT_EQ(std::get<0>(Get(obs.port(), "/profilez?seconds=2x")), 400);
  auto [status, body, raw] = Get(obs.port(), "/profilez?seconds=abc");
  EXPECT_NE(body.find("seconds must be a positive integer"),
            std::string::npos);

  ASSERT_TRUE(obs.Stop().ok());
}

TEST_F(ObservabilityServerTest, QueryzIncludesBoundedHistory) {
  server::ObservabilityOptions options;
  options.start_watchdog = false;
  options.start_slo_evaluator = false;
  options.start_anomaly_scanner = false;
  server::ObservabilityServer obs(options, /*dgms=*/nullptr);
  ASSERT_TRUE(obs.Start().ok());

  QueryRegistry& registry = QueryRegistry::Global();
  registry.set_history_capacity(128);
  registry.End(registry.Begin("mdx", "done already"));

  auto [status, body, raw] = Get(obs.port(), "/queryz");
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"history_capacity\":128"), std::string::npos);
  EXPECT_NE(body.find("\"recent_completed\":["), std::string::npos);
  EXPECT_NE(body.find("done already"), std::string::npos);

  ASSERT_TRUE(obs.Stop().ok());
}

TEST_F(ObservabilityServerTest, SlozAndAlertzSurfaceSloState) {
  WindowRegistry::Global().ResetForTesting();
  WindowRegistry::Enable();
  SloEngine::Global().ResetForTesting();
  SloEngine::Enable();

  MetricsRegistry::Global().GetHistogram("t.server.slo_lat",
                                         {100000.0, 250000.0, 1000000.0});
  SloDef def;
  def.name = "t_server_latency";
  def.kind = SloKind::kLatency;
  def.latency_histogram = "t.server.slo_lat";
  def.latency_target_us = 250000;
  def.objective = 0.99;
  ASSERT_TRUE(SloEngine::Global().Register(def).ok());

  server::ObservabilityOptions options;
  options.start_watchdog = false;
  options.start_slo_evaluator = false;  // driven explicitly below
  options.start_anomaly_scanner = false;
  server::ObservabilityServer obs(options, /*dgms=*/nullptr);
  ASSERT_TRUE(obs.Start().ok());

  SloEngine::Global().EvaluateAt(1000000000);
  auto [sloz_status, sloz_body, sloz_raw] = Get(obs.port(), "/sloz");
  EXPECT_EQ(sloz_status, 200);
  EXPECT_NE(sloz_raw.find("Content-Type: application/json"),
            std::string::npos);
  EXPECT_NE(sloz_body.find("t_server_latency"), std::string::npos);
  EXPECT_NE(sloz_body.find("\"windows\""), std::string::npos);

  // Healthy: /alertz lists nothing.
  auto [calm_status, calm_body, calm_raw] = Get(obs.port(), "/alertz");
  EXPECT_EQ(calm_status, 200);
  EXPECT_NE(calm_body.find("\"firing\":0"), std::string::npos);
  EXPECT_EQ(calm_body.find("t_server_latency"), std::string::npos);
  // The server's own scanner, not started here, still reports.
  EXPECT_NE(calm_body.find("\"anomaly\":{\"running\":false"),
            std::string::npos);

  // Burn the budget: every observation beyond the target.
  Histogram& h =
      MetricsRegistry::Global().GetHistogram("t.server.slo_lat");
  for (int i = 0; i < 5; ++i) h.Observe(400000.0);
  SloEngine::Global().EvaluateAt(1001000000);

  auto [hot_status, hot_body, hot_raw] = Get(obs.port(), "/alertz");
  EXPECT_EQ(hot_status, 200);
  EXPECT_NE(hot_body.find("\"firing\":1"), std::string::npos);
  EXPECT_NE(hot_body.find("\"state\":\"firing\""), std::string::npos);
  EXPECT_NE(hot_body.find("t_server_latency"), std::string::npos);

  // The HTML overview gains the SLO table and endpoint index rows.
  auto [statusz_status, statusz_body, statusz_raw] =
      Get(obs.port(), "/statusz");
  EXPECT_EQ(statusz_status, 200);
  EXPECT_NE(statusz_body.find("/sloz"), std::string::npos);
  EXPECT_NE(statusz_body.find("/alertz"), std::string::npos);
  EXPECT_NE(statusz_body.find("t_server_latency"), std::string::npos);

  ASSERT_TRUE(obs.Stop().ok());
  SloEngine::Disable();
  SloEngine::Global().ResetForTesting();
  WindowRegistry::Disable();
  WindowRegistry::Global().ResetForTesting();
}

TEST_F(ObservabilityServerTest, StartStopOwnsEvaluatorAndScanner) {
  discri::CohortOptions cohort;
  cohort.num_patients = 30;
  cohort.seed = 11;
  auto raw = discri::GenerateCohort(cohort);
  ASSERT_TRUE(raw.ok());
  auto dgms = core::DdDgms::Build(std::move(raw).value(),
                                  discri::MakeDiscriPipeline(),
                                  discri::MakeDiscriSchemaDef());
  ASSERT_TRUE(dgms.ok());

  SloEngine::Global().ResetForTesting();
  server::ObservabilityOptions options;
  options.watchdog.poll_ms = 5;
  server::ObservabilityServer obs(options, &*dgms);
  ASSERT_TRUE(obs.Start().ok());
  EXPECT_TRUE(SloEngine::Global().evaluator_running());

  // /alertz reads the server-owned scanner.
  auto [status, body, raw_response] = Get(obs.port(), "/alertz");
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"anomaly\":{\"running\":true"),
            std::string::npos);

  ASSERT_TRUE(obs.Stop().ok());
  EXPECT_FALSE(SloEngine::Global().evaluator_running());
}

// Serving must not disturb what it serves: the scanner's scans leave
// every span and event recorded before Start() on /tracez and /logz,
// add no mdx.execute span, and add no observation to the latency
// histogram the mdx_latency SLO judges.
TEST_F(ObservabilityServerTest, ServingLeavesFlightRecorderAndLatencySlo) {
  TraceCollector::Global().Clear();
  EventLog::Global().Clear();
  discri::CohortOptions cohort;
  cohort.num_patients = 40;
  cohort.seed = 20130408;
  auto raw = discri::GenerateCohort(cohort);
  ASSERT_TRUE(raw.ok());
  auto dgms = core::DdDgms::Build(std::move(raw).value(),
                                  discri::MakeDiscriPipeline(),
                                  discri::MakeDiscriSchemaDef());
  ASSERT_TRUE(dgms.ok()) << dgms.status().ToString();

  // The paper's Fig 4-6 queries, Fig 5's drill-down and a count.
  const char* const kClinicalQueries[] = {
      "SELECT { [PersonalInformation].[Gender].Members } ON COLUMNS, "
      "CROSSJOIN( { [PersonalInformation].[AgeBand].Members }, "
      "{ [PersonalInformation].[FamilyHistoryDiabetes].Members } ) "
      "ON ROWS FROM [MedicalMeasures]",
      "SELECT { [PersonalInformation].[Gender].Members } ON COLUMNS, "
      "{ [PersonalInformation].[AgeBand10].Members } ON ROWS "
      "FROM [MedicalMeasures] "
      "WHERE ( [MedicalCondition].[DiabetesStatus].[Type2] )",
      "SELECT { [PersonalInformation].[Gender].Members } ON COLUMNS, "
      "{ [PersonalInformation].[AgeBand10].[70-80].Children } ON ROWS "
      "FROM [MedicalMeasures] "
      "WHERE ( [MedicalCondition].[DiabetesStatus].[Type2] )",
      "SELECT { [MedicalCondition].[DiagnosticHTYearsBand].Members } "
      "ON COLUMNS, { [PersonalInformation].[AgeBand5].Members } ON ROWS "
      "FROM [MedicalMeasures] "
      "WHERE ( [MedicalCondition].[HypertensionStatus].[Yes] )",
      "SELECT { [Measures].[Count] } ON COLUMNS FROM [MedicalMeasures]",
  };
  for (const char* query : kClinicalQueries) {
    ASSERT_TRUE(dgms->QueryMdx(query).ok()) << query;
  }
  const std::vector<SpanRecord> spans = TraceCollector::Global().Snapshot();
  const std::vector<LogRecord> events = EventLog::Global().Snapshot();
  ASSERT_FALSE(spans.empty());
  ASSERT_FALSE(events.empty());

  server::ObservabilityOptions options;
  options.anomaly.period_ms = 5;
  server::ObservabilityServer obs(options, &*dgms);
  ASSERT_TRUE(obs.Start().ok());

  unsigned long long scans = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (scans < 3 && std::chrono::steady_clock::now() < deadline) {
    const std::string alertz = std::get<1>(Get(obs.port(), "/alertz"));
    const size_t anomaly = alertz.find("\"anomaly\":");
    const size_t at = alertz.find("\"scans\":", anomaly);
    if (anomaly != std::string::npos && at != std::string::npos) {
      scans = std::strtoull(alertz.c_str() + at + 8, nullptr, 10);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::string tracez =
      std::get<1>(Get(obs.port(), "/tracez?format=json"));
  const std::string logz =
      std::get<1>(Get(obs.port(), "/logz?format=json&tail=100000"));
  ASSERT_TRUE(obs.Stop().ok());
  ASSERT_GE(scans, 3u);

  for (const SpanRecord& span : spans) {
    EXPECT_NE(tracez.find(StrFormat("{\"id\":%llu,",
                                    static_cast<unsigned long long>(span.id))),
              std::string::npos)
        << "span " << span.name << " left /tracez";
  }
  for (const LogRecord& event : events) {
    EXPECT_NE(logz.find(StrFormat("{\"seq\":%llu,",
                                  static_cast<unsigned long long>(event.seq))),
              std::string::npos)
        << "event " << event.event << " left /logz";
  }
  size_t mdx_spans = 0;
  for (size_t at = tracez.find("\"name\":\"mdx.execute\"");
       at != std::string::npos;
       at = tracez.find("\"name\":\"mdx.execute\"", at + 1)) {
    ++mdx_spans;
  }
  EXPECT_EQ(mdx_spans, std::size(kClinicalQueries));
  const MetricsSnapshot metrics = MetricsRegistry::Global().Snapshot();
  const HistogramSnapshot* latency =
      metrics.histogram("ddgms.mdx.execute_latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, std::size(kClinicalQueries));
}

TEST_F(ObservabilityServerTest, ConcurrentScrapeWhileQueryStress) {
  // Drives the full external surface from several threads at once
  // while registry traffic churns — the TSan lane runs this test to
  // vet the locking in HttpServer + QueryRegistry.
  server::ObservabilityOptions options;
  options.start_watchdog = true;
  options.watchdog.deadline_ms = 5;
  options.watchdog.poll_ms = 1;
  server::ObservabilityServer obs(options, /*dgms=*/nullptr);
  ASSERT_TRUE(obs.Start().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> scrapers;
  const char* const kTargets[] = {"/metrics", "/queryz", "/varz",
                                  "/healthz"};
  for (const char* target : kTargets) {
    scrapers.emplace_back([&, target] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto raw = HttpGet("127.0.0.1", obs.port(), target, 2000);
        if (!raw.ok()) failures.fetch_add(1);
      }
    });
  }
  std::thread churn([&] {
    for (int i = 0; i < 300; ++i) {
      ScopedQueryRecord record("mdx", "stress query");
      QueryRegistry::SetCurrentStage("execute");
      DDGMS_METRIC_INC("ddgms.server.requests");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  churn.join();
  stop.store(true);
  for (std::thread& t : scrapers) t.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(obs.Stop().ok());
}

}  // namespace
}  // namespace ddgms
