// A7: cost of the observability subsystem.
//
// The acceptance budget is <= 2% overhead on a warehouse build with
// instrumentation compiled in but DISABLED (the shipping default).
// That budget covers all three collectors — metrics, trace spans and
// the flight-recorder event log:
// BM_WarehouseBuildInstrumentationOff vs ...On measures it directly.
// The microbenchmarks price the individual primitives on both the
// disabled path (one relaxed atomic load) and the enabled path
// (registry lookup + atomic update / span record / log record).

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "common/http.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/query_registry.h"
#include "common/slo.h"
#include "common/trace.h"
#include "common/window.h"
#include "server/observability.h"
#include "discri/cohort.h"
#include "discri/model.h"
#include "warehouse/warehouse.h"

namespace {

using namespace ddgms;  // NOLINT: bench brevity

Table MakeCohort(size_t patients) {
  discri::CohortOptions opt;
  opt.num_patients = patients;
  opt.seed = 20130408;
  Table raw = bench::MustOk(discri::GenerateCohort(opt), "cohort");
  etl::TransformPipeline pipeline = discri::MakeDiscriPipeline();
  bench::MustOk(pipeline.Run(&raw), "pipeline");
  return raw;
}

void RunWarehouseBuild(benchmark::State& state, bool enabled) {
  const Table transformed = MakeCohort(600);
  warehouse::StarSchemaBuilder builder(discri::MakeDiscriSchemaDef());
  if (enabled) {
    MetricsRegistry::Enable();
    TraceCollector::Enable();
    EventLog::Enable();
  } else {
    MetricsRegistry::Disable();
    TraceCollector::Disable();
    EventLog::Disable();
  }
  for (auto _ : state) {
    auto wh = builder.Build(transformed);
    if (!wh.ok()) state.SkipWithError("build failed");
    benchmark::DoNotOptimize(wh);
  }
  state.counters["fact_rows"] =
      static_cast<double>(transformed.num_rows());
  MetricsRegistry::Disable();
  TraceCollector::Disable();
  EventLog::Disable();
  MetricsRegistry::Global().ResetValues();
  TraceCollector::Global().Clear();
  EventLog::Global().Clear();
}

void BM_WarehouseBuildInstrumentationOff(benchmark::State& state) {
  RunWarehouseBuild(state, /*enabled=*/false);
}
DDGMS_BENCHMARK(BM_WarehouseBuildInstrumentationOff)
    ->Unit(benchmark::kMillisecond);

void BM_WarehouseBuildInstrumentationOn(benchmark::State& state) {
  RunWarehouseBuild(state, /*enabled=*/true);
}
DDGMS_BENCHMARK(BM_WarehouseBuildInstrumentationOn)
    ->Unit(benchmark::kMillisecond);

void BM_CounterDisabled(benchmark::State& state) {
  MetricsRegistry::Disable();
  for (auto _ : state) {
    DDGMS_METRIC_INC("ddgms.bench.counter");
  }
}
DDGMS_BENCHMARK(BM_CounterDisabled);

void BM_CounterEnabled(benchmark::State& state) {
  MetricsRegistry::Enable();
  for (auto _ : state) {
    DDGMS_METRIC_INC("ddgms.bench.counter");
  }
  MetricsRegistry::Disable();
  MetricsRegistry::Global().ResetValues();
}
DDGMS_BENCHMARK(BM_CounterEnabled);

void BM_CounterEnabledCachedRef(benchmark::State& state) {
  MetricsRegistry::Enable();
  Counter& counter =
      MetricsRegistry::Global().GetCounter("ddgms.bench.counter");
  for (auto _ : state) {
    counter.Increment();
  }
  MetricsRegistry::Disable();
  MetricsRegistry::Global().ResetValues();
}
DDGMS_BENCHMARK(BM_CounterEnabledCachedRef);

void BM_HistogramEnabled(benchmark::State& state) {
  MetricsRegistry::Enable();
  double v = 0.0;
  for (auto _ : state) {
    DDGMS_METRIC_OBSERVE("ddgms.bench.histogram", v);
    v += 1.0;
    if (v > 1e6) v = 0.0;
  }
  MetricsRegistry::Disable();
  MetricsRegistry::Global().ResetValues();
}
DDGMS_BENCHMARK(BM_HistogramEnabled);

void BM_SpanDisabled(benchmark::State& state) {
  TraceCollector::Disable();
  for (auto _ : state) {
    TraceSpan span("bench.span");
    span.SetAttribute("i", 1);
    benchmark::DoNotOptimize(span.active());
  }
}
DDGMS_BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabled(benchmark::State& state) {
  TraceCollector::Enable();
  for (auto _ : state) {
    TraceSpan span("bench.span");
    span.SetAttribute("i", 1);
    benchmark::DoNotOptimize(span.active());
  }
  TraceCollector::Disable();
  TraceCollector::Global().Clear();
}
DDGMS_BENCHMARK(BM_SpanEnabled);

void BM_LogDisabled(benchmark::State& state) {
  EventLog::Disable();
  for (auto _ : state) {
    DDGMS_LOG_INFO("bench.event").With("i", 1);
  }
}
DDGMS_BENCHMARK(BM_LogDisabled);

void BM_LogEnabled(benchmark::State& state) {
  EventLog::Enable();
  for (auto _ : state) {
    DDGMS_LOG_INFO("bench.event").With("i", 1);
  }
  EventLog::Disable();
  EventLog::Global().Clear();
}
DDGMS_BENCHMARK(BM_LogEnabled);

void BM_LogBelowMinLevel(benchmark::State& state) {
  // Enabled log, debug record under the default info threshold: the
  // level check must keep the call site as cheap as the disabled gate.
  EventLog::Enable();
  for (auto _ : state) {
    DDGMS_LOG_DEBUG("bench.event").With("i", 1);
  }
  EventLog::Disable();
  EventLog::Global().Clear();
}
DDGMS_BENCHMARK(BM_LogBelowMinLevel);

void BM_ChargeDisabled(benchmark::State& state) {
  // The shipping default: one relaxed atomic load per charge site.
  ResourceMeter::Disable();
  for (auto _ : state) {
    DDGMS_RESOURCE_CHARGE(64);
  }
}
DDGMS_BENCHMARK(BM_ChargeDisabled);

void BM_ChargeEnabled(benchmark::State& state) {
  // TLS pool read + relaxed adds up the ancestor chain + peak CAS.
  ResourceMeter::Enable();
  ScopedAccounting accounting("olap.cube.cache");
  for (auto _ : state) {
    DDGMS_RESOURCE_CHARGE(64);
  }
  ResourceMeter::Disable();
  ResourceMeter::Global().ResetValues();
}
DDGMS_BENCHMARK(BM_ChargeEnabled);

void BM_WarehouseBuildMetered(benchmark::State& state) {
  // Full warehouse build with ONLY resource accounting on: the cost of
  // per-append byte attribution, comparable against
  // BM_WarehouseBuildInstrumentationOff.
  const Table transformed = MakeCohort(600);
  warehouse::StarSchemaBuilder builder(discri::MakeDiscriSchemaDef());
  MetricsRegistry::Disable();
  TraceCollector::Disable();
  EventLog::Disable();
  ResourceMeter::Enable();
  for (auto _ : state) {
    auto wh = builder.Build(transformed);
    if (!wh.ok()) state.SkipWithError("build failed");
    benchmark::DoNotOptimize(wh);
  }
  // Keep the counters: with --iterations pinned the attributed peak is
  // deterministic, and the harness exports it as meter_peak_bytes.
  ResourceMeter::Disable();
}
DDGMS_BENCHMARK(BM_WarehouseBuildMetered)->Unit(benchmark::kMillisecond);

void BM_WarehouseBuildProfiled(benchmark::State& state) {
  // Build under the 99 Hz sampling profiler; acceptance budget is
  // <= 5% over BM_WarehouseBuildInstrumentationOff.
  const Table transformed = MakeCohort(600);
  warehouse::StarSchemaBuilder builder(discri::MakeDiscriSchemaDef());
  MetricsRegistry::Disable();
  TraceCollector::Disable();
  EventLog::Disable();
  const bool profiling = Profiler::Global().Start().ok();
  for (auto _ : state) {
    auto wh = builder.Build(transformed);
    if (!wh.ok()) state.SkipWithError("build failed");
    benchmark::DoNotOptimize(wh);
  }
  if (profiling) {
    Profiler::Global().Stop().IgnoreError();
    state.counters["samples"] =
        static_cast<double>(Profiler::Global().samples_captured());
    Profiler::Global().Clear();
  }
}
DDGMS_BENCHMARK(BM_WarehouseBuildProfiled)
    ->Unit(benchmark::kMillisecond);

void BM_QueryRegistryBeginEnd(benchmark::State& state) {
  // Per-query cost of the in-flight registry: one Begin/End pair with
  // a TLS stage update in between (what every QueryMdx now pays when
  // the registry is enabled).
  QueryRegistry::Enable();
  for (auto _ : state) {
    ScopedQueryRecord record("mdx", "bench query");
    QueryRegistry::SetCurrentStage("execute");
    benchmark::DoNotOptimize(record.id());
  }
  QueryRegistry::Disable();
  QueryRegistry::Global().ResetForTesting();
}
DDGMS_BENCHMARK(BM_QueryRegistryBeginEnd);

void BM_QueryRegistryDisabled(benchmark::State& state) {
  // The shipping default: one relaxed atomic load, no registration.
  QueryRegistry::Disable();
  for (auto _ : state) {
    ScopedQueryRecord record("mdx", "bench query");
    benchmark::DoNotOptimize(record.id());
  }
}
DDGMS_BENCHMARK(BM_QueryRegistryDisabled);

void BM_PrometheusExport(benchmark::State& state) {
  // One /metrics render over a populated registry — the per-scrape
  // serialization cost, independent of the HTTP transport.
  MetricsRegistry::Enable();
  for (int i = 0; i < 64; ++i) {
    DDGMS_METRIC_INC("ddgms.bench.counter");
    DDGMS_METRIC_OBSERVE("ddgms.bench.histogram",
                         static_cast<double>(i));
  }
  for (auto _ : state) {
    std::string text =
        MetricsRegistry::Global().Snapshot().ToPrometheusText();
    benchmark::DoNotOptimize(text);
  }
  MetricsRegistry::Disable();
  MetricsRegistry::Global().ResetValues();
}
DDGMS_BENCHMARK(BM_PrometheusExport)->Unit(benchmark::kMicrosecond);

void BM_WarehouseBuildServedScrape(benchmark::State& state) {
  // Acceptance: a warehouse build while a loopback scraper hammers
  // /metrics stays within the 2% A7 budget of the un-served build
  // (compare against BM_WarehouseBuildInstrumentationOn — the server
  // requires the registry enabled to have anything to serve).
  const Table transformed = MakeCohort(600);
  warehouse::StarSchemaBuilder builder(discri::MakeDiscriSchemaDef());
  MetricsRegistry::Enable();
  TraceCollector::Enable();
  EventLog::Enable();
  server::ObservabilityOptions options;
  options.start_watchdog = false;
  server::ObservabilityServer obs(options);
  if (!obs.Start().ok()) state.SkipWithError("server start failed");
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      HttpGet("127.0.0.1", obs.port(), "/metrics").status().IgnoreError();
    }
  });
  for (auto _ : state) {
    auto wh = builder.Build(transformed);
    if (!wh.ok()) state.SkipWithError("build failed");
    benchmark::DoNotOptimize(wh);
  }
  stop.store(true);
  scraper.join();
  obs.Stop().IgnoreError();
  MetricsRegistry::Disable();
  TraceCollector::Disable();
  EventLog::Disable();
  MetricsRegistry::Global().ResetValues();
  TraceCollector::Global().Clear();
  EventLog::Global().Clear();
}
DDGMS_BENCHMARK(BM_WarehouseBuildServedScrape)
    ->Unit(benchmark::kMillisecond);

void BM_WindowTickDisabled(benchmark::State& state) {
  // The shipping default: a disabled registry's Tick() is one relaxed
  // atomic load, regardless of how many instruments are tracked.
  MetricsRegistry::Enable();
  WindowRegistry::Enable();
  WindowRegistry& windows = WindowRegistry::Global();
  for (int i = 0; i < 8; ++i) {
    const std::string name = "ddgms.bench.win" + std::to_string(i);
    windows.TrackCounter(name).IgnoreError();
    DDGMS_METRIC_INC(name);
  }
  WindowRegistry::Disable();
  for (auto _ : state) {
    windows.Tick();
  }
  WindowRegistry::Global().ResetForTesting();
  MetricsRegistry::Disable();
  MetricsRegistry::Global().ResetValues();
}
DDGMS_BENCHMARK(BM_WindowTickDisabled);

void BM_WindowTickEnabled(benchmark::State& state) {
  // One evaluator-period tick over a realistic tracked set: 8 counters
  // and 2 histograms across the three default window lengths. Each
  // iteration advances time 100ms and mutates every instrument so the
  // tick always has deltas to file.
  MetricsRegistry::Enable();
  WindowRegistry::Enable();
  WindowRegistry& windows = WindowRegistry::Global();
  windows.ResetForTesting();
  for (int i = 0; i < 8; ++i) {
    windows.TrackCounter("ddgms.bench.win" + std::to_string(i))
        .IgnoreError();
  }
  windows.TrackHistogram("ddgms.bench.winhist0").IgnoreError();
  windows.TrackHistogram("ddgms.bench.winhist1").IgnoreError();
  int64_t now_us = 1000000000;
  double v = 0.0;
  for (auto _ : state) {
    for (int i = 0; i < 8; ++i) {
      DDGMS_METRIC_INC("ddgms.bench.win" + std::to_string(i));
    }
    DDGMS_METRIC_OBSERVE("ddgms.bench.winhist0", v);
    DDGMS_METRIC_OBSERVE("ddgms.bench.winhist1", v);
    v += 7.0;
    if (v > 1e6) v = 0.0;
    now_us += 100000;
    windows.TickAt(now_us);
  }
  WindowRegistry::Disable();
  WindowRegistry::Global().ResetForTesting();
  MetricsRegistry::Disable();
  MetricsRegistry::Global().ResetValues();
}
DDGMS_BENCHMARK(BM_WindowTickEnabled)->Unit(benchmark::kMicrosecond);

void BM_WindowStatsRead(benchmark::State& state) {
  // Merging one window's ring into WindowStats (count, rate, and the
  // interpolated percentiles) — what every SLO evaluation pays per
  // (instrument, window) pair.
  MetricsRegistry::Enable();
  WindowRegistry::Enable();
  WindowRegistry& windows = WindowRegistry::Global();
  windows.ResetForTesting();
  windows.TrackHistogram("ddgms.bench.winhist").IgnoreError();
  int64_t now_us = 1000000000;
  for (int i = 0; i < 128; ++i) {
    DDGMS_METRIC_OBSERVE("ddgms.bench.winhist",
                         static_cast<double>(i) * 13.0);
    now_us += 1000000;
    windows.TickAt(now_us);
  }
  for (auto _ : state) {
    auto stats = windows.Stats("ddgms.bench.winhist", 60);
    if (!stats.ok()) state.SkipWithError("stats failed");
    benchmark::DoNotOptimize(stats);
  }
  WindowRegistry::Disable();
  WindowRegistry::Global().ResetForTesting();
  MetricsRegistry::Disable();
  MetricsRegistry::Global().ResetValues();
}
DDGMS_BENCHMARK(BM_WindowStatsRead);

void BM_SloEvaluate(benchmark::State& state) {
  // One full evaluation pass over the three stock SLOs: a window tick
  // plus burn-rate math and state-machine bookkeeping per SLO — the
  // per-period cost of the evaluator thread.
  MetricsRegistry::Enable();
  WindowRegistry::Enable();
  SloEngine::Enable();
  SloEngine& engine = SloEngine::Global();
  engine.ResetForTesting();
  WindowRegistry::Global().ResetForTesting();
  engine.RegisterDefaultSlos().IgnoreError();
  Histogram& lat = MetricsRegistry::Global().GetHistogram(
      "ddgms.mdx.execute_latency_us");
  int64_t now_us = 1000000000;
  double v = 1000.0;
  for (auto _ : state) {
    lat.Observe(v);
    v = (v < 200000.0) ? v * 1.5 : 1000.0;
    now_us += 100000;
    engine.EvaluateAt(now_us);
  }
  SloEngine::Disable();
  engine.ResetForTesting();
  WindowRegistry::Disable();
  WindowRegistry::Global().ResetForTesting();
  MetricsRegistry::Disable();
  MetricsRegistry::Global().ResetValues();
}
DDGMS_BENCHMARK(BM_SloEvaluate)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== A7: observability overhead ===\n");
  std::printf("budget: instrumentation-off warehouse build within 2%% "
              "of the pre-instrumentation baseline\n\n");
  return ddgms::bench::BenchMain(argc, argv, "bench_a7_observability");
}
