// Telemetry subsystem tests: sink semantics (counters, gauges, histograms,
// spans), JSON snapshot round-trip through the bundled parser, Chrome trace
// output shape, RunReport documents, and -- the acceptance criterion of the
// instrumentation -- that the metrics an instrumented scheduler run emits
// match the scalars on its ExecutionResult exactly, while a null sink leaves
// the execution bit-for-bit unchanged.
#include <gtest/gtest.h>

#include <sstream>

#include "graph/generators.hpp"
#include "json_parse.hpp"
#include "sched/private_scheduler.hpp"
#include "sched/shared_scheduler.hpp"
#include "sched/workloads.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/telemetry.hpp"
#include "util/stats.hpp"

namespace dasched {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry semantics.
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CountersAccumulate) {
  MetricsRegistry m;
  EXPECT_EQ(m.counter("x"), 0u);
  m.add_counter("x", 2);
  m.add_counter("x", 3);
  m.add_counter("y", 1);
  EXPECT_EQ(m.counter("x"), 5u);
  EXPECT_EQ(m.counter("y"), 1u);
  EXPECT_EQ(m.counter("absent"), 0u);
}

TEST(MetricsRegistry, GaugesOverwrite) {
  MetricsRegistry m;
  m.set_gauge("g", 1.5);
  m.set_gauge("g", -2.0);
  EXPECT_DOUBLE_EQ(m.gauge("g"), -2.0);
  EXPECT_DOUBLE_EQ(m.gauge("absent"), 0.0);
}

TEST(MetricsRegistry, HistogramsAggregate) {
  MetricsRegistry m;
  for (const double x : {3.0, 1.0, 2.0, 2.0}) m.record_value("h", x);
  const Histogram* h = m.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 4u);
  EXPECT_DOUBLE_EQ(h->min(), 1.0);
  EXPECT_DOUBLE_EQ(h->max(), 3.0);
  EXPECT_DOUBLE_EQ(h->mean(), 2.0);
  EXPECT_DOUBLE_EQ(h->quantile(0.5), 2.0);
  EXPECT_EQ(m.histogram("absent"), nullptr);
}

TEST(MetricsRegistry, SampleRetentionIsCapped) {
  MetricsRegistry m;
  m.set_sample_cap(8);
  for (int i = 0; i < 100; ++i) m.record_value("h", i);
  const Histogram* h = m.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 100u);
  EXPECT_EQ(h->retained(), 8u);
  EXPECT_FALSE(h->complete());
  // Exact moments survive the cap; quantiles fall back to the log buckets
  // but stay clamped to the observed range.
  EXPECT_DOUBLE_EQ(h->min(), 0.0);
  EXPECT_DOUBLE_EQ(h->max(), 99.0);
  EXPECT_DOUBLE_EQ(h->mean(), 49.5);
  EXPECT_GE(h->quantile(0.5), 0.0);
  EXPECT_LE(h->quantile(0.5), 99.0);

  // The JSON snapshot reports how many samples the cap dropped.
  const auto doc = json::parse(m.to_json(true));
  ASSERT_NE(doc, nullptr);
  EXPECT_DOUBLE_EQ(
      doc->get("histograms")->get("h")->get("samples_dropped")->number, 92.0);

  // Opting back into full retention is explicit.
  MetricsRegistry full;
  full.keep_all_samples();
  for (int i = 0; i < 100; ++i) full.record_value("h", i);
  EXPECT_TRUE(full.histogram("h")->complete());
  EXPECT_DOUBLE_EQ(full.histogram("h")->quantile(0.5), 50.0);
}

TEST(MetricsRegistry, SpansKeyedByCategorySlashName) {
  MetricsRegistry m;
  m.record_span("cat", "op", 100, 40, {});
  m.record_span("cat", "op", 200, 10, {});
  const auto* s = m.span("cat/op");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 2u);
  EXPECT_EQ(s->total_us, 50u);
  EXPECT_EQ(s->max_us, 40u);
  EXPECT_EQ(m.span("cat/other"), nullptr);
}

TEST(MetricsRegistry, ClearEmptiesEverything) {
  MetricsRegistry m;
  m.add_counter("c", 1);
  m.set_gauge("g", 1);
  m.record_value("h", 1);
  m.record_span("s", "p", 0, 1, {});
  EXPECT_FALSE(m.empty());
  m.clear();
  EXPECT_TRUE(m.empty());
}

// ---------------------------------------------------------------------------
// TimedSpan / TeeSink.
// ---------------------------------------------------------------------------

TEST(TimedSpan, RecordsOnceWithArgs) {
  MetricsRegistry m;
  {
    TimedSpan span(&m, "test", "work");
    span.arg("items", 7);
    span.finish();
    span.finish();  // idempotent
  }  // destructor after finish: no double record
  const auto* s = m.span("test/work");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 1u);
}

TEST(TimedSpan, NullSinkIsNoOp) {
  TimedSpan span(nullptr, "test", "work");
  span.arg("x", 1);
  span.finish();  // must not crash
}

TEST(TeeSink, FansOutToAllSinks) {
  MetricsRegistry a;
  MetricsRegistry b;
  TeeSink tee({&a, nullptr, &b});
  tee.add_counter("c", 2);
  tee.set_gauge("g", 3.0);
  tee.record_value("h", 4.0);
  tee.record_span("s", "p", 0, 5, {});
  for (const auto* m : {&a, &b}) {
    EXPECT_EQ(m->counter("c"), 2u);
    EXPECT_DOUBLE_EQ(m->gauge("g"), 3.0);
    EXPECT_EQ(m->histogram("h")->count(), 1u);
    EXPECT_EQ(m->span("s/p")->count, 1u);
  }
}

// ---------------------------------------------------------------------------
// SampleSet lazy-sort regression (the double-mutation subtlety).
// ---------------------------------------------------------------------------

TEST(SampleSet, SortedAccessorIsAscendingAndTracksAdds) {
  SampleSet s;
  s.add(3);
  s.add(1);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 3.0);  // triggers the lazy sort
  s.add(0.5);                              // must invalidate the sorted state
  const auto& sorted = s.sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
  EXPECT_DOUBLE_EQ(s.min(), 0.5);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.5);
}

// ---------------------------------------------------------------------------
// JSON writer/parser round-trip.
// ---------------------------------------------------------------------------

TEST(Json, WriterEscapesAndParserUnescapes) {
  std::ostringstream oss;
  json::Writer w(oss);
  w.begin_object();
  w.kv("text", "line\n\"quoted\"\\x");
  w.kv("num", 1.25);
  w.key("arr");
  w.begin_array();
  w.value(std::uint64_t{7});
  w.value(true);
  w.null();
  w.end_array();
  w.end_object();

  const auto doc = json::parse(oss.str());
  ASSERT_NE(doc, nullptr) << oss.str();
  EXPECT_EQ(doc->get("text")->string, "line\n\"quoted\"\\x");
  EXPECT_DOUBLE_EQ(doc->get("num")->number, 1.25);
  ASSERT_EQ(doc->get("arr")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(doc->get("arr")->array[0]->number, 7.0);
  EXPECT_TRUE(doc->get("arr")->array[1]->boolean);
  EXPECT_EQ(doc->get("arr")->array[2]->kind, json::Value::Kind::kNull);
}

TEST(Json, ParserRejectsMalformedInput) {
  std::string err;
  EXPECT_EQ(json::parse("{\"a\": }", &err), nullptr);
  EXPECT_FALSE(err.empty());
  EXPECT_EQ(json::parse("[1, 2", nullptr), nullptr);
  EXPECT_EQ(json::parse("{} trailing", nullptr), nullptr);
  EXPECT_EQ(json::parse("", nullptr), nullptr);
}

TEST(MetricsRegistry, JsonSnapshotRoundTrip) {
  MetricsRegistry m;
  m.add_counter("runs", 3);
  m.set_gauge("phase_len", 8.0);
  for (const double x : {5.0, 1.0, 3.0}) m.record_value("load", x);
  m.record_span("exec", "run", 10, 250, {});

  const auto doc = json::parse(m.to_json(/*include_samples=*/true));
  ASSERT_NE(doc, nullptr);
  EXPECT_DOUBLE_EQ(doc->get("counters")->get("runs")->number, 3.0);
  EXPECT_DOUBLE_EQ(doc->get("gauges")->get("phase_len")->number, 8.0);

  const auto* h = doc->get("histograms")->get("load");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->get("count")->number, 3.0);
  EXPECT_DOUBLE_EQ(h->get("min")->number, 1.0);
  EXPECT_DOUBLE_EQ(h->get("max")->number, 5.0);
  EXPECT_DOUBLE_EQ(h->get("mean")->number, 3.0);
  const auto* samples = h->get("samples");
  ASSERT_NE(samples, nullptr);
  ASSERT_EQ(samples->array.size(), 3u);
  EXPECT_DOUBLE_EQ(samples->array[0]->number, 1.0);  // exported ascending
  EXPECT_DOUBLE_EQ(samples->array[2]->number, 5.0);

  const auto* span = doc->get("spans")->get("exec/run");
  ASSERT_NE(span, nullptr);
  EXPECT_DOUBLE_EQ(span->get("count")->number, 1.0);
  EXPECT_DOUBLE_EQ(span->get("total_us")->number, 250.0);
}

// ---------------------------------------------------------------------------
// ChromeTraceSink.
// ---------------------------------------------------------------------------

TEST(ChromeTrace, EmitsParsableTraceEventsDocument) {
  ChromeTraceSink trace("unit-test");
  const SpanArg args[] = {{"load", 3.0}};
  trace.record_span("executor", "big_round", 1000, 50, args);
  trace.add_counter("messages", 2);
  trace.add_counter("messages", 3);
  trace.record_value("max_load", 7.0);  // samples are counter-track points too

  std::ostringstream oss;
  trace.write(oss);
  const auto doc = json::parse(oss.str());
  ASSERT_NE(doc, nullptr) << oss.str();
  const auto* events = doc->get("traceEvents");
  ASSERT_NE(events, nullptr);
  // metadata + 1 span + 2 counter samples + 1 histogram sample.
  ASSERT_EQ(events->array.size(), 5u);

  const auto& span = *events->array[1];
  EXPECT_EQ(span.get("ph")->string, "X");
  EXPECT_EQ(span.get("name")->string, "big_round");
  EXPECT_EQ(span.get("cat")->string, "executor");
  EXPECT_DOUBLE_EQ(span.get("dur")->number, 50.0);
  EXPECT_DOUBLE_EQ(span.get("args")->get("load")->number, 3.0);

  // Counter samples carry the cumulative value.
  EXPECT_DOUBLE_EQ(events->array[2]->get("args")->get("value")->number, 2.0);
  EXPECT_DOUBLE_EQ(events->array[3]->get("args")->get("value")->number, 5.0);

  // record_value samples carry the emitted value, not a running total.
  EXPECT_EQ(events->array[4]->get("ph")->string, "C");
  EXPECT_EQ(events->array[4]->get("name")->string, "max_load");
  EXPECT_DOUBLE_EQ(events->array[4]->get("args")->get("value")->number, 7.0);
}

// ---------------------------------------------------------------------------
// RunReport.
// ---------------------------------------------------------------------------

TEST(RunReport, WritesSchemaMetaTablesAndTelemetry) {
  Table table("demo");
  table.set_header({"a", "b"});
  table.add_row({"1", "x"});
  table.add_row({"2", "y"});

  MetricsRegistry metrics;
  metrics.add_counter("c", 9);

  RunReport report;
  report.set_meta("graph", "gnp");
  report.set_meta("n", std::uint64_t{100});
  report.set_meta("n", std::uint64_t{150});  // overwrite, no duplicate key
  report.add_table(table);
  report.attach_metrics(metrics);

  std::ostringstream oss;
  report.write(oss);
  const auto doc = json::parse(oss.str());
  ASSERT_NE(doc, nullptr) << oss.str();
  EXPECT_EQ(doc->get("schema")->string, "dasched.run_report.v1");
  EXPECT_EQ(doc->get("meta")->get("graph")->string, "gnp");
  EXPECT_DOUBLE_EQ(doc->get("meta")->get("n")->number, 150.0);

  const auto* tables = doc->get("tables");
  ASSERT_EQ(tables->array.size(), 1u);
  EXPECT_EQ(tables->array[0]->get("title")->string, "demo");
  EXPECT_EQ(tables->array[0]->get("columns")->array.size(), 2u);
  const auto* rows = tables->array[0]->get("rows");
  ASSERT_EQ(rows->array.size(), 2u);
  EXPECT_EQ(rows->array[1]->array[1]->string, "y");

  EXPECT_DOUBLE_EQ(doc->get("telemetry")->get("counters")->get("c")->number, 9.0);
}

TEST(RunReport, SeriesRoundTripsThroughJson) {
  RunReport report;
  EXPECT_EQ(report.num_series(), 0u);

  RunReport::Series s;
  s.name = "e12.fault_sweep";
  s.columns = {"drop_rate", "lost"};
  s.points = {{0.01, 3.0}, {0.05, 17.0}};
  report.add_series(std::move(s));
  EXPECT_EQ(report.num_series(), 1u);
  EXPECT_FALSE(report.empty());

  std::ostringstream oss;
  report.write(oss);
  const auto doc = json::parse(oss.str());
  ASSERT_NE(doc, nullptr) << oss.str();
  const auto* series = doc->get("series");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->array.size(), 1u);
  EXPECT_EQ(series->array[0]->get("name")->string, "e12.fault_sweep");
  EXPECT_EQ(series->array[0]->get("columns")->array[1]->string, "lost");
  const auto* points = series->array[0]->get("points");
  ASSERT_EQ(points->array.size(), 2u);
  EXPECT_DOUBLE_EQ(points->array[1]->array[0]->number, 0.05);
  EXPECT_DOUBLE_EQ(points->array[1]->array[1]->number, 17.0);

  // A report without series omits the key entirely (schema stability).
  RunReport bare;
  bare.set_meta("x", std::uint64_t{1});
  std::ostringstream bare_os;
  bare.write(bare_os);
  EXPECT_EQ(bare_os.str().find("\"series\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Instrumented executions: metrics must match ExecutionResult exactly, and a
// null sink must not change the execution.
// ---------------------------------------------------------------------------

TEST(InstrumentedExecution, SharedSchedulerMetricsMatchExecutionResult) {
  Rng rng(11);
  const auto g = make_gnp_connected(60, 0.08, rng);
  auto problem = make_mixed_workload(g, 6, 3, 11);

  MetricsRegistry metrics;
  SharedSchedulerConfig cfg;
  cfg.shared_seed = 11;
  cfg.telemetry = &metrics;
  const auto out = SharedRandomnessScheduler(cfg).run(*problem);
  ASSERT_TRUE(problem->verify(out.exec).ok());

  EXPECT_EQ(metrics.counter("executor.messages_sent"), out.exec.total_messages);
  EXPECT_EQ(metrics.counter("executor.messages_delivered"), out.exec.total_messages);
  EXPECT_EQ(metrics.counter("executor.causality_violations"),
            out.exec.causality_violations);
  EXPECT_EQ(metrics.counter("executor.big_rounds"), out.exec.num_big_rounds);
  EXPECT_EQ(metrics.counter("sched.shared.fixed_phase_overflows"),
            out.fixed.overflowing_phases);
  EXPECT_DOUBLE_EQ(metrics.gauge("executor.max_edge_load"), out.exec.max_edge_load);
  EXPECT_DOUBLE_EQ(metrics.gauge("sched.shared.phase_len"), out.phase_len);
  EXPECT_DOUBLE_EQ(metrics.gauge("sched.shared.schedule_rounds"),
                   static_cast<double>(out.schedule_rounds));

  // The per-big-round max-load histogram is the ExecutionResult vector.
  const Histogram* loads = metrics.histogram("executor.max_load_per_big_round");
  ASSERT_NE(loads, nullptr);
  ASSERT_EQ(loads->count(), out.exec.max_load_per_big_round.size());
  auto expected = out.exec.max_load_per_big_round;
  std::sort(expected.begin(), expected.end());
  const auto& got = loads->sorted();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], static_cast<double>(expected[i])) << "index " << i;
  }

  // Delay histogram: one sample per algorithm.
  ASSERT_NE(metrics.histogram("sched.shared.delay"), nullptr);
  EXPECT_EQ(metrics.histogram("sched.shared.delay")->count(), problem->size());

  // Pipeline spans were recorded.
  ASSERT_NE(metrics.span("sched.shared/run"), nullptr);
  ASSERT_NE(metrics.span("sched.shared/execute"), nullptr);
  ASSERT_NE(metrics.span("executor/run"), nullptr);
  EXPECT_EQ(metrics.span("executor/big_round")->count, out.exec.num_big_rounds);
}

TEST(InstrumentedExecution, PrivateSchedulerEmitsPipelineMetrics) {
  Rng rng(7);
  const auto g = make_gnp_connected(50, 0.1, rng);
  auto problem = make_mixed_workload(g, 4, 2, 7);

  MetricsRegistry metrics;
  PrivateSchedulerConfig cfg;
  cfg.seed = 7;
  cfg.telemetry = &metrics;
  const auto out = PrivateRandomnessScheduler(cfg).run(*problem);
  ASSERT_TRUE(problem->verify(out.exec).ok());

  EXPECT_EQ(metrics.counter("sched.private.precomputation_rounds"),
            out.precomputation_rounds);
  EXPECT_EQ(metrics.counter("clustering.rounds") + metrics.counter("rand_sharing.rounds"),
            out.precomputation_rounds);
  EXPECT_EQ(metrics.counter("sched.private.uncovered_nodes"), out.uncovered_nodes);
  EXPECT_DOUBLE_EQ(metrics.gauge("sched.private.num_layers"), out.num_layers);
  EXPECT_DOUBLE_EQ(metrics.gauge("sched.private.mean_coverage"), out.mean_coverage);

  // Lemma 4.4 accounting: every scheduled slot had >= 1 eligible layer copy.
  EXPECT_GT(metrics.counter("sched.private.scheduled_slots"), 0u);
  EXPECT_GE(metrics.counter("sched.private.dedup_suppressed"), 0u);

  // Clustering diagnostics: one cluster-count sample per layer, one h' sample
  // per (layer, node), one coverage sample per node.
  ASSERT_NE(metrics.histogram("clustering.clusters_per_layer"), nullptr);
  EXPECT_EQ(metrics.histogram("clustering.clusters_per_layer")->count(), out.num_layers);
  ASSERT_NE(metrics.histogram("clustering.h_prime"), nullptr);
  EXPECT_EQ(metrics.histogram("clustering.h_prime")->count(),
            static_cast<std::size_t>(out.num_layers) * g.num_nodes());
  ASSERT_NE(metrics.histogram("sched.private.coverage"), nullptr);
  EXPECT_EQ(metrics.histogram("sched.private.coverage")->count(), g.num_nodes());

  // Every pipeline stage span exists.
  for (const char* key : {"sched.private/run", "sched.private/clustering",
                          "sched.private/rand_sharing", "sched.private/compute_delays",
                          "sched.private/build_schedule", "sched.private/execute"}) {
    EXPECT_NE(metrics.span(key), nullptr) << key;
  }
}

TEST(InstrumentedExecution, NullSinkLeavesExecutionUnchanged) {
  Rng rng(3);
  const auto g = make_gnp_connected(40, 0.1, rng);

  auto run_once = [&](TelemetrySink* sink) {
    auto problem = make_mixed_workload(g, 5, 3, 3);
    SharedSchedulerConfig cfg;
    cfg.shared_seed = 3;
    cfg.telemetry = sink;
    return SharedRandomnessScheduler(cfg).run(*problem);
  };

  MetricsRegistry metrics;
  const auto with = run_once(&metrics);
  const auto without = run_once(nullptr);

  EXPECT_EQ(with.exec.total_messages, without.exec.total_messages);
  EXPECT_EQ(with.exec.num_big_rounds, without.exec.num_big_rounds);
  EXPECT_EQ(with.exec.max_load_per_big_round, without.exec.max_load_per_big_round);
  EXPECT_EQ(with.exec.outputs, without.exec.outputs);
  EXPECT_EQ(with.delays, without.delays);
  EXPECT_FALSE(metrics.empty());
}

}  // namespace
}  // namespace dasched