// Telemetry subsystem tests: registry semantics, span ring, sampler, the
// three exporters (Prometheus text / JSON / Chrome trace) including golden
// outputs, and end-to-end determinism of a telemetry-instrumented testbed
// run (two same-seed runs must export byte-identical artefacts).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "exp/testbed.hpp"
#include "sim/simulator.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace pbxcap;
using telemetry::LabelSet;
using telemetry::MetricsRegistry;
using telemetry::SpanTracer;

// ---- registry ---------------------------------------------------------------

TEST(MetricsRegistryTest, HandlesAreInternedAndStable) {
  MetricsRegistry reg;
  telemetry::Counter& a = reg.counter("requests_total", {{"method", "INVITE"}}, "help");
  telemetry::Counter& b = reg.counter("requests_total", {{"method", "INVITE"}});
  EXPECT_EQ(&a, &b);  // same (name, labels) -> same instance
  telemetry::Counter& c = reg.counter("requests_total", {{"method", "BYE"}});
  EXPECT_NE(&a, &c);
  a.add();
  a.add(2);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(reg.size(), 2u);
  // Help is kept from the first registration.
  EXPECT_EQ(reg.rows()[0].help, "help");
}

TEST(MetricsRegistryTest, KindMismatchThrows) {
  MetricsRegistry reg;
  (void)reg.counter("x_total");
  EXPECT_THROW((void)reg.gauge("x_total"), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram("x_total", {1.0}), std::invalid_argument);
}

TEST(MetricsRegistryTest, RowsKeepRegistrationOrder) {
  MetricsRegistry reg;
  (void)reg.gauge("b");
  (void)reg.counter("a");
  (void)reg.gauge("c");
  ASSERT_EQ(reg.rows().size(), 3u);
  EXPECT_EQ(reg.rows()[0].name, "b");
  EXPECT_EQ(reg.rows()[1].name, "a");
  EXPECT_EQ(reg.rows()[2].name, "c");
}

TEST(HistogramTest, ObservationsLandInBuckets) {
  telemetry::Histogram h{{1.0, 10.0, 100.0}};
  h.observe(0.5);    // <= 1
  h.observe(5.0);    // <= 10
  h.observe(50.0);   // <= 100
  h.observe(500.0);  // +inf
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 555.5);
  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.counts()[3], 1u);
}

TEST(HistogramTest, LogLinearLadderShape) {
  const auto bounds = telemetry::log_linear_buckets(1.0, 100.0, 5);
  ASSERT_GE(bounds.size(), 2u);
  EXPECT_DOUBLE_EQ(bounds.front(), 1.0);
  EXPECT_GE(bounds.back(), 100.0);
  for (std::size_t i = 1; i < bounds.size(); ++i) EXPECT_GT(bounds[i], bounds[i - 1]);
}

// ---- span tracer ------------------------------------------------------------

TEST(SpanTracerTest, BeginEndRoundTrip) {
  SpanTracer tracer{8};
  const auto setup = tracer.name_id("call.setup");
  const auto track = tracer.track_id("call-0@client");
  const auto id = tracer.begin(setup, track, TimePoint::at(Duration::millis(10)));
  tracer.end(id, TimePoint::at(Duration::millis(35)));
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(tracer.name_of(spans[0].name), "call.setup");
  EXPECT_EQ(spans[0].track, track);
  EXPECT_EQ(spans[0].end_ns - spans[0].start_ns, Duration::millis(25).ns());
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(SpanTracerTest, NullSpanIsNoOp) {
  SpanTracer tracer{4};
  tracer.end(0, TimePoint::at(Duration::seconds(1)));  // must not crash or record
  EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(SpanTracerTest, RingKeepsNewestAndCountsDropped) {
  SpanTracer tracer{4};
  const auto name = tracer.name_id("s");
  const auto track = tracer.track_id("t");
  for (int i = 0; i < 10; ++i) {
    const auto id = tracer.begin(name, track, TimePoint::at(Duration::seconds(i)));
    tracer.end(id, TimePoint::at(Duration::seconds(i)) + Duration::millis(1));
  }
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  // Newest four survive, oldest first.
  EXPECT_EQ(spans.front().start_ns, Duration::seconds(6).ns());
  EXPECT_EQ(spans.back().start_ns, Duration::seconds(9).ns());
  // Ending an overwritten span is silently ignored (stale SpanId after wrap).
  tracer.end(1, TimePoint::at(Duration::seconds(99)));
  EXPECT_EQ(tracer.spans().front().start_ns, Duration::seconds(6).ns());
}

// ---- sampler ----------------------------------------------------------------

TEST(SamplerTest, GaugeAndRateColumns) {
  sim::Simulator simulator;
  double level = 0.0;
  double cumulative = 0.0;
  telemetry::TimeSeriesSampler sampler;
  sampler.add_gauge("level", [&level] { return level; });
  sampler.add_rate("rate", [&cumulative] { return cumulative; });
  // The sampled signals step up by 1 and 10 per second respectively.
  for (int s = 0; s <= 5; ++s) {
    simulator.schedule_at(TimePoint::at(Duration::millis(1000 * s + 500)), [&level, &cumulative] {
      level += 1.0;
      cumulative += 10.0;
    });
  }
  sampler.start(simulator, Duration::seconds(1));
  simulator.run_until(TimePoint::at(Duration::millis(4500)));
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  ASSERT_EQ(sampler.rows(), 4u);
  ASSERT_EQ(sampler.columns(), 2u);
  EXPECT_EQ(sampler.column_name(0), "level");
  EXPECT_DOUBLE_EQ(sampler.value(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(sampler.value(0, 3), 4.0);
  // Rate: 10 units accumulated in every 1 s window.
  for (std::size_t row = 0; row < sampler.rows(); ++row) {
    EXPECT_DOUBLE_EQ(sampler.value(1, row), 10.0);
  }
}

TEST(SamplerTest, CsvGolden) {
  sim::Simulator simulator;
  telemetry::TimeSeriesSampler sampler;
  double v = 0.0;
  sampler.add_gauge("v", [&v] { return v; });
  simulator.schedule_at(TimePoint::at(Duration::millis(500)), [&v] { v = 2.5; });
  sampler.start(simulator, Duration::seconds(1));
  simulator.run_until(TimePoint::at(Duration::millis(2500)));
  sampler.stop();
  EXPECT_EQ(sampler.to_csv(),
            "time_s,v\n"
            "1.000,2.5\n"
            "2.000,2.5\n");
}

// ---- exporters --------------------------------------------------------------

TEST(ExportTest, PrometheusGolden) {
  MetricsRegistry reg;
  reg.counter("pbx_calls_total", {{"outcome", "ok"}}, "Calls by outcome").add(3);
  reg.gauge("pbx_active_channels", {}, "Busy channels").set(42.0);
  // Same family registered later, out of order: must still group under one
  // HELP/TYPE header.
  reg.counter("pbx_calls_total", {{"outcome", "blocked"}}).add(1);
  auto& h = reg.histogram("pbx_delay_ms", {10.0, 100.0}, {}, "Setup delay");
  h.observe(5.0);
  h.observe(50.0);
  h.observe(5000.0);
  EXPECT_EQ(telemetry::to_prometheus(reg),
            "# HELP pbx_calls_total Calls by outcome\n"
            "# TYPE pbx_calls_total counter\n"
            "pbx_calls_total{outcome=\"ok\"} 3\n"
            "pbx_calls_total{outcome=\"blocked\"} 1\n"
            "# HELP pbx_active_channels Busy channels\n"
            "# TYPE pbx_active_channels gauge\n"
            "pbx_active_channels 42\n"
            "# HELP pbx_delay_ms Setup delay\n"
            "# TYPE pbx_delay_ms histogram\n"
            "pbx_delay_ms_bucket{le=\"10\"} 1\n"
            "pbx_delay_ms_bucket{le=\"100\"} 2\n"
            "pbx_delay_ms_bucket{le=\"+Inf\"} 3\n"
            "pbx_delay_ms_sum 5055\n"
            "pbx_delay_ms_count 3\n");
}

TEST(ExportTest, JsonShape) {
  MetricsRegistry reg;
  reg.counter("c_total", {{"k", "v"}}).add(7);
  reg.gauge("g").set(1.5);
  const std::string json = telemetry::to_json(reg);
  EXPECT_NE(json.find("\"name\":\"c_total\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"labels\":{\"k\":\"v\"}"), std::string::npos);
  EXPECT_NE(json.find("\"value\":7"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"gauge\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(ExportTest, ChromeTraceShape) {
  SpanTracer tracer{16};
  const auto name = tracer.name_id("call.setup");
  const auto track = tracer.track_id("call-7@client");
  const auto id = tracer.begin(name, track, TimePoint::at(Duration::millis(1)));
  tracer.end(id, TimePoint::at(Duration::millis(3)));
  const auto open = tracer.begin(name, track, TimePoint::at(Duration::millis(5)));
  (void)open;  // never ended: must not be exported

  const std::string trace = telemetry::to_chrome_trace(tracer);
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  // Process + thread metadata for Perfetto track naming.
  EXPECT_NE(trace.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"args\":{\"name\":\"pbxcap\"}"), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"args\":{\"name\":\"call-7@client\"}"), std::string::npos);
  // The complete event: phase X with microsecond ts/dur on pid/tid.
  EXPECT_NE(trace.find("{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"call.setup\","
                       "\"ts\":1000.000,\"dur\":2000.000}"),
            std::string::npos);
  // Exactly one X event (the open span is skipped).
  std::size_t x_events = 0;
  for (std::size_t pos = trace.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = trace.find("\"ph\":\"X\"", pos + 1)) {
    ++x_events;
  }
  EXPECT_EQ(x_events, 1u);
}

// ---- end-to-end -------------------------------------------------------------

exp::TestbedConfig small_config(telemetry::Telemetry* tel) {
  exp::TestbedConfig config;
  config.scenario = loadgen::CallScenario::for_offered_load(20.0);
  config.scenario.placement_window = Duration::seconds(15);
  config.scenario.hold_time = Duration::seconds(10);
  config.scenario.arrival_rate_per_s = 2.0;
  config.pbx.max_channels = 22;  // force a little blocking
  config.seed = 42;
  config.telemetry = tel;
  return config;
}

TEST(TelemetryIntegrationTest, TestbedPopulatesAllThreePillars) {
  telemetry::Telemetry tel;
  const auto report = exp::run_testbed(small_config(&tel));
  ASSERT_GT(report.calls_attempted, 0u);

  // Metrics: the headline counters and the active-channel gauge exist.
  const std::string prom = telemetry::to_prometheus(tel.registry());
  EXPECT_NE(prom.find("pbxcap_pbx_invites_total"), std::string::npos);
  EXPECT_NE(prom.find("pbxcap_pbx_active_channels"), std::string::npos);
  EXPECT_NE(prom.find("pbxcap_caller_calls_total{outcome=\"completed\"}"), std::string::npos);
  EXPECT_NE(prom.find("pbxcap_sip_messages_total"), std::string::npos);
  EXPECT_NE(prom.find("pbxcap_sip_messages_observed_total{type=\"INVITE\"}"),
            std::string::npos);

  // Sampler: one row per simulated second, with the standard columns.
  ASSERT_GT(tel.sampler().rows(), 10u);
  EXPECT_EQ(tel.sampler().column_name(0), "active_channels");
  const std::string csv = tel.sampler().to_csv();
  EXPECT_EQ(csv.find("time_s,active_channels,cpu_utilization,blocking_probability,"
                     "calls_blocked_per_s,sip_msgs_per_s,rtp_pkts_per_s\n"),
            0u);

  // Tracer: at least one complete call's setup, media, and teardown spans.
  ASSERT_NE(tel.tracer(), nullptr);
  const std::string trace = telemetry::to_chrome_trace(*tel.tracer());
  EXPECT_NE(trace.find("\"name\":\"call.setup\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"call.media\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"call.teardown\""), std::string::npos);
}

TEST(TelemetryIntegrationTest, SameSeedRunsExportIdenticalArtifacts) {
  telemetry::Telemetry tel_a;
  telemetry::Telemetry tel_b;
  const auto ra = exp::run_testbed(small_config(&tel_a));
  const auto rb = exp::run_testbed(small_config(&tel_b));
  EXPECT_EQ(ra.events_processed, rb.events_processed);
  EXPECT_EQ(telemetry::to_prometheus(tel_a.registry()),
            telemetry::to_prometheus(tel_b.registry()));
  EXPECT_EQ(telemetry::to_json(tel_a.registry()), telemetry::to_json(tel_b.registry()));
  EXPECT_EQ(tel_a.sampler().to_csv(), tel_b.sampler().to_csv());
  ASSERT_NE(tel_a.tracer(), nullptr);
  ASSERT_NE(tel_b.tracer(), nullptr);
  EXPECT_EQ(telemetry::to_chrome_trace(*tel_a.tracer()),
            telemetry::to_chrome_trace(*tel_b.tracer()));
}

TEST(TelemetryIntegrationTest, TelemetryDoesNotPerturbTheSimulation) {
  // The instrumented run must make exactly the same calls with the same
  // outcomes as the bare run (the sampler adds events, so events_processed
  // is allowed to differ — call-level results are not).
  telemetry::Telemetry tel;
  const auto bare = exp::run_testbed(small_config(nullptr));
  const auto instrumented = exp::run_testbed(small_config(&tel));
  EXPECT_EQ(bare.calls_attempted, instrumented.calls_attempted);
  EXPECT_EQ(bare.calls_completed, instrumented.calls_completed);
  EXPECT_EQ(bare.calls_blocked, instrumented.calls_blocked);
  EXPECT_EQ(bare.calls_failed, instrumented.calls_failed);
  EXPECT_DOUBLE_EQ(bare.mos.mean(), instrumented.mos.mean());
}

}  // namespace
