// Telemetry subsystem tests: registry semantics, span ring, sampler, the
// three exporters (Prometheus text / JSON / Chrome trace) including golden
// outputs, and end-to-end determinism of a telemetry-instrumented testbed
// run (two same-seed runs must export byte-identical artefacts).
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/testbed.hpp"
#include "exp/topology.hpp"
#include "fault/plan.hpp"
#include "monitor/trace.hpp"
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

  // With the sampler's first tick past the horizon and the profiler off,
  // metrics and spans schedule nothing: the kernel runs the bare run's
  // events exactly.
  telemetry::Telemetry quiet{{.profiling = false, .sample_period = Duration::seconds(3600)}};
  const auto traced = exp::run_testbed(small_config(&quiet));
  EXPECT_EQ(quiet.sampler().rows(), 0u);
  EXPECT_GT(quiet.registry().size(), 0u);
  EXPECT_EQ(traced.events_processed, bare.events_processed);
}

// ---- published counters -----------------------------------------------------

/// Rows by "name{k=v,...}": a counter's or gauge's value, a histogram's
/// observation count.
using RowValues = std::map<std::string, double>;

void put(RowValues& rows, std::string_view name, const LabelSet& labels, double value) {
  std::string key{name};
  key += '{';
  for (const auto& label : labels) key += label.key + '=' + label.value + ',';
  key += '}';
  rows[key] += value;  // one key from several components adds up
}

RowValues registry_rows(const MetricsRegistry& reg) {
  RowValues rows;
  for (const MetricsRegistry::Row& row : reg.rows()) {
    switch (row.kind) {
      case telemetry::MetricKind::kCounter:
        put(rows, row.name, row.labels, static_cast<double>(row.counter->value()));
        break;
      case telemetry::MetricKind::kGauge:
        put(rows, row.name, row.labels, row.gauge->value());
        break;
      case telemetry::MetricKind::kHistogram:
        put(rows, row.name, row.labels, static_cast<double>(row.histogram->count()));
        break;
    }
  }
  return rows;
}

double d(std::uint64_t v) { return static_cast<double>(v); }

/// What an endpoint's own readers say its rows hold.
void endpoint_rows(RowValues& rows, const sip::SipEndpoint& ep) {
  const std::string& host = ep.sip_host();
  const sip::TransactionLayer& layer = ep.transactions();
  put(rows, "pbxcap_sip_transactions_total", {{"host", host}, {"side", "client"}},
      d(layer.client_transactions_started()));
  put(rows, "pbxcap_sip_transactions_total", {{"host", host}, {"side", "server"}},
      d(layer.server_transactions_started()));
  put(rows, "pbxcap_sip_retransmissions_total", {{"host", host}},
      d(layer.total_retransmissions()));
  put(rows, "pbxcap_sip_transaction_timeouts_total", {{"host", host}},
      d(layer.transaction_timeouts()));
  put(rows, "pbxcap_sip_messages_total", {{"host", host}, {"direction", "tx"}},
      d(ep.sip_messages_sent()));
  put(rows, "pbxcap_sip_messages_total", {{"host", host}, {"direction", "rx"}},
      d(ep.sip_messages_received()));
}

void caller_rows(RowValues& rows, const loadgen::SipCaller& caller, bool dispatched) {
  endpoint_rows(rows, caller);
  if (dispatched) put(rows, "pbxcap_cluster_failovers_total", {}, d(caller.failovers()));
  const monitor::CallLog& log = caller.log();
  put(rows, "pbxcap_caller_calls_offered_total", {}, d(caller.calls_offered()));
  put(rows, "pbxcap_caller_calls_total", {{"outcome", "completed"}}, d(log.completed()));
  put(rows, "pbxcap_caller_calls_total", {{"outcome", "blocked"}}, d(log.blocked()));
  put(rows, "pbxcap_caller_calls_total", {{"outcome", "failed"}}, d(log.failed()));
  put(rows, "pbxcap_caller_calls_total", {{"outcome", "abandoned"}},
      d(log.count(monitor::CallOutcome::kAbandoned)));
  put(rows, "pbxcap_caller_retries_total", {}, d(caller.retries()));
  put(rows, "pbxcap_rtp_packets_sent_total", {{"host", caller.sip_host()}},
      d(caller.rtp_packets_sent()));
  std::uint64_t answered = 0;
  for (const monitor::CallRecord& r : log.records()) answered += r.talk_time > Duration::zero();
  put(rows, "pbxcap_caller_setup_delay_ms", {}, d(answered));
  put(rows, "pbxcap_caller_mos", {}, d(answered));
}

void receiver_rows(RowValues& rows, const loadgen::SipReceiver& receiver) {
  endpoint_rows(rows, receiver);
  put(rows, "pbxcap_receiver_calls_answered_total", {}, d(receiver.calls_answered()));
  put(rows, "pbxcap_receiver_rejected_488_total", {}, d(receiver.rejected_488()));
  put(rows, "pbxcap_rtp_packets_sent_total", {{"host", receiver.sip_host()}},
      d(receiver.rtp_packets_sent()));
}

void pbx_rows(RowValues& rows, const pbx::AsteriskPbx& pbx) {
  endpoint_rows(rows, pbx);
  const pbx::AcdSubsystem& acd = pbx.acd();
  for (std::size_t qi = 0; qi < acd.queue_count(); ++qi) {
    const std::string& queue = pbx.config().acd.queues[qi].name;
    const pbx::AcdQueueStats& st = acd.stats(qi);
    const auto event = [&](const char* name, std::uint64_t v) {
      put(rows, "pbxcap_acd_calls_total", {{"queue", queue}, {"event", name}}, d(v));
    };
    event("offered", st.offered);
    event("queued", st.queued);
    event("served", st.served);
    event("abandoned", st.abandoned);
    event("timeout", st.timed_out);
    event("voicemail", st.voicemail);
    event("blocked_full", st.blocked_full);
    put(rows, "pbxcap_acd_announcements_total", {{"queue", queue}}, d(st.announcements));
    put(rows, "pbxcap_acd_queue_depth", {{"queue", queue}}, d(acd.depth(qi)));
    put(rows, "pbxcap_acd_agents_busy", {{"queue", queue}}, d(acd.busy_agents(qi)));
    put(rows, "pbxcap_acd_wait_seconds", {{"queue", queue}}, d(st.wait_s.count()));
  }
  put(rows, "pbxcap_pbx_invites_total", {}, d(pbx.invites()));
  put(rows, "pbxcap_pbx_calls_blocked_total", {{"reason", "policy"}}, d(pbx.policy_rejections()));
  put(rows, "pbxcap_pbx_calls_blocked_total", {{"reason", "cac"}}, d(pbx.cac_rejections()));
  put(rows, "pbxcap_pbx_calls_blocked_total", {{"reason", "channels"}},
      d(pbx.channel_rejections()));
  put(rows, "pbxcap_pbx_calls_answered_total", {}, d(pbx.calls_answered()));
  put(rows, "pbxcap_pbx_calls_failed_total", {}, d(pbx.calls_failed()));
  put(rows, "pbxcap_pbx_rtp_relayed_total", {}, d(pbx.rtp_relayed()));
  put(rows, "pbxcap_pbx_rtp_transcoded_total", {}, d(pbx.transcoded_rtp()));
  put(rows, "pbxcap_pbx_rtp_dropped_total", {}, d(pbx.rtp_dropped_unknown_ssrc()));
  put(rows, "pbxcap_pbx_overload_rejections_total", {}, d(pbx.overload_rejections()));
  put(rows, "pbxcap_pbx_sip_queue_dropped_total", {}, d(pbx.sip_queue_dropped()));
  put(rows, "pbxcap_pbx_active_channels", {}, d(pbx.channels().in_use()));
  put(rows, "pbxcap_cluster_congestion_total", {{"backend", pbx.sip_host()}},
      d(pbx.cdrs().count(pbx::Disposition::kCongestion)));
  put(rows, "pbxcap_cluster_peak_channels", {{"backend", pbx.sip_host()}},
      d(pbx.channels().peak()));
}

/// The NIC census: one row per message type seen, and the errors.
void capture_rows(RowValues& rows, const monitor::SipCapture& sip) {
  std::uint64_t seen = 0;
  const auto observed = [&](std::string type, std::uint64_t n) {
    if (n == 0) return;
    put(rows, "pbxcap_sip_messages_observed_total", {{"type", std::move(type)}}, d(n));
    seen += n;
  };
  for (int code = monitor::SipCapture::kMinCode; code <= monitor::SipCapture::kMaxCode; ++code) {
    observed(std::to_string(code), sip.responses(code));
  }
  for (int m = 0; m <= static_cast<int>(sip::Method::kUnknown); ++m) {
    const auto method = static_cast<sip::Method>(m);
    observed(std::string{sip::to_string(method)}, sip.requests(method));
  }
  EXPECT_EQ(seen, sip.total());  // every message has a type row
  put(rows, "pbxcap_sip_errors_observed_total", {}, d(sip.errors()));
}

/// Both directions' drops, by cause; links under one name add up.
void link_rows(RowValues& rows, const char* name, const net::Link* link) {
  if (link == nullptr) return;
  for (const net::NodeId end : {link->endpoint_a(), link->endpoint_b()}) {
    const net::LinkDirectionStats& st = link->stats_from(end);
    const auto dropped = [&](const char* reason, std::uint64_t v) {
      put(rows, "pbxcap_link_dropped_total", {{"link", name}, {"reason", reason}}, d(v));
    };
    dropped("queue_full", st.dropped_queue_full);
    dropped("random_loss", st.dropped_random_loss);
    dropped("impairment", st.dropped_impairment);
  }
}

void dispatcher_rows(RowValues& rows, const dispatch::Dispatcher& disp, std::size_t backends,
                     TimePoint now) {
  endpoint_rows(rows, disp);
  for (std::size_t i = 0; i < backends; ++i) {
    const dispatch::BackendStats st = disp.backend_stats(i);
    put(rows, "pbxcap_cluster_calls_routed_total", {{"backend", st.host}}, d(st.calls_routed));
    put(rows, "pbxcap_cluster_circuit_opens_total", {{"backend", st.host}}, d(st.circuit_opens));
    put(rows, "pbxcap_dispatch_circuit_state", {{"backend", st.host}},
        static_cast<double>(disp.circuit(i)));
  }
  put(rows, "pbxcap_cluster_dispatch_rejected_total", {}, d(disp.picks_rejected()));
  put(rows, "pbxcap_cluster_probes_total", {}, d(disp.probes_sent()));
  put(rows, "pbxcap_cluster_probe_failures_total", {}, d(disp.probe_failures()));
  put(rows, "pbxcap_dispatch_picks_total", {}, d(disp.picks_total()));
  put(rows, "pbxcap_dispatch_benched_backends", {}, d(disp.benched_backends(now)));
}

void span_rows(RowValues& rows, const telemetry::Telemetry& tel) {
  if (tel.tracer() != nullptr) {
    put(rows, "pbxcap_trace_spans_dropped_total", {}, d(tel.tracer()->dropped()));
  }
}

/// Every row of the run's registry, read back from the model: the backends'
/// rows absorbed from their shards add up where they share a key.
RowValues model_rows(exp::Experiment& experiment, std::size_t backends,
                     const monitor::PacketTrace* trace = nullptr) {
  RowValues rows;
  const dispatch::Dispatcher* disp = experiment.dispatcher();
  caller_rows(rows, experiment.caller(), disp != nullptr);
  receiver_rows(rows, experiment.receiver());
  link_rows(rows, "client", &experiment.client_link());
  link_rows(rows, "server", &experiment.server_link());
  span_rows(rows, *experiment.hub().tel);
  for (std::size_t i = 0; i < backends; ++i) {
    const exp::Experiment::Backend& b = experiment.backend(i);
    pbx_rows(rows, b.pbx);
    capture_rows(rows, *b.sip);
    link_rows(rows, "pbx", b.uplink);
    link_rows(rows, "pbx", b.pbx_half);
    if (&b.shard != &experiment.hub()) span_rows(rows, *b.shard.tel);
  }
  if (disp != nullptr) dispatcher_rows(rows, *disp, backends, experiment.hub().sim.now());
  if (trace != nullptr) put(rows, "pbxcap_trace_events_dropped_total", {}, d(trace->dropped()));
  return rows;
}

/// An ACD queue behind an overload-controlled PBX, half the calls dialling
/// it, under a FaultPlan that drops, stalls and crashes.
pbx::PbxConfig stressed_pbx(std::string host) {
  pbx::PbxConfig config;
  config.host = std::move(host);
  config.max_channels = 12;
  config.sip_service.enabled = true;
  config.sip_service.service_time = Duration::millis(40);
  config.overload.enabled = true;
  config.acd.enabled = true;
  pbx::AcdQueueConfig queue;
  queue.agents = {pbx::AcdAgentSpec{.count = 3}};
  queue.max_queue_length = 4;
  queue.patience = pbx::PatienceModel::kExponential;
  queue.patience_mean = Duration::seconds(4);
  queue.announce_period = Duration::seconds(2);
  config.acd.queues = {queue};
  return config;
}

loadgen::CallScenario stressed_scenario() {
  auto scenario = loadgen::CallScenario::for_offered_load(40.0, Duration::seconds(10));
  scenario.placement_window = Duration::seconds(20);
  scenario.acd.fraction = 0.5;
  scenario.acd.queue = "support";
  scenario.retry.enabled = true;
  return scenario;
}

/// Long enough for timer B (32 s) of the INVITEs sent into the crash's
/// dead window to fire.
constexpr Duration kDrain = Duration::seconds(30);

TEST(TelemetryIntegrationTest, PublishedCountersEqualModelCounts) {
  const auto plan = fault::FaultPlan::parse(
      "@4s link client loss=0.05\n"
      "@8s pbx stall 500ms\n"
      "@12s link client loss=0\n"
      "@14s pbx crash dead=40s\n");
  const loadgen::CallScenario scenario = stressed_scenario();
  {
    SCOPED_TRACE("testbed");
    const pbx::PbxConfig pbx = stressed_pbx("pbx.unb.br");
    telemetry::Telemetry tel;
    monitor::PacketTrace trace{256};
    const exp::Topology topology{.scenario = &scenario,
                                 .seed = 7,
                                 .drain = kDrain,
                                 .backends = {&pbx, 1},
                                 .faults = &plan,
                                 .telemetry = &tel,
                                 .trace = &trace};
    exp::Experiment experiment{topology};
    experiment.run();
    const pbx::AsteriskPbx& p = experiment.backend(0).pbx;
    // The run reaches every mechanism whose counters it checks.
    EXPECT_EQ(p.crashes(), 1u);
    EXPECT_GT(p.overload_rejections(), 0u);
    EXPECT_GT(p.channel_rejections() + p.acd().stats(0).abandoned, 0u);
    EXPECT_GT(p.acd().stats(0).queued, 0u);
    EXPECT_GT(experiment.caller().retries(), 0u);
    EXPECT_GT(experiment.caller().transactions().transaction_timeouts(), 0u);
    EXPECT_GT(experiment.client_link().stats_from(experiment.caller().id()).dropped_random_loss,
              0u);
    EXPECT_GT(experiment.backend(0).sip->errors(), 0u);
    EXPECT_GT(trace.dropped(), 0u);
    EXPECT_EQ(registry_rows(tel.registry()), model_rows(experiment, 1, &trace));
    // The RTP readers sum ended and live legs; each host's access link saw
    // exactly its SIP and RTP (no RTCP in this scenario), sent or dropped.
    const auto offered = [](const net::Link& link, const loadgen::SippHost& host) {
      const net::LinkDirectionStats& st = link.stats_from(host.id());
      return st.packets_sent + st.dropped_total();
    };
    const loadgen::SipCaller& caller = experiment.caller();
    const loadgen::SipReceiver& receiver = experiment.receiver();
    EXPECT_GT(receiver.active_sessions(), 0u);  // live legs at the horizon count too
    EXPECT_EQ(offered(experiment.client_link(), caller),
              caller.sip_messages_sent() + caller.rtp_packets_sent());
    EXPECT_EQ(offered(experiment.server_link(), receiver),
              receiver.sip_messages_sent() + receiver.rtp_packets_sent());
  }
  {
    SCOPED_TRACE("sharded cluster");
    std::vector<pbx::PbxConfig> fleet;
    for (const char* host : {"pbx0.unb.br", "pbx1.unb.br", "pbx2.unb.br"}) {
      fleet.push_back(stressed_pbx(host));
    }
    telemetry::Telemetry tel;
    const exp::Topology topology{.scenario = &scenario,
                                 .seed = 8,
                                 .drain = kDrain,
                                 .backends = fleet,
                                 .faults = &plan,
                                 .fault_backend = 1,
                                 .telemetry = &tel,
                                 .sharded = true};
    exp::Experiment experiment{topology};
    experiment.run();
    EXPECT_EQ(experiment.backend(1).pbx.crashes(), 1u);
    EXPECT_GT(experiment.backend(0).pbx.invites(), 0u);
    EXPECT_GT(experiment.backend(2).pbx.invites(), 0u);
    EXPECT_EQ(registry_rows(tel.registry()), model_rows(experiment, fleet.size()));
  }
  {
    SCOPED_TRACE("monolithic dispatcher cluster");
    std::vector<pbx::PbxConfig> fleet;
    std::vector<dispatch::BackendConfig> routes;
    for (const char* host : {"pbx0.unb.br", "pbx1.unb.br", "pbx2.unb.br"}) {
      fleet.push_back(stressed_pbx(host));
      routes.push_back({host, 1});
    }
    const dispatch::DispatcherConfig dispatcher{.policy = dispatch::Policy::kLeastLoaded};
    telemetry::Telemetry tel;
    const exp::Topology topology{.scenario = &scenario,
                                 .seed = 9,
                                 .drain = kDrain,
                                 .backends = fleet,
                                 .dispatcher = &dispatcher,
                                 .routes = routes,
                                 .faults = &plan,
                                 .fault_backend = 1,
                                 .telemetry = &tel};
    exp::Experiment experiment{topology};
    experiment.run();
    const dispatch::Dispatcher& disp = *experiment.dispatcher();
    EXPECT_EQ(experiment.backend(1).pbx.crashes(), 1u);
    EXPECT_GT(disp.circuit_opens(), 0u);
    EXPECT_GT(disp.probe_failures(), 0u);
    EXPECT_GT(disp.sip_messages_sent(), 0u);
    for (std::size_t i = 0; i < fleet.size(); ++i) EXPECT_GT(disp.backend_stats(i).calls_routed, 0u);
    EXPECT_EQ(registry_rows(tel.registry()), model_rows(experiment, fleet.size()));
  }
}

}  // namespace
