// Cross-build golden digests for the experiment entry points.
//
// Every other determinism test compares two runs of the same build, so a
// change that moves an output the same way in both runs passes them. This
// suite pins FNV-1a digests of the ExperimentReport / ClusterResult fields and
// of every export a run produces (Prometheus and registry JSON, sampler CSV,
// packet trace, Chrome trace, profile JSON, counter track, merged trace and
// attribution JSON) to constants recorded from a reference build, over a small
// matrix of testbed, monolithic-cluster and sharded-cluster runs.
//
// A mismatch prints the new digest. Update a constant only for an intended
// output change, and only in a change that says so.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "exp/cluster.hpp"
#include "exp/testbed.hpp"
#include "fault/plan.hpp"
#include "monitor/trace.hpp"
#include "rtp/codec.hpp"
#include "telemetry/export.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/telemetry.hpp"
#include "util/strings.hpp"

namespace {

using namespace pbxcap;

/// 64-bit FNV-1a over a sequence of fields, each terminated by a separator
/// byte so that ("ab", "c") and ("a", "bc") hash differently.
class Digest {
 public:
  Digest& add(std::string_view s) {
    for (const char c : s) mix(static_cast<unsigned char>(c));
    mix(0x1f);
    return *this;
  }
  Digest& add(std::uint64_t v) { return add(std::to_string(v)); }
  Digest& add(double v) { return add(util::format("%.17g", v)); }
  Digest& add(const stats::Summary& s) {
    return add(s.count()).add(s.mean()).add(s.min()).add(s.max()).add(s.variance());
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  void mix(unsigned char c) {
    h_ ^= c;
    h_ *= 1099511628211ULL;
  }
  std::uint64_t h_{14695981039346656037ULL};
};

void add_report(Digest& d, const monitor::ExperimentReport& r) {
  d.add(r.offered_erlangs).add(r.arrival_rate_per_s).add(r.hold_time.to_seconds()).add(r.seed);
  d.add(r.calls_attempted).add(r.calls_completed).add(r.calls_blocked).add(r.calls_failed);
  d.add(r.blocking_probability).add(r.blocking_probability_steady).add(r.calls_attempted_steady);
  d.add(std::uint64_t{r.channels_configured}).add(std::uint64_t{r.channels_peak});
  d.add(r.cpu_utilization).add(r.rtp_packets_at_pbx).add(r.rtp_relayed);
  d.add(r.codec_rejections_488).add(r.transcoded_bridges).add(r.transcoded_rtp);
  d.add(r.trunk_frames).add(r.trunk_mini_frames);
  d.add(r.mos).add(r.setup_delay_ms).add(r.effective_loss).add(r.jitter_ms);
  d.add(r.sip_total).add(r.sip_invite).add(r.sip_100).add(r.sip_180).add(r.sip_200);
  d.add(r.sip_ack).add(r.sip_bye).add(r.sip_errors).add(r.sip_retransmissions);
  const auto& a = r.acd;
  d.add(a.offered).add(a.queued).add(a.served).add(a.abandoned).add(a.timed_out);
  d.add(a.voicemail).add(a.blocked_full).add(a.announcements).add(a.serve_retries);
  d.add(a.serve_failures).add(a.wait_s).add(a.wait_served_s).add(a.busy_agent_s);
  d.add(std::uint64_t{a.agents});
  d.add(r.overload_rejections).add(r.calls_retried).add(r.retries_rerouted);
  d.add(r.sip_queue_dropped).add(r.link_dropped_impairment).add(r.events_processed);
}

/// Worker count and wall times are left out: they are the only fields a
/// sharded run may vary between worker counts.
void add_cluster(Digest& d, const exp::ClusterResult& c) {
  add_report(d, c.report);
  for (const auto& b : c.backends) {
    d.add(b.host).add(std::uint64_t{b.channels}).add(std::uint64_t{b.peak_channels});
    d.add(b.congestion).add(b.rtp_relayed).add(b.crashes).add(b.cpu_utilization);
    d.add(b.calls_routed).add(b.probe_failures).add(b.circuit_opens);
    d.add(static_cast<std::uint64_t>(b.final_circuit));
  }
  // Peaks and congestion once more, backend by backend: the recorded digests
  // hash them in this order.
  for (const auto& b : c.backends) d.add(std::uint64_t{b.peak_channels});
  for (const auto& b : c.backends) d.add(b.congestion);
  d.add(c.uplink_bytes).add(c.uplink_packets).add(c.failovers).add(c.dispatch_rejected);
  d.add(c.probes_sent).add(c.probe_failures).add(c.circuit_opens);
  d.add(std::uint64_t{c.shards.size()}).add(c.shard_rounds).add(c.shard_clamped);
  for (const auto& s : c.shards) d.add(s.events).add(s.messages_in).add(s.messages_out);
  if (!c.shard_profiles.empty()) d.add(telemetry::attribution_json(c.shard_profiles));
  d.add(c.merged_trace);
}

/// Every export the run's telemetry sink holds.
void add_telemetry(Digest& d, const telemetry::Telemetry& tel) {
  d.add(telemetry::to_prometheus(tel.registry()));
  d.add(telemetry::to_json(tel.registry()));
  d.add(tel.sampler().to_csv());
  if (tel.tracer() != nullptr) d.add(telemetry::to_chrome_trace(*tel.tracer()));
  if (tel.profiler() != nullptr) {
    d.add(telemetry::to_json(tel.profiler()->snapshot()));
    d.add(telemetry::to_chrome_counter_trace(*tel.profiler()));
  }
}

void expect_digest(std::uint64_t got, std::uint64_t want) {
  EXPECT_EQ(got, want) << "new digest: "
                       << util::format("0x%016llxULL", static_cast<unsigned long long>(got));
}

telemetry::Config full_telemetry() {
  telemetry::Config cfg;
  cfg.profiling = true;
  return cfg;
}

// ---- testbed ----------------------------------------------------------------

exp::TestbedConfig small_testbed() {
  exp::TestbedConfig config;
  config.scenario = loadgen::CallScenario::for_offered_load(20.0, Duration::seconds(10));
  config.scenario.placement_window = Duration::seconds(15);
  config.pbx.max_channels = 16;
  config.drain = Duration::seconds(10);
  config.seed = 1301;
  return config;
}

std::uint64_t testbed_digest(exp::TestbedConfig config, const telemetry::Config& tcfg) {
  telemetry::Telemetry tel{tcfg};
  monitor::PacketTrace trace{4096};
  config.telemetry = &tel;
  config.trace = &trace;
  exp::WifiObservations wifi;
  Digest d;
  add_report(d, exp::run_testbed(config, &wifi));
  d.add(wifi.medium_utilization).add(wifi.frames_forwarded);
  d.add(wifi.frames_dropped_queue).add(wifi.frames_dropped_radio);
  add_telemetry(d, tel);
  d.add(trace.to_csv()).add(trace.dropped());
  return d.value();
}

TEST(TopologyDigest, TestbedPerPacket) {
  expect_digest(testbed_digest(small_testbed(), {}), 0x1e64be465054f79eULL);
}

TEST(TopologyDigest, TestbedFluid) {
  auto config = small_testbed();
  config.fluid.enabled = true;
  expect_digest(testbed_digest(config, {}), 0xb0b8f45ba3f50798ULL);
}

TEST(TopologyDigest, TestbedWifi) {
  auto config = small_testbed();
  config.wifi_cell = net::WifiCellConfig{};
  expect_digest(testbed_digest(config, {}), 0x6045e50c3d5c9a2bULL);
}

TEST(TopologyDigest, TestbedChaosTracedAndProfiled) {
  const auto plan = fault::FaultPlan::parse(
      "@3s link client loss=0.05 jitter_mean=5ms jitter_stddev=2ms\n"
      "@6s link pbx blackout=on\n"
      "@7s link pbx blackout=off\n"
      "@9s pbx stall 500ms\n"
      "@12s pbx crash dead=3s\n"
      "@14s link client loss=0\n");
  auto config = small_testbed();
  config.faults = &plan;
  expect_digest(testbed_digest(config, full_telemetry()), 0xdf715309a3d185bbULL);
}

/// Fluid needs point-to-point links: with a shared-medium Wi-Fi cell the
/// fluid switch is ignored and the run is the per-packet one.
TEST(TopologyRules, WifiCellDisablesFluid) {
  auto config = small_testbed();
  config.wifi_cell = net::WifiCellConfig{};
  const std::uint64_t packet = testbed_digest(config, {});
  config.fluid.enabled = true;
  EXPECT_EQ(testbed_digest(config, {}), packet);
}

// ---- monolithic cluster -----------------------------------------------------

exp::ClusterConfig small_cluster() {
  exp::ClusterConfig config;
  config.scenario = loadgen::CallScenario::for_offered_load(24.0, Duration::seconds(10));
  config.scenario.placement_window = Duration::seconds(20);
  config.servers = 3;
  config.channels_per_server = 10;
  config.drain = Duration::seconds(10);
  config.seed = 1302;
  return config;
}

std::uint64_t cluster_digest(exp::ClusterConfig config, const telemetry::Config& tcfg) {
  telemetry::Telemetry tel{tcfg};
  config.telemetry = &tel;
  Digest d;
  add_cluster(d, exp::run_cluster(config));
  add_telemetry(d, tel);
  return d.value();
}

exp::ClusterConfig dispatcher_crash(exp::ClusterConfig config) {
  static const auto plan = fault::FaultPlan::parse("@8s pbx crash dead=6s\n");
  config.routing = exp::ClusterRouting::kDispatcher;
  config.dispatcher.policy = dispatch::Policy::kLeastLoaded;
  config.faults = &plan;
  config.fault_backend = 1;
  return config;
}

exp::ClusterConfig trunked_g729(exp::ClusterConfig config) {
  config.scenario.codec = *rtp::codec_by_payload_type(rtp::payload_type::kG729);
  config.allowed_payload_types = {rtp::payload_type::kG729};
  config.trunk_window = Duration::millis(20);
  return config;
}

TEST(TopologyDigest, ClusterDns) {
  expect_digest(cluster_digest(small_cluster(), {}), 0x28577cf033c07725ULL);
}

TEST(TopologyDigest, ClusterDispatcherCrash) {
  expect_digest(cluster_digest(dispatcher_crash(small_cluster()), full_telemetry()), 0xaec1a92753f84cb9ULL);
}

TEST(TopologyDigest, ClusterFluidTrunkedG729) {
  auto config = trunked_g729(small_cluster());
  config.fluid.enabled = true;
  expect_digest(cluster_digest(config, {}), 0x0a4ca1b1b30d50e3ULL);
}

TEST(TopologyDigest, ClusterAcd) {
  auto config = small_cluster();
  config.scenario.acd.fraction = 0.5;
  config.scenario.acd.queue = "support";
  config.acd.enabled = true;
  pbx::AcdQueueConfig queue;
  queue.name = "support";
  queue.agents = {pbx::AcdAgentSpec{.count = 3}};
  config.acd.queues = {queue};
  expect_digest(cluster_digest(config, {}), 0xd45e640fd7784728ULL);
}

// ---- sharded cluster --------------------------------------------------------

/// The digest must not depend on the worker count: one constant per case.
void expect_sharded_digest(exp::ClusterConfig config, std::uint64_t want) {
  config.shard.enabled = true;
  for (const unsigned threads : {1u, 2u, 8u}) {
    config.shard.threads = threads;
    SCOPED_TRACE(util::format("threads=%u", threads));
    expect_digest(cluster_digest(config, full_telemetry()), want);
  }
}

TEST(TopologyDigest, ShardedDns) { expect_sharded_digest(small_cluster(), 0x5dd22dda4637526bULL); }

TEST(TopologyDigest, ShardedFluid) {
  auto config = small_cluster();
  config.fluid.enabled = true;
  expect_sharded_digest(config, 0x9410c8b39ad3fa92ULL);
}

TEST(TopologyDigest, ShardedDispatcherCrash) {
  expect_sharded_digest(dispatcher_crash(small_cluster()), 0x3b724d86fe1f7582ULL);
}

TEST(TopologyDigest, ShardedTrunkedG729) {
  expect_sharded_digest(trunked_g729(small_cluster()), 0x8c1cd01856c30739ULL);
}

}  // namespace
