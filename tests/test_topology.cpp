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
#include <type_traits>
#include <utility>
#include <vector>

#include "exp/cluster.hpp"
#include "exp/testbed.hpp"
#include "exp/topology.hpp"
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

/// The two digests of one run.
struct Digests {
  Digest outcome;
  Digest kernel;
};

void add_report(Digests& ds, const monitor::ExperimentReport& r) {
  Digest& d = ds.outcome;
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
  d.add(r.sip_queue_dropped).add(r.link_dropped_impairment);
  ds.kernel.add(r.events_processed);
}

/// Worker count and wall times are left out: they are the only fields a
/// sharded run may vary between worker counts.
void add_cluster(Digests& ds, const exp::ClusterResult& c) {
  add_report(ds, c.report);
  Digest& d = ds.outcome;
  for (const auto& b : c.backends) {
    d.add(b.host).add(std::uint64_t{b.channels}).add(std::uint64_t{b.peak_channels});
    d.add(b.congestion).add(b.rtp_relayed).add(b.crashes).add(b.cpu_utilization);
    d.add(b.calls_routed).add(b.probe_failures).add(b.circuit_opens);
    d.add(static_cast<std::uint64_t>(b.final_circuit));
  }
  d.add(c.uplink_bytes).add(c.uplink_packets).add(c.failovers).add(c.dispatch_rejected);
  d.add(c.probes_sent).add(c.probe_failures).add(c.circuit_opens);
  d.add(std::uint64_t{c.shards.size()}).add(c.shard_clamped);
  for (const auto& s : c.shards) d.add(s.messages_in).add(s.messages_out);
  d.add(c.merged_trace);
  ds.kernel.add(c.shard_rounds);
  for (const auto& s : c.shards) ds.kernel.add(s.events);
  if (!c.shard_profiles.empty()) ds.kernel.add(telemetry::attribution_json(c.shard_profiles));
}

/// Every export the run's telemetry sink holds.
void add_telemetry(Digests& ds, const telemetry::Telemetry& tel) {
  Digest& d = ds.outcome;
  d.add(telemetry::to_prometheus(tel.registry()));
  d.add(telemetry::to_json(tel.registry()));
  d.add(tel.sampler().to_csv());
  if (tel.tracer() != nullptr) d.add(telemetry::to_chrome_trace(*tel.tracer()));
  if (tel.profiler() != nullptr) {
    ds.kernel.add(telemetry::to_json(tel.profiler()->snapshot()));
    ds.kernel.add(telemetry::to_chrome_counter_trace(*tel.profiler()));
  }
}

std::string hex(std::uint64_t v) {
  return util::format("0x%016llxULL", static_cast<unsigned long long>(v));
}

void expect_digests(const Digests& got, std::uint64_t outcome, std::uint64_t kernel) {
  EXPECT_EQ(got.outcome.value(), outcome) << "new outcome digest: " << hex(got.outcome.value());
  EXPECT_EQ(got.kernel.value(), kernel) << "new kernel digest: " << hex(got.kernel.value());
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

Digests testbed_digests(exp::TestbedConfig config, const telemetry::Config& tcfg) {
  telemetry::Telemetry tel{tcfg};
  monitor::PacketTrace trace{4096};
  config.telemetry = &tel;
  config.trace = &trace;
  exp::WifiObservations wifi;
  Digests d;
  add_report(d, exp::run_testbed(config, &wifi));
  d.outcome.add(wifi.medium_utilization).add(wifi.frames_forwarded);
  d.outcome.add(wifi.frames_dropped_queue).add(wifi.frames_dropped_radio);
  add_telemetry(d, tel);
  d.outcome.add(trace.to_csv()).add(trace.dropped());
  return d;
}

TEST(TopologyDigest, TestbedPerPacket) {
  expect_digests(testbed_digests(small_testbed(), {}),
                 0xbffe3d722fc93110ULL, 0x14ce64323829dd95ULL);
}

TEST(TopologyDigest, TestbedFluid) {
  auto config = small_testbed();
  config.fluid.enabled = true;
  expect_digests(testbed_digests(config, {}),
                 0x4076930769f394adULL, 0x69ee4bf7a0822c79ULL);
}

TEST(TopologyDigest, TestbedWifi) {
  auto config = small_testbed();
  config.wifi_cell = net::WifiCellConfig{};
  expect_digests(testbed_digests(config, {}),
                 0x0bffecff9cef220aULL, 0x1435c2840a1fde72ULL);
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
  expect_digests(testbed_digests(config, full_telemetry()),
                 0x0a7eeacc4939ae08ULL, 0x8bc84266f476de0eULL);
}

/// Fluid needs point-to-point links: with a shared-medium Wi-Fi cell the
/// fluid switch is ignored and the run is the per-packet one.
TEST(TopologyRules, WifiCellDisablesFluid) {
  auto config = small_testbed();
  config.wifi_cell = net::WifiCellConfig{};
  const Digests packet = testbed_digests(config, {});
  config.fluid.enabled = true;
  expect_digests(testbed_digests(config, {}), packet.outcome.value(), packet.kernel.value());
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

Digests cluster_digests(exp::ClusterConfig config, const telemetry::Config& tcfg) {
  telemetry::Telemetry tel{tcfg};
  config.telemetry = &tel;
  Digests d;
  add_cluster(d, exp::run_cluster(config));
  add_telemetry(d, tel);
  return d;
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
  expect_digests(cluster_digests(small_cluster(), {}),
                 0x1257130d93eb63ccULL, 0xd058896b1f08e215ULL);
}

TEST(TopologyDigest, ClusterDispatcherCrash) {
  expect_digests(cluster_digests(dispatcher_crash(small_cluster()), full_telemetry()),
                 0x1621a8d1ec59912eULL, 0x0ed3f9b0cc49f048ULL);
}

TEST(TopologyDigest, ClusterFluidTrunkedG729) {
  auto config = trunked_g729(small_cluster());
  config.fluid.enabled = true;
  expect_digests(cluster_digests(config, {}),
                 0xdfb3ae6e60a42502ULL, 0x5c849683d202b97bULL);
}

exp::ClusterConfig acd_queue(exp::ClusterConfig config) {
  config.scenario.acd.fraction = 0.5;
  config.scenario.acd.queue = "support";
  config.acd.enabled = true;
  pbx::AcdQueueConfig queue;
  queue.name = "support";
  queue.agents = {pbx::AcdAgentSpec{.count = 3}};
  config.acd.queues = {queue};
  return config;
}

TEST(TopologyDigest, ClusterAcd) {
  expect_digests(cluster_digests(acd_queue(small_cluster()), {}),
                 0xa453eabb2c46d101ULL, 0xd4ded92d7265da10ULL);
}

// ---- sharded cluster --------------------------------------------------------

/// The digests must not depend on the worker count: one pair per case.
void expect_sharded_digests(exp::ClusterConfig config, std::uint64_t outcome,
                            std::uint64_t kernel) {
  config.shard.enabled = true;
  for (const unsigned threads : {1u, 2u, 8u}) {
    config.shard.threads = threads;
    SCOPED_TRACE(util::format("threads=%u", threads));
    expect_digests(cluster_digests(config, full_telemetry()), outcome, kernel);
  }
}

TEST(TopologyDigest, ShardedDns) {
  expect_sharded_digests(small_cluster(), 0xa2ff4c12574705e5ULL, 0x799b800b3fb3b5e0ULL);
}

TEST(TopologyDigest, ShardedFluid) {
  auto config = small_cluster();
  config.fluid.enabled = true;
  expect_sharded_digests(config, 0xcbe0f138b11a18bdULL, 0x844a75c1f0589be1ULL);
}

TEST(TopologyDigest, ShardedDispatcherCrash) {
  expect_sharded_digests(dispatcher_crash(small_cluster()),
                         0x9b65230acd4710cdULL, 0xe79a987e76097f18ULL);
}

TEST(TopologyDigest, ShardedTrunkedG729) {
  expect_sharded_digests(trunked_g729(small_cluster()),
                         0x9029908820034b40ULL, 0x45bb71dd23a20613ULL);
}

// ---- sharded vs monolithic --------------------------------------------------

/// What two placements of one cluster must agree on: every call outcome and
/// the SIP/RTP census at the PBX NICs, by name so a mismatch reads clearly.
using Census = std::vector<std::pair<std::string_view, std::int64_t>>;

Census census(const monitor::ExperimentReport& r) {
  const auto i = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };
  return {{"attempted", i(r.calls_attempted)},
          {"completed", i(r.calls_completed)},
          {"blocked", i(r.calls_blocked)},
          {"failed", i(r.calls_failed)},
          {"retried", i(r.calls_retried)},
          {"rejected_488", i(r.codec_rejections_488)},
          {"acd_served", i(r.acd.served)},
          {"acd_abandoned", i(r.acd.abandoned)},
          {"acd_timed_out", i(r.acd.timed_out)},
          {"acd_voicemail", i(r.acd.voicemail)},
          {"acd_blocked_full", i(r.acd.blocked_full)},
          {"channels_peak", i(r.channels_peak)},
          {"sip_total", i(r.sip_total)},
          {"sip_invite", i(r.sip_invite)},
          {"sip_100", i(r.sip_100)},
          {"sip_180", i(r.sip_180)},
          {"sip_200", i(r.sip_200)},
          {"sip_ack", i(r.sip_ack)},
          {"sip_bye", i(r.sip_bye)},
          {"sip_errors", i(r.sip_errors)},
          {"sip_retransmissions", i(r.sip_retransmissions)},
          {"rtp_packets_at_pbx", i(r.rtp_packets_at_pbx)},
          {"rtp_relayed", i(r.rtp_relayed)}};
}

Census cluster_census(exp::ClusterConfig config, bool sharded) {
  config.shard.enabled = sharded;
  config.shard.threads = 1;  // the digests above pin every worker count to one result
  return census(exp::run_cluster(config).report);
}

/// The fields where `a` and `b` differ, as a - b.
Census minus(const Census& a, const Census& b) {
  Census out;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k].second != b[k].second) out.emplace_back(a[k].first, a[k].second - b[k].second);
  }
  return out;
}

/// The backends and dispatcher routes of a homogeneous cluster, named and
/// weighted as run_cluster names and weights them.
struct Fleet {
  std::vector<pbx::PbxConfig> backends;
  std::vector<dispatch::BackendConfig> routes;
};

Fleet fleet_of(const exp::ClusterConfig& config) {
  Fleet fleet;
  fleet.backends.resize(config.servers);
  for (std::size_t i = 0; i < fleet.backends.size(); ++i) {
    fleet.backends[i].host = util::format("pbx%u.unb.br", static_cast<unsigned>(i));
    fleet.backends[i].max_channels = config.channels_per_server;
    fleet.routes.push_back({fleet.backends[i].host, config.channels_per_server});
  }
  return fleet;
}

/// dispatcher_crash(small_cluster()) built the way run_cluster builds it,
/// monolithic, with its uplinks' propagation raised to the 1 ms lookahead
/// that the sharded placement floors them to.
Census floored_dispatcher_crash() {
  const exp::ClusterConfig config = dispatcher_crash(small_cluster());
  Fleet fleet = fleet_of(config);
  const exp::Topology topology{.scenario = &config.scenario,
                               .seed = config.seed,
                               .drain = config.drain,
                               .backends = fleet.backends,
                               .uplink = {.propagation = config.shard.lookahead},
                               .dispatcher = &config.dispatcher,
                               .routes = std::move(fleet.routes),
                               .faults = config.faults,
                               .fault_backend = config.fault_backend};
  exp::Experiment experiment{topology};  // keeps a reference to `topology`
  experiment.run();
  return census(experiment.report());
}

TEST(TopologyPlacement, ShardedMatchesMonolithic) {
  auto fluid = small_cluster();
  fluid.fluid.enabled = true;
  auto fluid_trunked = trunked_g729(small_cluster());
  fluid_trunked.fluid.enabled = true;
  const std::vector<std::pair<const char*, exp::ClusterConfig>> cases{
      {"dns", small_cluster()},
      {"fluid", fluid},
      {"fluid trunked g729", fluid_trunked},
      {"acd", acd_queue(small_cluster())}};
  for (const auto& [name, config] : cases) {
    SCOPED_TRACE(name);
    const Census monolithic = cluster_census(config, false);
    EXPECT_GT(monolithic[1].second, 0);  // calls completed
    EXPECT_EQ(cluster_census(config, true), monolithic);
  }

  // The crash at 8 s cuts media mid-flight, so the uplink delay shows: the
  // monolithic run at its native 5 us uplinks gets 2 more packets to the
  // PBX and relays 4 more than the sharded run, whose uplinks are floored
  // to 1 ms. Floored to 1 ms, the monolithic run matches exactly.
  const auto crash = dispatcher_crash(small_cluster());
  const Census sharded = cluster_census(crash, true);
  EXPECT_EQ(floored_dispatcher_crash(), sharded);
  EXPECT_EQ(minus(cluster_census(crash, false), sharded),
            (Census{{"rtp_packets_at_pbx", 2}, {"rtp_relayed", 4}}));
}

// ---- hop conservation -------------------------------------------------------

// A temporary Topology would dangle inside the Experiment.
static_assert(!std::is_constructible_v<exp::Experiment, exp::Topology&&>);
static_assert(std::is_constructible_v<exp::Experiment, const exp::Topology&>);

/// Builds and runs `topology` to its horizon; every call has ended by then,
/// so no packet is left in flight.
std::vector<std::string> run_hop_imbalances(const exp::Topology& topology) {
  exp::Experiment experiment{topology};
  experiment.run();
  EXPECT_GT(experiment.hub().net.packets_delivered(), 0u);
  return experiment.hop_imbalances();
}

TEST(HopConservation, DrainedPerPacketTestbed) {
  const exp::TestbedConfig config = small_testbed();
  EXPECT_EQ(run_hop_imbalances({.scenario = &config.scenario,
                                .seed = config.seed,
                                .drain = config.drain,
                                .backends = {&config.pbx, 1}}),
            std::vector<std::string>{});
}

TEST(HopConservation, DrainedImpairedTrunkedTestbed) {
  // The switch's egress draws loss and jitter toward the caller and trunks
  // toward the PBX.
  const exp::TestbedConfig config = small_testbed();
  net::LinkConfig client;
  client.loss_probability = 0.02;
  client.jitter_mean = Duration::millis(2);
  client.jitter_stddev = Duration::millis(1);
  net::LinkConfig uplink;
  uplink.trunk_window = Duration::millis(20);
  EXPECT_EQ(run_hop_imbalances({.scenario = &config.scenario,
                                .seed = config.seed,
                                .drain = config.drain,
                                .backends = {&config.pbx, 1},
                                .client_link = client,
                                .uplink = uplink}),
            std::vector<std::string>{});
}

TEST(HopConservation, DrainedDispatcherCluster) {
  exp::ClusterConfig config = small_cluster();
  // The dispatcher probes every backend once a second, to the end of the
  // run: end half-way between two probe rounds, when none is in flight.
  config.drain += Duration::millis(500);
  Fleet fleet = fleet_of(config);
  dispatch::DispatcherConfig dispatcher;
  dispatcher.policy = dispatch::Policy::kLeastLoaded;
  EXPECT_EQ(run_hop_imbalances({.scenario = &config.scenario,
                                .seed = config.seed,
                                .drain = config.drain,
                                .backends = fleet.backends,
                                .dispatcher = &dispatcher,
                                .routes = std::move(fleet.routes)}),
            std::vector<std::string>{});
}

}  // namespace
