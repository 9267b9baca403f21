// Tests for the cluster dispatcher: policies, 503 benching, the probe-driven
// circuit breaker, crash failover, and cluster-level determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/erlang_b.hpp"
#include "dispatch/dispatcher.hpp"
#include "exp/cluster.hpp"
#include "fault/plan.hpp"
#include "net/network.hpp"
#include "net/switch_node.hpp"
#include "pbx/asterisk_pbx.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace pbxcap;
using dispatch::CircuitState;
using dispatch::Dispatcher;
using dispatch::Policy;

std::vector<dispatch::BackendConfig> three_backends() {
  return {{"a.unb.br", 1}, {"b.unb.br", 1}, {"c.unb.br", 1}};
}

dispatch::DispatcherConfig with_policy(Policy policy) {
  dispatch::DispatcherConfig config;
  config.policy = policy;
  return config;
}

// Picks (and immediately releases) once, returning the chosen host.
std::string pick_once(Dispatcher& d) {
  const std::string* host = d.pick();
  if (host == nullptr) return "";
  std::string copy = *host;
  d.release(copy);
  return copy;
}

TEST(DispatcherPolicy, RoundRobinRotates) {
  sim::Simulator simulator;
  sip::HostResolver resolver;
  Dispatcher d{"disp.unb.br", three_backends(), with_policy(Policy::kRoundRobin), simulator,
               resolver};
  EXPECT_EQ(pick_once(d), "a.unb.br");
  EXPECT_EQ(pick_once(d), "b.unb.br");
  EXPECT_EQ(pick_once(d), "c.unb.br");
  EXPECT_EQ(pick_once(d), "a.unb.br");
}

TEST(DispatcherPolicy, LeastLoadedFollowsOccupancy) {
  sim::Simulator simulator;
  sip::HostResolver resolver;
  Dispatcher d{"disp.unb.br", three_backends(), with_policy(Policy::kLeastLoaded), simulator,
               resolver};
  // Claim one slot everywhere, then free b: the next call must land on b.
  ASSERT_NE(d.pick(), nullptr);
  ASSERT_NE(d.pick(), nullptr);
  ASSERT_NE(d.pick(), nullptr);
  d.release("b.unb.br");
  const std::string* host = d.pick();
  ASSERT_NE(host, nullptr);
  EXPECT_EQ(*host, "b.unb.br");
}

TEST(DispatcherPolicy, LeastLoadedTiesShareRoundRobin) {
  sim::Simulator simulator;
  sip::HostResolver resolver;
  Dispatcher d{"disp.unb.br", three_backends(), with_policy(Policy::kLeastLoaded), simulator,
               resolver};
  // All idle: ties must rotate, not pile onto index 0.
  EXPECT_EQ(pick_once(d), "a.unb.br");
  EXPECT_EQ(pick_once(d), "b.unb.br");
  EXPECT_EQ(pick_once(d), "c.unb.br");
}

TEST(DispatcherPolicy, WeightedSplitsExactly) {
  sim::Simulator simulator;
  sip::HostResolver resolver;
  std::vector<dispatch::BackendConfig> fleet{
      {"big.unb.br", 3}, {"mid.unb.br", 2}, {"small.unb.br", 1}};
  Dispatcher d{"disp.unb.br", fleet, with_policy(Policy::kWeighted), simulator, resolver};
  for (int i = 0; i < 600; ++i) (void)pick_once(d);
  // Smooth WRR is exact over every total-weight window: 3:2:1 of 600.
  EXPECT_EQ(d.backend_stats(0).calls_routed, 300u);
  EXPECT_EQ(d.backend_stats(1).calls_routed, 200u);
  EXPECT_EQ(d.backend_stats(2).calls_routed, 100u);
}

TEST(DispatcherBackoff, RetryAfterBenchesUntilExpiry) {
  sim::Simulator simulator;
  sip::HostResolver resolver;
  Dispatcher d{"disp.unb.br", three_backends(), with_policy(Policy::kRoundRobin), simulator,
               resolver};
  d.on_reject_503("b.unb.br", Duration::seconds(2));
  EXPECT_EQ(pick_once(d), "a.unb.br");
  EXPECT_EQ(pick_once(d), "c.unb.br");
  EXPECT_EQ(pick_once(d), "a.unb.br");  // b skipped while benched
  simulator.run_until(TimePoint::at(Duration::seconds(3)));
  // Bench expired: b rejoins the rotation.
  std::vector<std::string> seen;
  for (int i = 0; i < 3; ++i) seen.push_back(pick_once(d));
  EXPECT_NE(std::find(seen.begin(), seen.end(), "b.unb.br"), seen.end());
}

TEST(DispatcherBackoff, Plain503DoesNotBenchByDefault) {
  sim::Simulator simulator;
  sip::HostResolver resolver;
  Dispatcher d{"disp.unb.br", three_backends(), with_policy(Policy::kRoundRobin), simulator,
               resolver};
  // No Retry-After: a race for the last channel is
  // not evidence the backend is down.
  d.on_reject_503("a.unb.br", Duration::zero());
  EXPECT_EQ(pick_once(d), "a.unb.br");
}

TEST(DispatcherCircuit, InviteTimeoutsOpenCircuit) {
  sim::Simulator simulator;
  sip::HostResolver resolver;
  Dispatcher d{"disp.unb.br", three_backends(), with_policy(Policy::kRoundRobin), simulator,
               resolver};
  for (int i = 0; i < 3; ++i) d.on_invite_timeout("c.unb.br");
  EXPECT_EQ(d.circuit(2), CircuitState::kOpen);
  EXPECT_EQ(d.circuit_opens(), 1u);
  for (int i = 0; i < 6; ++i) EXPECT_NE(pick_once(d), "c.unb.br");
}

TEST(DispatcherCircuit, RepickAvoidsFailedBackendWhenPossible) {
  sim::Simulator simulator;
  sip::HostResolver resolver;
  Dispatcher d{"disp.unb.br", three_backends(), with_policy(Policy::kRoundRobin), simulator,
               resolver};
  const std::string* first = d.pick();
  ASSERT_NE(first, nullptr);
  const std::string failed = *first;
  d.release(failed);
  const std::string* next = d.repick(failed);
  ASSERT_NE(next, nullptr);
  EXPECT_NE(*next, failed);
}

TEST(DispatcherCircuit, RepickFallsBackToSoleSurvivor) {
  sim::Simulator simulator;
  sip::HostResolver resolver;
  Dispatcher d{"disp.unb.br", {{"only.unb.br", 1}}, with_policy(Policy::kRoundRobin), simulator,
               resolver};
  const std::string* host = d.repick("only.unb.br");
  ASSERT_NE(host, nullptr);
  EXPECT_EQ(*host, "only.unb.br");  // better the suspect backend than no call
}

TEST(DispatcherCircuit, AllBackendsDownRejectsPick) {
  sim::Simulator simulator;
  sip::HostResolver resolver;
  Dispatcher d{"disp.unb.br", {{"only.unb.br", 1}}, with_policy(Policy::kLeastLoaded), simulator,
               resolver};
  for (int i = 0; i < 3; ++i) d.on_invite_timeout("only.unb.br");
  EXPECT_EQ(d.pick(), nullptr);
  EXPECT_EQ(d.picks_rejected(), 1u);
}

TEST(DispatcherConstruct, RejectsEmptyFleetAndZeroWeights) {
  sim::Simulator simulator;
  sip::HostResolver resolver;
  EXPECT_THROW((Dispatcher{"d.unb.br", {}, {}, simulator, resolver}), std::invalid_argument);
  EXPECT_THROW((Dispatcher{"d.unb.br", {{"a.unb.br", 0}}, {}, simulator, resolver}),
               std::invalid_argument);
}

// Full circuit lifecycle against a real PBX on a mini network: probes keep
// the circuit closed, a crash opens it within a few probe periods, and the
// restarted backend is readmitted through half-open trials.
TEST(DispatcherHealth, ProbesDriveCircuitThroughCrashAndRecovery) {
  sim::Simulator simulator;
  sim::Random impairment_rng{7};
  net::Network network{simulator, impairment_rng};
  sip::HostResolver resolver;

  net::SwitchNode lan_switch{"switch"};
  pbx::PbxConfig pbx_config;
  pbx_config.host = "pbx0.unb.br";
  pbx::AsteriskPbx pbx{pbx_config, simulator, resolver};
  Dispatcher d{"disp.unb.br", {{"pbx0.unb.br", 1}}, {}, simulator, resolver};

  network.attach(lan_switch);
  network.attach(pbx);
  network.attach(d);
  network.connect(pbx, lan_switch, {});
  network.connect(d, lan_switch, {});
  pbx.bind();
  d.bind();
  d.start();

  simulator.run_until(TimePoint::at(Duration::seconds(5)));
  EXPECT_EQ(d.circuit(0), CircuitState::kClosed);
  EXPECT_GT(d.probes_sent(), 0u);
  EXPECT_EQ(d.probe_failures(), 0u);

  pbx.crash_restart(Duration::seconds(10));  // dead until t = 15s
  simulator.run_until(TimePoint::at(Duration::seconds(10)));
  // Open, or already probing half-open trials against the still-dead box —
  // either way the backend is out of the routing set.
  EXPECT_NE(d.circuit(0), CircuitState::kClosed);
  EXPECT_EQ(d.circuit_opens(), 1u);
  EXPECT_EQ(d.pick(), nullptr);  // ejected from routing while dead

  simulator.run_until(TimePoint::at(Duration::seconds(25)));
  EXPECT_EQ(d.circuit(0), CircuitState::kClosed);  // half-open trials readmitted it
  EXPECT_NE(d.pick(), nullptr);
}

// ---------------------------------------------------------- cluster level --

exp::ClusterConfig dispatcher_cluster(Policy policy) {
  exp::ClusterConfig config;
  config.scenario = loadgen::CallScenario::for_offered_load(8.0, Duration::seconds(4));
  config.scenario.placement_window = Duration::seconds(40);
  config.scenario.retry.enabled = true;
  config.servers = 3;
  config.channels_per_server = 12;
  config.seed = 91;
  config.routing = exp::ClusterRouting::kDispatcher;
  config.dispatcher.policy = policy;
  return config;
}

TEST(ClusterDispatch, FailoverSustainsGoodputThroughCrash) {
  // dead=40s outlasts Timer B (32s): INVITEs caught in flight when the box
  // dies genuinely time out (retransmissions never land) and must fail over.
  const auto plan = fault::FaultPlan::parse("@10s pbx crash dead=40s\n");

  auto faulted = dispatcher_cluster(Policy::kLeastLoaded);
  faulted.faults = &plan;
  faulted.fault_backend = 0;

  const auto baseline = exp::run_cluster(dispatcher_cluster(Policy::kLeastLoaded));
  const auto crashed = exp::run_cluster(faulted);

  ASSERT_GT(baseline.report.calls_completed, 0u);
  EXPECT_GE(crashed.backends[0].crashes, 1u);
  EXPECT_GE(crashed.circuit_opens, 1u);
  // Timed-out INVITEs were rescued onto survivors...
  EXPECT_GT(crashed.failovers, 0u);
  // ...so goodput holds within 10% of the fault-free run.
  EXPECT_GE(static_cast<double>(crashed.report.calls_completed),
            0.9 * static_cast<double>(baseline.report.calls_completed));
}

TEST(ClusterDispatch, SameSeedRunsAreIdentical) {
  const auto plan = fault::FaultPlan::parse("@10s pbx crash dead=40s\n");
  auto config = dispatcher_cluster(Policy::kLeastLoaded);
  config.faults = &plan;

  const auto a = exp::run_cluster(config);
  const auto b = exp::run_cluster(config);

  EXPECT_EQ(a.report.calls_attempted, b.report.calls_attempted);
  EXPECT_EQ(a.report.calls_completed, b.report.calls_completed);
  EXPECT_EQ(a.report.calls_blocked, b.report.calls_blocked);
  EXPECT_EQ(a.report.calls_failed, b.report.calls_failed);
  EXPECT_EQ(a.report.calls_retried, b.report.calls_retried);
  EXPECT_EQ(a.report.retries_rerouted, b.report.retries_rerouted);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.probes_sent, b.probes_sent);
  EXPECT_EQ(a.probe_failures, b.probe_failures);
  EXPECT_EQ(a.circuit_opens, b.circuit_opens);
  EXPECT_EQ(a.report.mos.mean(), b.report.mos.mean());  // exact double equality
  EXPECT_EQ(a.report.setup_delay_ms.mean(), b.report.setup_delay_ms.mean());
  ASSERT_EQ(a.backends.size(), b.backends.size());
  for (std::size_t i = 0; i < a.backends.size(); ++i) {
    EXPECT_EQ(a.backends[i].calls_routed, b.backends[i].calls_routed);
    EXPECT_EQ(a.backends[i].peak_channels, b.backends[i].peak_channels);
    EXPECT_EQ(a.backends[i].congestion, b.backends[i].congestion);
  }
}

TEST(ClusterDispatch, HeterogeneousFleetFavoursBigServers) {
  exp::ClusterConfig config;
  config.scenario = loadgen::CallScenario::for_offered_load(12.0, Duration::seconds(10));
  config.scenario.placement_window = Duration::seconds(60);
  config.fleet = {{24, 0}, {12, 0}, {6, 0}};  // weight 0 -> channels
  config.seed = 17;
  config.routing = exp::ClusterRouting::kDispatcher;
  config.dispatcher.policy = Policy::kWeighted;
  const auto result = exp::run_cluster(config);
  ASSERT_EQ(result.backends.size(), 3u);
  EXPECT_EQ(result.backends[0].channels, 24u);
  // Weighted routing sends proportionally more calls to the big box.
  EXPECT_GT(result.backends[0].calls_routed, result.backends[1].calls_routed);
  EXPECT_GT(result.backends[1].calls_routed, result.backends[2].calls_routed);
}

// Paper §III-B property at cluster scale. A k = 1 "cluster" through the
// dispatcher is a plain M/M/N/N loss system, so its blocking must match
// Erlang-B(A, N) within statistical tolerance.
TEST(ClusterDispatch, SingleServerBlockingMatchesErlangB) {
  exp::ClusterConfig config;
  config.scenario = loadgen::CallScenario::for_offered_load(10.0, Duration::seconds(20));
  config.scenario.placement_window = Duration::seconds(1500);
  config.servers = 1;
  config.channels_per_server = 12;
  config.seed = 23;
  config.routing = exp::ClusterRouting::kDispatcher;
  config.dispatcher.policy = Policy::kRoundRobin;
  const auto result = exp::run_cluster(config);

  const double expected = erlang::erlang_b(10.0, 12);
  const double tol = std::max(0.015, 0.2 * expected);
  EXPECT_NEAR(result.report.blocking_probability, expected, tol);
}

// For k > 1 the k servers bracket two classical bounds: pooling all k*N
// trunks (Erlang-B(A, kN), the unreachable optimum) and k independent
// Poisson-split M/M/N/N systems (Erlang-B(A/k, N)). Strict cyclic rotation
// of a Poisson stream gives each server Erlang-k interarrivals — smoother
// than Poisson — so measured blocking lands *inside* the envelope, at or
// below the Erlang-B(A/k, N) prediction the bench tables quote.
TEST(ClusterDispatch, RoundRobinBlockingWithinErlangBEnvelope) {
  exp::ClusterConfig config;
  config.scenario = loadgen::CallScenario::for_offered_load(30.0, Duration::seconds(20));
  config.scenario.placement_window = Duration::seconds(400);
  config.servers = 3;
  config.channels_per_server = 12;
  config.seed = 23;
  config.routing = exp::ClusterRouting::kDispatcher;
  config.dispatcher.policy = Policy::kRoundRobin;
  const auto result = exp::run_cluster(config);

  const double upper = erlang::erlang_b(30.0 / 3.0, 12);  // independent split
  const double lower = erlang::erlang_b(30.0, 36);        // full pooling
  const double tol = std::max(0.01, 0.15 * upper);
  EXPECT_LE(result.report.blocking_probability, upper + tol);
  EXPECT_GE(result.report.blocking_probability, lower - tol);
}

}  // namespace
