// Tests for the multi-server cluster harness.
#include <gtest/gtest.h>

#include <algorithm>

#include "exp/cluster.hpp"
#include "exp/testbed.hpp"
#include "fault/plan.hpp"

namespace {

using namespace pbxcap;

exp::ClusterConfig small_cluster(double erlangs, std::uint32_t servers) {
  exp::ClusterConfig config;
  config.scenario = loadgen::CallScenario::for_offered_load(erlangs, Duration::seconds(20));
  config.scenario.placement_window = Duration::seconds(120);
  config.servers = servers;
  config.channels_per_server = 12;
  config.seed = 61;
  return config;
}

TEST(Cluster, SingleServerMatchesTestbedSemantics) {
  // One backend behind DNS rotation is the testbed with its PBX renamed:
  // the same graph, so the same calls, census and kernel events.
  const exp::ClusterConfig cc = small_cluster(6.0, 1);
  const auto result = exp::run_cluster(cc);
  exp::TestbedConfig tc;
  tc.scenario = cc.scenario;
  tc.pbx.host = "pbx0.unb.br";
  tc.pbx.max_channels = cc.channels_per_server;
  tc.seed = cc.seed;
  tc.drain = cc.drain;
  const monitor::ExperimentReport testbed = exp::run_testbed(tc);
  const monitor::ExperimentReport& cluster = result.report;

  EXPECT_GT(cluster.calls_completed, 0u);
  EXPECT_EQ(cluster.calls_failed, 0u);
  EXPECT_EQ(result.backends.size(), 1u);
  EXPECT_EQ(cluster.channels_configured, 12u);
  EXPECT_EQ(cluster.calls_attempted, testbed.calls_attempted);
  EXPECT_EQ(cluster.calls_completed, testbed.calls_completed);
  EXPECT_EQ(cluster.calls_blocked, testbed.calls_blocked);
  EXPECT_EQ(cluster.calls_failed, testbed.calls_failed);
  EXPECT_EQ(cluster.channels_peak, testbed.channels_peak);
  EXPECT_EQ(cluster.sip_total, testbed.sip_total);
  EXPECT_EQ(cluster.sip_invite, testbed.sip_invite);
  EXPECT_EQ(cluster.sip_200, testbed.sip_200);
  EXPECT_EQ(cluster.sip_bye, testbed.sip_bye);
  EXPECT_EQ(cluster.sip_errors, testbed.sip_errors);
  EXPECT_EQ(cluster.sip_retransmissions, testbed.sip_retransmissions);
  EXPECT_EQ(cluster.rtp_packets_at_pbx, testbed.rtp_packets_at_pbx);
  EXPECT_EQ(cluster.rtp_relayed, testbed.rtp_relayed);
  EXPECT_EQ(cluster.events_processed, testbed.events_processed);
  EXPECT_EQ(cluster.mos.mean(), testbed.mos.mean());
  EXPECT_GT(cluster.mos.min(), 4.0);
}

TEST(Cluster, AddingServersReducesBlocking) {
  // 24 E onto 12 channels blocks heavily; onto 2x12 it nearly vanishes.
  const auto one = exp::run_cluster(small_cluster(24.0, 1));
  const auto two = exp::run_cluster(small_cluster(24.0, 2));
  EXPECT_GT(one.report.blocking_probability, 0.15);
  EXPECT_LT(two.report.blocking_probability, one.report.blocking_probability / 2.0);
}

TEST(Cluster, RoundRobinBalancesLoad) {
  const auto result = exp::run_cluster(small_cluster(12.0, 3));
  ASSERT_EQ(result.backends.size(), 3u);
  // Even split: peaks within a few channels of one another.
  const auto [lo, hi] = std::minmax_element(
      result.backends.begin(), result.backends.end(),
      [](const auto& a, const auto& b) { return a.peak_channels < b.peak_channels; });
  EXPECT_LE(hi->peak_channels - lo->peak_channels, 4u);
}

TEST(Cluster, PerServerCongestionReported) {
  const auto result = exp::run_cluster(small_cluster(30.0, 2));
  ASSERT_EQ(result.backends.size(), 2u);
  std::uint64_t total = 0;
  for (const auto& b : result.backends) total += b.congestion;
  EXPECT_EQ(total, result.report.calls_blocked);
}

TEST(Cluster, RejectsZeroServers) {
  EXPECT_THROW((void)exp::run_cluster(small_cluster(6.0, 0)), std::invalid_argument);
}

TEST(Cluster, RejectsFaultBackendOutsideFleet) {
  // A crash aimed at backend 2 of a two-server fleet names no server; it
  // must not land on backend 1 instead.
  const auto plan = fault::FaultPlan::parse("@5s pbx crash dead=5s\n");
  exp::ClusterConfig config = small_cluster(6.0, 2);
  config.faults = &plan;
  config.fault_backend = 2;
  EXPECT_THROW((void)exp::run_cluster(config), std::invalid_argument);
  config.fault_backend = 1;
  EXPECT_NO_THROW((void)exp::run_cluster(config));
}

}  // namespace
