// Tests for the shared-medium Wi-Fi cell: airtime math, serialization,
// drops, routing, and the VoWiFi end-to-end path.
#include <gtest/gtest.h>

#include <vector>

#include "exp/testbed.hpp"
#include "net/link.hpp"
#include "net/network.hpp"
#include "net/wifi_cell.hpp"
#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace pbxcap;

class SinkNode final : public net::Node {
 public:
  explicit SinkNode(std::string name) : Node{std::move(name)} {}
  void on_receive(const net::Packet& pkt) override {
    received.push_back(pkt);
    times.push_back(network()->simulator().now());
  }
  void transmit_to(net::NodeId dst, std::uint32_t bytes) {
    net::Packet pkt;
    pkt.dst = dst;
    pkt.size_bytes = bytes;
    send(std::move(pkt));
  }
  std::vector<net::Packet> received;
  std::vector<TimePoint> times;
};

struct WifiFixture : ::testing::Test {
  sim::Simulator simulator;
  net::Network network{simulator, sim::Random{5}};
};

TEST_F(WifiFixture, AirtimeIncludesOverhead) {
  net::WifiCellConfig config;
  config.phy_rate_bps = 54e6;
  config.per_frame_overhead = Duration::micros(190);
  net::WifiCell cell{"ap", config};
  // A 218-byte G.711 frame: 218*8/54e6 = 32.3 us + 190 us overhead.
  const Duration airtime = cell.frame_airtime(218);
  EXPECT_NEAR(airtime.to_seconds() * 1e6, 222.3, 1.0);
  // Payload is a minority share: the famous VoIP-over-WiFi inefficiency.
  EXPECT_GT(config.per_frame_overhead.to_seconds(),
            airtime.to_seconds() * 0.5);
}

TEST_F(WifiFixture, ForwardsThroughSharedMedium) {
  SinkNode sta{"sta"};
  SinkNode wired{"wired"};
  net::WifiCellConfig config;
  config.frame_error_rate = 0.0;
  net::WifiCell cell{"ap", config};
  network.attach(sta);
  network.attach(wired);
  network.attach(cell);
  network.connect(sta, cell, {});
  network.connect(cell, wired, {});
  sta.transmit_to(wired.id(), 218);
  simulator.run();
  ASSERT_EQ(wired.received.size(), 1u);
  EXPECT_EQ(cell.frames_forwarded(), 1u);
  // Delivery is delayed by at least the frame airtime.
  EXPECT_GT(wired.times[0].to_seconds(), 150e-6);
}

TEST_F(WifiFixture, MediumSerializesCompetingFrames) {
  SinkNode sta{"sta"};
  SinkNode wired{"wired"};
  net::WifiCellConfig config;
  config.frame_error_rate = 0.0;
  net::WifiCell cell{"ap", config};
  network.attach(sta);
  network.attach(wired);
  network.attach(cell);
  network.connect(sta, cell, {});
  network.connect(cell, wired, {});
  for (int i = 0; i < 10; ++i) sta.transmit_to(wired.id(), 218);
  simulator.run();
  ASSERT_EQ(wired.received.size(), 10u);
  // Arrivals are spaced by at least one airtime (~222 us + backoff).
  for (std::size_t i = 1; i < wired.times.size(); ++i) {
    EXPECT_GE((wired.times[i] - wired.times[i - 1]).to_seconds(), 150e-6);
  }
  EXPECT_GT(cell.medium_utilization(simulator.now()), 0.5);
}

TEST_F(WifiFixture, QueueOverflowDrops) {
  SinkNode sta{"sta"};
  SinkNode wired{"wired"};
  net::WifiCellConfig config;
  config.frame_error_rate = 0.0;
  config.queue_limit_frames = 4;
  net::WifiCell cell{"ap", config};
  network.attach(sta);
  network.attach(wired);
  network.attach(cell);
  network.connect(sta, cell, {});
  network.connect(cell, wired, {});
  for (int i = 0; i < 20; ++i) sta.transmit_to(wired.id(), 1500);
  simulator.run();
  EXPECT_GT(cell.frames_dropped_queue(), 0u);
  EXPECT_EQ(wired.received.size() + cell.frames_dropped_queue(), 20u);
}

TEST_F(WifiFixture, RadioLossDropsRoughlyConfiguredFraction) {
  SinkNode sta{"sta"};
  SinkNode wired{"wired"};
  net::WifiCellConfig config;
  config.frame_error_rate = 0.10;
  config.queue_limit_frames = 100'000;
  net::WifiCell cell{"ap", config};
  network.attach(sta);
  network.attach(wired);
  network.attach(cell);
  // Generous wire queues so only the radio drops frames.
  net::LinkConfig wire;
  wire.queue_limit_packets = 100'000;
  network.connect(sta, cell, wire);
  network.connect(cell, wired, wire);
  constexpr int kFrames = 5'000;
  for (int i = 0; i < kFrames; ++i) sta.transmit_to(wired.id(), 218);
  simulator.run();
  const double loss = static_cast<double>(cell.frames_dropped_radio()) / kFrames;
  EXPECT_NEAR(loss, 0.10, 0.02);
}

TEST_F(WifiFixture, UnroutableWithoutUplink) {
  SinkNode sta{"sta"};
  SinkNode far{"far"};
  net::WifiCell cell{"ap", {}};
  network.attach(sta);
  network.attach(far);
  network.attach(cell);
  network.connect(sta, cell, {});
  sta.transmit_to(far.id(), 100);
  simulator.run();
  EXPECT_EQ(cell.frames_dropped_no_route(), 1u);
}

TEST_F(WifiFixture, PublishesEveryFrameOutcome) {
  SinkNode sta{"sta"};
  SinkNode wired{"wired"};
  SinkNode far{"far"};
  net::WifiCellConfig config;
  config.frame_error_rate = 0.3;
  config.queue_limit_frames = 8;
  net::WifiCell cell{"ap", config};
  network.attach(sta);
  network.attach(wired);
  network.attach(far);
  network.attach(cell);
  network.connect(sta, cell, {});
  network.connect(cell, wired, {});
  for (int i = 0; i < 40; ++i) sta.transmit_to(wired.id(), 1500);
  sta.transmit_to(far.id(), 100);  // no route: the cell has no uplink
  simulator.run();
  EXPECT_GT(cell.frames_forwarded(), 0u);
  EXPECT_GT(cell.frames_dropped_queue(), 0u);
  EXPECT_GT(cell.frames_dropped_radio(), 0u);
  EXPECT_EQ(cell.frames_dropped_no_route(), 1u);
  EXPECT_EQ(cell.frames_forwarded() + cell.frames_dropped_queue() + cell.frames_dropped_radio() +
                cell.frames_dropped_no_route(),
            41u);

  telemetry::MetricsRegistry reg;
  cell.publish(reg);
  EXPECT_EQ(reg.counter("pbxcap_wifi_frames_forwarded_total").value(), cell.frames_forwarded());
  const auto dropped = [&reg](const char* reason) {
    return reg.counter("pbxcap_wifi_frames_dropped_total", {{"reason", reason}}).value();
  };
  EXPECT_EQ(dropped("queue_full"), cell.frames_dropped_queue());
  EXPECT_EQ(dropped("radio"), cell.frames_dropped_radio());
  EXPECT_EQ(dropped("no_route"), cell.frames_dropped_no_route());
  EXPECT_EQ(reg.size(), 4u);
}

TEST(VoWifiEndToEnd, LightLoadKeepsQuality) {
  exp::TestbedConfig config;
  config.scenario.arrival_rate_per_s = 0.5;
  config.scenario.placement_window = Duration::seconds(20);
  config.scenario.hold_time = Duration::seconds(10);
  net::WifiCellConfig cell;
  cell.frame_error_rate = 0.0;
  config.wifi_cell = cell;
  config.seed = 8;
  exp::WifiObservations wifi;
  const auto r = exp::run_testbed(config, &wifi);
  EXPECT_GT(r.calls_completed, 0u);
  EXPECT_EQ(r.calls_failed, 0u);
  EXPECT_GT(r.mos.min(), 4.0);
  EXPECT_GT(wifi.frames_forwarded, 0u);
  EXPECT_LT(wifi.medium_utilization, 0.5);
}

TEST(VoWifiEndToEnd, SaturatedCellDegradesQuality) {
  // ~50 concurrent G.711 calls exceed one 802.11g cell's voice capacity.
  exp::TestbedConfig light;
  light.scenario = loadgen::CallScenario::for_offered_load(5.0, Duration::seconds(20));
  light.scenario.placement_window = Duration::seconds(40);
  light.wifi_cell = net::WifiCellConfig{};
  light.seed = 9;
  exp::TestbedConfig heavy = light;
  heavy.scenario = loadgen::CallScenario::for_offered_load(55.0, Duration::seconds(20));
  heavy.scenario.placement_window = Duration::seconds(40);

  exp::WifiObservations wifi_light;
  exp::WifiObservations wifi_heavy;
  const auto r_light = exp::run_testbed(light, &wifi_light);
  const auto r_heavy = exp::run_testbed(heavy, &wifi_heavy);

  EXPECT_GT(wifi_heavy.medium_utilization, wifi_light.medium_utilization);
  // The horizon includes ramp and drain, so even a saturated middle phase
  // averages below 1; ~0.6+ marks saturation here.
  EXPECT_GT(wifi_heavy.medium_utilization, 0.6);
  // Quality collapses under saturation even though the PBX has channels.
  EXPECT_LT(r_heavy.mos.mean(), r_light.mos.mean());
  EXPECT_GT(wifi_heavy.frames_dropped_queue, 0u);
  EXPECT_GT(r_heavy.effective_loss.mean(), r_light.effective_loss.mean());
}

}  // namespace
