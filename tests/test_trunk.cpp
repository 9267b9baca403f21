// IAX2-style trunk aggregation (net/trunk.hpp + the Link trunk path):
// wire-size math, per-window aggregation on a link, unwrap transparency at
// the receiving hop, and the cluster-level contracts — an unchanged
// call/media census with fewer uplink bytes/packets, byte-identical across
// shard worker counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exp/cluster.hpp"
#include "net/link.hpp"
#include "net/network.hpp"
#include "net/node.hpp"
#include "net/trunk.hpp"
#include "rtp/codec.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace pbxcap;
using net::Packet;

Packet rtp_packet(std::uint32_t wire_bytes) {
  Packet pkt;
  pkt.kind = net::PacketKind::kRtp;
  pkt.size_bytes = wire_bytes;
  return pkt;
}

TEST(TrunkWireSize, MathGoldens) {
  // Empty trunk: the meta header alone, encapsulated once.
  EXPECT_EQ(net::trunk_wire_size({}), net::wire_size(net::kTrunkHeaderBytes));

  // One G.729 packet (78 wire bytes = 20 payload + 12 RTP + 46 Eth/IP/UDP):
  // the trunk keeps the 20 payload bytes plus a 4-byte mini-frame header.
  EXPECT_EQ(net::trunk_wire_size({rtp_packet(78)}), net::wire_size(8 + 4 + 20));

  // k packets amortize the shared encapsulation: 100 G.729 frames cost
  // 46 + 8 + 100 x 24 = 2454 bytes against 7800 untrunked — the 3.18x
  // bandwidth win the IAX2 trunk mode exists for.
  const std::vector<Packet> hundred(100, rtp_packet(78));
  EXPECT_EQ(net::trunk_wire_size(hundred), net::wire_size(8 + 100 * 24));
  EXPECT_GT(100 * 78.0 / net::trunk_wire_size(hundred), 3.0);

  // A packet smaller than the stripped framing never underflows.
  EXPECT_EQ(net::trunk_wire_size({rtp_packet(10)}), net::wire_size(8 + 4));
}

/// Test endpoint: records deliveries with their arrival times.
class SinkNode final : public net::Node {
 public:
  explicit SinkNode(std::string name) : Node{std::move(name)} {}

  void on_receive(const Packet& pkt) override {
    received.push_back(pkt);
    arrival_times.push_back(network()->simulator().now());
  }

  void transmit_to(net::NodeId dst, std::uint32_t bytes, net::PacketKind kind) {
    Packet pkt;
    pkt.dst = dst;
    pkt.kind = kind;
    pkt.size_bytes = bytes;
    send(std::move(pkt));
  }

  std::vector<Packet> received;
  std::vector<TimePoint> arrival_times;
};

struct TrunkFixture : ::testing::Test {
  sim::Simulator simulator;
  net::Network network{simulator, sim::Random{7}};
};

TEST_F(TrunkFixture, AggregatesRtpWithinWindowAndBypassesSip) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  network.attach(a);
  network.attach(b);
  net::LinkConfig cfg;
  cfg.trunk_window = Duration::millis(20);
  net::Link& link = network.connect(a, b, cfg);

  for (int i = 0; i < 5; ++i) a.transmit_to(b.id(), 78, net::PacketKind::kRtp);
  a.transmit_to(b.id(), 500, net::PacketKind::kSip);
  simulator.run();

  // The unwrap at the receiving hop re-delivers every aggregated packet
  // individually: the endpoint sees exactly what it would have without
  // trunking, in particular the original sizes and source.
  ASSERT_EQ(b.received.size(), 6u);
  std::size_t rtp_seen = 0;
  for (std::size_t i = 0; i < b.received.size(); ++i) {
    if (b.received[i].kind == net::PacketKind::kRtp) {
      ++rtp_seen;
      EXPECT_EQ(b.received[i].size_bytes, 78u);
      EXPECT_EQ(b.received[i].src, a.id());
      // Media waits for the 20 ms flush boundary.
      EXPECT_GE(b.arrival_times[i], TimePoint::at(Duration::millis(20)));
    } else {
      EXPECT_EQ(b.received[i].kind, net::PacketKind::kSip);
      // Signalling bypasses the trunk and arrives immediately.
      EXPECT_LT(b.arrival_times[i], TimePoint::at(Duration::millis(20)));
    }
  }
  EXPECT_EQ(rtp_seen, 5u);

  // One shell carried all five media packets, and the wire total shrank:
  // 46+8+5x24 = 174 shell bytes + 500 SIP, against 890 untrunked.
  const net::LinkDirectionStats& stats = link.stats_from(a.id());
  EXPECT_EQ(stats.trunk_frames, 1u);
  EXPECT_EQ(stats.trunk_mini_frames, 5u);
  EXPECT_EQ(stats.packets_sent, 2u);  // shell + SIP
  EXPECT_EQ(stats.bytes_sent, net::wire_size(8 + 5 * 24) + 500u);
}

TEST_F(TrunkFixture, FlushesOnTheWindowGrid) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  network.attach(a);
  network.attach(b);
  net::LinkConfig cfg;
  cfg.trunk_window = Duration::millis(20);
  net::Link& link = network.connect(a, b, cfg);

  // 5 ms and 15 ms share the [0, 20) window; 25 ms starts the next one.
  for (const int ms : {5, 15, 25}) {
    simulator.schedule_at(TimePoint::at(Duration::millis(ms)),
                          [&a, &b] { a.transmit_to(b.id(), 78, net::PacketKind::kRtp); });
  }
  simulator.run();

  ASSERT_EQ(b.received.size(), 3u);
  EXPECT_GE(b.arrival_times[0], TimePoint::at(Duration::millis(20)));
  EXPECT_LT(b.arrival_times[1], TimePoint::at(Duration::millis(25)));
  EXPECT_GE(b.arrival_times[2], TimePoint::at(Duration::millis(40)));
  EXPECT_EQ(link.stats_from(a.id()).trunk_frames, 2u);
  EXPECT_EQ(link.stats_from(a.id()).trunk_mini_frames, 3u);
}

TEST_F(TrunkFixture, LostShellsStayOutOfTheSentCounts) {
  // A lost shell loses every packet inside it: the receiving network
  // delivers exactly the packets of the sent shells, which the link counts
  // apart from those of all shells.
  SinkNode a{"a"};
  SinkNode b{"b"};
  network.attach(a);
  network.attach(b);
  net::LinkConfig cfg;
  cfg.trunk_window = Duration::millis(20);
  cfg.loss_probability = 0.5;
  net::Link& link = network.connect(a, b, cfg);

  // Three media packets in each of 40 windows.
  for (int ms = 5; ms < 800; ms += 20) {
    simulator.schedule_at(TimePoint::at(Duration::millis(ms)), [&a, &b] {
      for (int i = 0; i < 3; ++i) a.transmit_to(b.id(), 78, net::PacketKind::kRtp);
    });
  }
  simulator.run();

  const net::LinkDirectionStats& stats = link.stats_from(a.id());
  EXPECT_EQ(stats.trunk_frames, 40u);
  EXPECT_EQ(stats.trunk_mini_frames, 120u);
  ASSERT_GT(stats.dropped_random_loss, 0u);
  ASSERT_GT(stats.trunk_frames_sent, 0u);
  EXPECT_EQ(stats.trunk_frames_sent + stats.dropped_random_loss, stats.trunk_frames);
  EXPECT_EQ(stats.trunk_mini_frames_sent, 3 * stats.trunk_frames_sent);
  EXPECT_EQ(b.received.size(), stats.trunk_mini_frames_sent);
  EXPECT_EQ(network.packets_delivered(),
            stats.packets_sent - stats.trunk_frames_sent + stats.trunk_mini_frames_sent);
}

// --------------------------------------------------------------- cluster

exp::ClusterConfig g729_cluster(Duration trunk_window) {
  exp::ClusterConfig config;
  config.scenario = loadgen::CallScenario::for_offered_load(40.0, Duration::seconds(20));
  config.scenario.placement_window = Duration::seconds(60);
  config.scenario.codec = *rtp::codec_by_payload_type(rtp::payload_type::kG729);
  config.servers = 2;
  config.channels_per_server = 30;
  config.allowed_payload_types = {rtp::payload_type::kG729};
  config.trunk_window = trunk_window;
  config.seed = 61;
  return config;
}

TEST(TrunkedCluster, CensusUnchangedAndUplinkTrafficReduced) {
  const auto plain = exp::run_cluster(g729_cluster(Duration::zero()));
  const auto trunked = exp::run_cluster(g729_cluster(Duration::millis(20)));

  // Trunking reframes the uplink wire; what happened must not change.
  EXPECT_EQ(plain.report.calls_attempted, trunked.report.calls_attempted);
  EXPECT_EQ(plain.report.calls_completed, trunked.report.calls_completed);
  EXPECT_EQ(plain.report.calls_blocked, trunked.report.calls_blocked);
  EXPECT_EQ(plain.report.calls_failed, trunked.report.calls_failed);
  EXPECT_EQ(plain.report.rtp_packets_at_pbx, trunked.report.rtp_packets_at_pbx);
  // Relays almost match: the flush delays media by up to one window, so the
  // last packets of a call can reach the PBX just after its bridge tore down
  // (BYE is untrunked signalling) and go unrouted — a per-call tail, not a
  // traffic change.
  EXPECT_NEAR(static_cast<double>(plain.report.rtp_relayed),
              static_cast<double>(trunked.report.rtp_relayed),
              0.002 * static_cast<double>(plain.report.rtp_relayed));
  EXPECT_EQ(plain.report.sip_total, trunked.report.sip_total);
  EXPECT_EQ(plain.report.trunk_frames, 0u);
  EXPECT_GT(trunked.report.trunk_frames, 0u);
  EXPECT_GT(trunked.report.trunk_mini_frames, trunked.report.trunk_frames);

  // ~20 concurrent G.729 calls per backend = ~40 media packets per 20 ms
  // window per direction: the shared framing shrinks uplink bytes toward the
  // 3.18x asymptote (the full >=3x gate runs at bench scale), and packets by
  // roughly the aggregation factor.
  ASSERT_GT(trunked.uplink_bytes, 0u);
  ASSERT_GT(trunked.uplink_packets, 0u);
  EXPECT_GT(static_cast<double>(plain.uplink_bytes) / static_cast<double>(trunked.uplink_bytes), 2.5);
  EXPECT_GT(static_cast<double>(plain.uplink_packets) / static_cast<double>(trunked.uplink_packets), 10.0);
}

std::string trunk_digest(const exp::ClusterResult& r) {
  std::string out;
  for (const std::uint64_t v :
       {r.report.calls_attempted, r.report.calls_completed, r.report.calls_blocked,
        r.report.sip_total, r.report.rtp_packets_at_pbx, r.report.rtp_relayed,
        r.report.trunk_frames, r.report.trunk_mini_frames, r.report.events_processed,
        r.uplink_bytes, r.uplink_packets, static_cast<std::uint64_t>(r.report.channels_peak)}) {
    out += std::to_string(v) + ",";
  }
  return out;
}

TEST(TrunkedShardedCluster, ByteIdenticalAcrossThreadCounts) {
  auto config = g729_cluster(Duration::millis(20));
  config.shard.enabled = true;
  config.shard.threads = 1;
  const auto one = exp::run_cluster(config);
  EXPECT_GT(one.report.calls_completed, 0u);
  EXPECT_GT(one.report.trunk_frames, 0u);
  for (const unsigned threads : {2u, 4u, 8u}) {
    config.shard.threads = threads;
    const auto again = exp::run_cluster(config);
    EXPECT_EQ(trunk_digest(one), trunk_digest(again)) << threads << " threads";
  }

  // The sharded trunk path (shells crossing the portal boundary) keeps the
  // same traffic-reduction contract as the monolithic one.
  config.shard.threads = 1;
  config.trunk_window = Duration::zero();
  const auto plain = exp::run_cluster(config);
  EXPECT_EQ(plain.report.calls_attempted, one.report.calls_attempted);
  EXPECT_EQ(plain.report.rtp_packets_at_pbx, one.report.rtp_packets_at_pbx);
  EXPECT_GT(static_cast<double>(plain.uplink_bytes) / static_cast<double>(one.uplink_bytes), 2.5);
  EXPECT_GT(static_cast<double>(plain.uplink_packets) / static_cast<double>(one.uplink_packets), 10.0);
}

}  // namespace
