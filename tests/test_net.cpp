// Unit tests for the network fabric: links, queues, switch forwarding.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "net/link.hpp"
#include "net/network.hpp"
#include "net/node.hpp"
#include "net/portal.hpp"
#include "net/switch_node.hpp"
#include "net/wifi_cell.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace pbxcap;
using net::LinkConfig;
using net::Packet;

/// Test endpoint: records deliveries, can echo.
class SinkNode final : public net::Node {
 public:
  explicit SinkNode(std::string name) : Node{std::move(name)} {}

  void on_receive(const Packet& pkt) override {
    received.push_back(pkt);
    arrival_times.push_back(network()->simulator().now());
  }

  void transmit_to(net::NodeId dst, std::uint32_t bytes,
                   net::PacketKind kind = net::PacketKind::kOther) {
    Packet pkt;
    pkt.dst = dst;
    pkt.kind = kind;
    pkt.size_bytes = bytes;
    send(std::move(pkt));
  }

  std::vector<Packet> received;
  std::vector<TimePoint> arrival_times;
};

struct NetFixture : ::testing::Test {
  sim::Simulator simulator;
  net::Network network{simulator, sim::Random{7}};
};

TEST_F(NetFixture, DirectLinkDelivers) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  network.attach(a);
  network.attach(b);
  network.connect(a, b, {});
  a.transmit_to(b.id(), 1000);
  simulator.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].size_bytes, 1000u);
  EXPECT_EQ(b.received[0].src, a.id());
}

TEST_F(NetFixture, AttachUnderATakenIdThrows) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  SinkNode c{"c"};
  EXPECT_EQ(network.attach(a), 0u);
  EXPECT_EQ(network.attach(b, 5), 5u);
  EXPECT_THROW(network.attach(c, 0), std::logic_error);
  EXPECT_THROW(network.attach(c, 5), std::logic_error);
  EXPECT_THROW(network.attach(c, net::kInvalidNode), std::out_of_range);
  EXPECT_EQ(c.network(), nullptr);  // a refused attach leaves the node detached
  EXPECT_EQ(network.attach(c, 3), 3u);
  EXPECT_EQ(&network.node(0), &a);
  EXPECT_EQ(&network.node(3), &c);
  EXPECT_EQ(&network.node(5), &b);
}

TEST_F(NetFixture, NodeOnAGapThrows) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  network.attach(a, 2);
  for (const net::NodeId gap : {0u, 1u, 3u}) {
    EXPECT_THROW((void)network.node(gap), std::out_of_range) << "id " << gap;
  }
  EXPECT_THROW(network.set_remote_sink(1, [](Packet&&, net::NodeId, TimePoint) {}),
               std::out_of_range);
  EXPECT_EQ(network.attach(b), 3u);  // the dense path continues past the highest id
}

TEST_F(NetFixture, NodeUnderAForeignIdSendsAndReceives) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  network.attach(a, 7);
  network.attach(b, 2);
  network.connect(a, b, {});
  std::vector<std::pair<net::NodeId, net::NodeId>> hops;
  network.add_tap([&hops](const Packet&, net::NodeId from, net::NodeId to) {
    hops.emplace_back(from, to);
  });
  a.transmit_to(2, 100);
  b.transmit_to(7, 100);
  simulator.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].src, 7u);
  EXPECT_EQ(b.received[0].dst, 2u);
  ASSERT_EQ(a.received.size(), 1u);
  EXPECT_EQ(a.received[0].src, 2u);
  EXPECT_EQ(a.received[0].dst, 7u);
  EXPECT_EQ(hops, (std::vector<std::pair<net::NodeId, net::NodeId>>{{7, 2}, {2, 7}}));
  EXPECT_EQ(network.packets_delivered(), 2u);
}

TEST_F(NetFixture, SerializationPlusPropagationDelay) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  network.attach(a);
  network.attach(b);
  LinkConfig cfg;
  cfg.bandwidth_bps = 8'000'000.0;  // 1 byte per microsecond
  cfg.propagation = Duration::micros(100);
  network.connect(a, b, cfg);
  a.transmit_to(b.id(), 1000);  // 1000 us serialization
  simulator.run();
  ASSERT_EQ(b.arrival_times.size(), 1u);
  EXPECT_EQ(b.arrival_times[0], TimePoint::origin() + Duration::micros(1100));
}

TEST_F(NetFixture, BackToBackPacketsQueue) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  network.attach(a);
  network.attach(b);
  LinkConfig cfg;
  cfg.bandwidth_bps = 8'000'000.0;
  cfg.propagation = Duration::zero();
  network.connect(a, b, cfg);
  a.transmit_to(b.id(), 1000);
  a.transmit_to(b.id(), 1000);  // must wait for the first to serialize
  simulator.run();
  ASSERT_EQ(b.arrival_times.size(), 2u);
  EXPECT_EQ(b.arrival_times[0], TimePoint::origin() + Duration::millis(1));
  EXPECT_EQ(b.arrival_times[1], TimePoint::origin() + Duration::millis(2));
}

TEST_F(NetFixture, DropTailWhenQueueFull) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  network.attach(a);
  network.attach(b);
  LinkConfig cfg;
  cfg.bandwidth_bps = 8'000.0;  // very slow: 1 byte per ms
  cfg.queue_limit_packets = 2;
  net::Link& link = network.connect(a, b, cfg);
  for (int i = 0; i < 5; ++i) a.transmit_to(b.id(), 100);
  simulator.run();
  EXPECT_EQ(b.received.size(), 2u);
  EXPECT_EQ(link.stats_from(a.id()).dropped_queue_full, 3u);
  EXPECT_EQ(link.stats_from(a.id()).packets_sent, 2u);
}

TEST_F(NetFixture, RandomLossDropsRoughlyTheConfiguredFraction) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  network.attach(a);
  network.attach(b);
  LinkConfig cfg;
  cfg.loss_probability = 0.2;
  cfg.queue_limit_packets = 100000;
  net::Link& link = network.connect(a, b, cfg);
  constexpr int kPackets = 20'000;
  for (int i = 0; i < kPackets; ++i) a.transmit_to(b.id(), 100);
  simulator.run();
  const double loss_rate =
      static_cast<double>(link.stats_from(a.id()).dropped_random_loss) / kPackets;
  EXPECT_NEAR(loss_rate, 0.2, 0.02);
  EXPECT_EQ(b.received.size() + link.stats_from(a.id()).dropped_random_loss,
            static_cast<std::size_t>(kPackets));
}

TEST_F(NetFixture, JitterDelaysButDelivers) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  network.attach(a);
  network.attach(b);
  LinkConfig cfg;
  cfg.jitter_mean = Duration::millis(2);
  cfg.jitter_stddev = Duration::millis(1);
  network.connect(a, b, cfg);
  for (int i = 0; i < 100; ++i) a.transmit_to(b.id(), 100);
  simulator.run();
  EXPECT_EQ(b.received.size(), 100u);
}

TEST_F(NetFixture, SwitchForwardsBetweenHosts) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  net::SwitchNode sw{"sw"};
  network.attach(a);
  network.attach(b);
  network.attach(sw);
  network.connect(a, sw, {});
  network.connect(b, sw, {});
  a.transmit_to(b.id(), 500);
  simulator.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(sw.forwarded(), 1u);
  EXPECT_EQ(b.received[0].src, a.id());
  EXPECT_EQ(b.received[0].dst, b.id());
}

TEST_F(NetFixture, SwitchDropsUnroutable) {
  SinkNode a{"a"};
  SinkNode b{"b"};  // attached to network but NOT to the switch
  net::SwitchNode sw{"sw"};
  network.attach(a);
  network.attach(b);
  network.attach(sw);
  network.connect(a, sw, {});
  a.transmit_to(b.id(), 500);
  simulator.run();
  EXPECT_EQ(b.received.size(), 0u);
  EXPECT_EQ(sw.dropped_no_route(), 1u);
}

TEST_F(NetFixture, HostsMayHaveOnlyOneLink) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  SinkNode c{"c"};
  network.attach(a);
  network.attach(b);
  network.attach(c);
  network.connect(a, b, {});
  EXPECT_THROW((void)network.connect(a, c, {}), std::logic_error);
}

TEST_F(NetFixture, TapsObserveDeliveries) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  network.attach(a);
  network.attach(b);
  network.connect(a, b, {});
  int taps = 0;
  network.add_tap([&](const Packet&, net::NodeId, net::NodeId) { ++taps; });
  a.transmit_to(b.id(), 100);
  a.transmit_to(b.id(), 100);
  simulator.run();
  EXPECT_EQ(taps, 2);
  EXPECT_EQ(network.packets_delivered(), 2u);
}

TEST_F(NetFixture, TapSeesLocalAndRemoteHops) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  SinkNode c{"c"};
  net::SwitchNode sw{"sw"};
  net::PortalNode portal{"portal"};
  for (net::Node* n : std::initializer_list<net::Node*>{&a, &b, &c, &sw, &portal}) {
    network.attach(*n);
  }
  for (net::Node* n : std::initializer_list<net::Node*>{&a, &b, &c, &portal}) {
    network.connect(*n, sw, {});
  }
  // The portal's hops leave through deliver_remote, not the local loop.
  int remote = 0;
  network.set_remote_sink(portal.id(), [&](Packet&&, net::NodeId, TimePoint) { ++remote; });

  using Hop = std::pair<net::NodeId, net::NodeId>;
  std::vector<Hop> all;
  network.add_tap([&](const Packet&, net::NodeId from, net::NodeId to) {
    all.emplace_back(from, to);
  });

  a.transmit_to(b.id(), 100);
  b.transmit_to(c.id(), 100);
  c.transmit_to(a.id(), 100);
  a.transmit_to(portal.id(), 100);
  b.transmit_to(portal.id(), 100);
  simulator.run();

  ASSERT_EQ(all.size(), 10u);  // two hops per packet, the last one remote for two
  EXPECT_EQ(remote, 2);
  EXPECT_EQ(std::count(all.begin(), all.end(), Hop{sw.id(), portal.id()}), 2);
  EXPECT_EQ(network.packets_delivered(), 8u);  // a remote hop is not a local delivery
}

TEST_F(NetFixture, UtilizationReflectsBusyTime) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  network.attach(a);
  network.attach(b);
  LinkConfig cfg;
  cfg.bandwidth_bps = 8'000'000.0;  // 1000-byte packet = 1 ms
  net::Link& link = network.connect(a, b, cfg);
  for (int i = 0; i < 100; ++i) a.transmit_to(b.id(), 1000);
  simulator.run();
  // 100 ms busy over ~100 ms elapsed => utilization near 1.
  EXPECT_GT(link.utilization_from(a.id(), simulator.now()), 0.9);
  EXPECT_LE(link.utilization_from(a.id(), simulator.now()), 1.0);
}

TEST_F(NetFixture, DeliveredHopCostsOneEventDroppedHopsNone) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  SinkNode c{"c"};
  SinkNode d{"d"};
  for (SinkNode* node : {&a, &b, &c, &d}) network.attach(*node);
  LinkConfig one_slot;
  one_slot.queue_limit_packets = 1;
  const net::Link& full = network.connect(a, b, one_slot);
  LinkConfig lossy;
  lossy.loss_probability = 1.0;
  const net::Link& lost = network.connect(c, d, lossy);

  a.transmit_to(b.id(), 1000);
  a.transmit_to(b.id(), 1000);  // refused: the first is still serializing
  c.transmit_to(d.id(), 1000);  // serialized, then lost
  simulator.run();
  EXPECT_EQ(full.stats_from(a.id()).dropped_queue_full, 1u);
  EXPECT_EQ(lost.stats_from(c.id()).dropped_random_loss, 1u);
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(simulator.events_processed(), 1u);  // the one delivery
}

TEST_F(NetFixture, BacklogClearsAtTheSerializationEndWithoutAnEvent) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  network.attach(a);
  network.attach(b);
  LinkConfig cfg;
  cfg.bandwidth_bps = 8'000'000.0;  // 1000 bytes serialize in 1 ms
  cfg.loss_probability = 1.0;       // no delivery event either
  const net::Link& link = network.connect(a, b, cfg);
  a.transmit_to(b.id(), 1000);
  const TimePoint end = TimePoint::origin() + Duration::millis(1);

  simulator.run_until(end - Duration::nanos(1));
  EXPECT_EQ(link.backlog_from(a.id()), 1u);
  EXPECT_EQ(simulator.pending(), 0u);
  // At exactly the serialization end the frame has left the backlog.
  simulator.run_until(end);
  EXPECT_EQ(link.backlog_from(a.id()), 0u);
  EXPECT_EQ(simulator.events_processed(), 0u);
}

TEST_F(NetFixture, DropTailAcceptsAgainOnceTheOldestFrameDrains) {
  SinkNode a{"a"};
  SinkNode b{"b"};
  network.attach(a);
  network.attach(b);
  LinkConfig cfg;
  cfg.bandwidth_bps = 8'000'000.0;  // 1000 bytes serialize in 1 ms
  cfg.propagation = Duration::seconds(1);
  cfg.queue_limit_packets = 2;
  const net::Link& link = network.connect(a, b, cfg);
  for (int i = 0; i < 3; ++i) a.transmit_to(b.id(), 1000);
  EXPECT_EQ(link.stats_from(a.id()).dropped_queue_full, 1u);

  // The first frame ends serializing at 1 ms; deliveries start at 1.001 s.
  simulator.run_until(TimePoint::origin() + Duration::millis(1));
  EXPECT_EQ(simulator.events_processed(), 0u);
  a.transmit_to(b.id(), 1000);  // queues behind the second frame
  EXPECT_EQ(link.stats_from(a.id()).dropped_queue_full, 1u);
  simulator.run();
  ASSERT_EQ(b.arrival_times.size(), 3u);
  EXPECT_EQ(b.arrival_times[2], TimePoint::origin() + Duration::millis(1003));
  EXPECT_EQ(simulator.events_processed(), 3u);
}

// ---- the switch's processing step -------------------------------------------
//
// A switch offers a per-packet frame to its egress link d = 10 us after it
// receives it. These cases pin, by hand-computed values, the queueing, order
// and timing that result, and how an impairment edit inside that delay
// applies. The link into the switch pays d on its delivery, so the switch
// offers the frame as it receives it, d after the frame reached it.

/// Hosts `a` and `b` (and `c`, the sink) on a switch. Access links carry
/// 10 bytes/us, so a 1000-byte frame reaches the switch 105 us after it is
/// sent and the switch receives it at 115 us; the egress link to `c` carries
/// 1 byte/us (1000 us per frame) unless `slow` says otherwise.
struct SwitchFixture : NetFixture {
  SinkNode a{"a"};
  SinkNode b{"b"};
  SinkNode c{"c"};
  net::SwitchNode sw{"sw"};
  net::Link* egress{nullptr};

  explicit SwitchFixture(const LinkConfig& slow = {.bandwidth_bps = 8'000'000.0}) {
    for (net::Node* n : std::initializer_list<net::Node*>{&a, &b, &c, &sw}) network.attach(*n);
    LinkConfig access;
    access.bandwidth_bps = 80'000'000.0;
    network.connect(a, sw, access);
    network.connect(b, sw, access);
    egress = &network.connect(c, sw, slow);
  }

  static TimePoint at_us(std::int64_t us) { return TimePoint::origin() + Duration::micros(us); }
};

struct SwitchQueueFixture : SwitchFixture {
  SwitchQueueFixture() : SwitchFixture{{.bandwidth_bps = 8'000'000.0, .queue_limit_packets = 2}} {}
};

TEST_F(SwitchQueueFixture, TwoSendersShareOneEgressQueueInOfferOrder) {
  // t = 0: a sends a1, a2 and b sends b1, b2. The switch receives a1, b1 at
  // 105 us and a2, b2 at 205 us, and offers each 10 us later.
  //   a1: offered 115, serializes 115..1115, delivered 1120.
  //   b1: offered 115 behind a1 (1 frame ahead), 1115..2115, delivered 2120.
  //   a2, b2: offered 215 with a1 and b1 ahead: the 2-frame queue is full.
  // t = 1000 us: a sends a3 and b sends b3; both reach the switch at 1105.
  //   a3: offered 1115, the instant a1 ends, so only b1 is ahead; it
  //       serializes 2115..3115 and is delivered at 3120. (At 1105, when it
  //       reached the switch, a1 was still serializing: the count is taken
  //       at the offer time.)
  //   b3: offered 1115 with b1 and a3 ahead: dropped.
  a.transmit_to(c.id(), 1000);
  a.transmit_to(c.id(), 1000);
  b.transmit_to(c.id(), 1000);
  b.transmit_to(c.id(), 1000);
  simulator.schedule_at(at_us(1000), [this] {
    a.transmit_to(c.id(), 1000);
    b.transmit_to(c.id(), 1000);
  });
  simulator.run();

  ASSERT_EQ(c.received.size(), 3u);
  EXPECT_EQ(c.received[0].src, a.id());
  EXPECT_EQ(c.received[1].src, b.id());
  EXPECT_EQ(c.received[2].src, a.id());
  EXPECT_LT(c.received[0].id, c.received[2].id);
  EXPECT_EQ(c.arrival_times, (std::vector<TimePoint>{at_us(1120), at_us(2120), at_us(3120)}));
  const net::LinkDirectionStats& out = egress->stats_from(sw.id());
  EXPECT_EQ(out.dropped_queue_full, 3u);
  EXPECT_EQ(out.packets_sent, 3u);
  EXPECT_EQ(sw.forwarded(), 6u);
}

TEST_F(SwitchFixture, BacklogCountsOnlyFramesOfferedByNow) {
  // a1 reaches the switch at 105 us and is offered at 115 (serializing until
  // 1115); a2 reaches it at 205 us and is offered at 215.
  a.transmit_to(c.id(), 1000);
  a.transmit_to(c.id(), 1000);
  simulator.run_until(at_us(205));  // a2 has just reached the switch
  EXPECT_EQ(egress->backlog_from(sw.id()), 1u);
  simulator.run_until(at_us(214));
  EXPECT_EQ(egress->backlog_from(sw.id()), 1u);
  simulator.run_until(at_us(215));
  EXPECT_EQ(egress->backlog_from(sw.id()), 2u);
  simulator.run_until(at_us(1115));  // a1 done; a2 serializes until 2115
  EXPECT_EQ(egress->backlog_from(sw.id()), 1u);
  simulator.run();
  EXPECT_EQ(egress->backlog_from(sw.id()), 0u);
  ASSERT_EQ(c.arrival_times.size(), 2u);
  EXPECT_EQ(c.arrival_times[1], at_us(2120));
}

/// The frame reaches the switch at 105 us; the plan edits the egress link
/// 5 us later, before the frame's offer at 115 us.
void run_with_edit_after_switch_receive(SwitchFixture& f, const char* change) {
  const auto plan = fault::FaultPlan::parse(std::string{"@110us link client "} + change + "\n");
  fault::FaultInjector injector{f.simulator, plan, {.client_link = f.egress}};
  injector.arm();
  f.a.transmit_to(f.c.id(), 1000);
  f.simulator.run();
  EXPECT_EQ(injector.events_applied(), 1u);
}

TEST_F(SwitchFixture, BlackoutArmedInsideTheSwitchDelayAppliesToTheFrame) {
  run_with_edit_after_switch_receive(*this, "blackout=on");
  EXPECT_TRUE(c.received.empty());
  EXPECT_EQ(egress->stats_from(sw.id()).dropped_impairment, 1u);
  EXPECT_EQ(egress->stats_from(sw.id()).packets_sent, 0u);
}

TEST_F(SwitchFixture, BandwidthEditArmedInsideTheSwitchDelayAppliesToTheFrame) {
  // At 80 Mbit/s the frame serializes in 100 us, not 1000 us.
  run_with_edit_after_switch_receive(*this, "bandwidth=80000000");
  ASSERT_EQ(c.arrival_times.size(), 1u);
  EXPECT_EQ(c.arrival_times[0], at_us(115 + 100 + 5));
}

TEST_F(SwitchFixture, FrameBehindALossFreeEditKeepsItsPlace) {
  // The egress starts lossy; a1 reaches the switch at 105 us and is offered
  // at 115. The edit at 106 us makes the egress loss-free before b1 reaches
  // the switch at 108 us; b1 is offered at 118, behind a1.
  net::LinkImpairment lossy;
  lossy.loss_probability = 1e-9;
  egress->apply_impairment(lossy);
  const auto plan = fault::FaultPlan::parse("@106us link client loss=0\n");
  fault::FaultInjector injector{simulator, plan, {.client_link = egress}};
  injector.arm();
  a.transmit_to(c.id(), 1000);
  simulator.schedule_at(at_us(3), [this] { b.transmit_to(c.id(), 1000); });
  simulator.run();
  ASSERT_EQ(c.received.size(), 2u);
  EXPECT_EQ(c.received[0].src, a.id());
  EXPECT_EQ(c.arrival_times, (std::vector<TimePoint>{at_us(1120), at_us(2120)}));
}

/// Engine outputs `rng` has drawn since it was `start`; -1 past 8.
int draws_since(sim::Random start, sim::Random rng) {
  const std::uint64_t next = rng.engine()();
  for (int n = 0; n <= 8; ++n) {
    if (sim::Random probe = start; probe.engine()() == next) return n;
    (void)start.engine()();
  }
  return -1;
}

/// One 1000-byte frame from `a` to `c` over an egress link of each kind.
struct EgressRow {
  const char* name;
  LinkConfig egress;
  net::PacketKind kind;
  std::int64_t arrival_us;
  int draws;                // impairment-RNG engine outputs
  std::uint64_t events;     // kernel events of the whole run
};

/// Names the row in test listings.
void PrintTo(const EgressRow& row, std::ostream* os) { *os << row.name; }

struct SwitchEgress : SwitchFixture, ::testing::WithParamInterface<EgressRow> {
  SwitchEgress() : SwitchFixture{GetParam().egress} {}
};

TEST_P(SwitchEgress, OneEventPerHop) {
  const EgressRow& row = GetParam();
  a.transmit_to(c.id(), 1000, row.kind);
  simulator.run();
  ASSERT_EQ(c.arrival_times.size(), 1u);
  EXPECT_EQ(c.arrival_times[0], at_us(row.arrival_us));
  EXPECT_EQ(draws_since(sim::Random{7}, network.impairment_rng()), row.draws);
  EXPECT_EQ(simulator.events_processed(), row.events);
  EXPECT_EQ(egress->stats_from(sw.id()).packets_sent, 1u);
}

// Each frame is offered at 115 us. A loss draw is one engine output and a
// jitter draw two (Box-Muller). The trunk holds the RTP frame to the next
// 100 us boundary of the clock, 200 us, and its one-frame shell is 1000
// bytes again, so it arrives at 200 + 1000 + 5; the flush is the run's third
// event.
INSTANTIATE_TEST_SUITE_P(
    Rows, SwitchEgress,
    ::testing::Values(
        EgressRow{"plain", {.bandwidth_bps = 8'000'000.0}, net::PacketKind::kOther, 1120, 0, 2},
        EgressRow{"lossy",
                  {.bandwidth_bps = 8'000'000.0, .loss_probability = 1e-9},
                  net::PacketKind::kOther, 1120, 1, 2},
        EgressRow{"jittery",
                  {.bandwidth_bps = 8'000'000.0, .jitter_mean = Duration::micros(3)},
                  net::PacketKind::kOther, 1123, 2, 2},
        EgressRow{"trunked",
                  {.bandwidth_bps = 8'000'000.0, .trunk_window = Duration::micros(100)},
                  net::PacketKind::kRtp, 1205, 0, 3}));

TEST(LinkValidation, RejectsBadConfigs) {
  sim::Simulator simulator;
  net::Network network{simulator, sim::Random{1}};
  SinkNode a{"a"};
  SinkNode b{"b"};
  network.attach(a);
  network.attach(b);
  LinkConfig bad_bw;
  bad_bw.bandwidth_bps = 0.0;
  EXPECT_THROW((void)network.connect(a, b, bad_bw), std::invalid_argument);
  LinkConfig bad_q;
  bad_q.queue_limit_packets = 0;
  EXPECT_THROW((void)network.connect(a, b, bad_q), std::invalid_argument);
}

// ---- path latency: a frame's transit is the sum of its hops' waits ----------

/// Paces RTP frames and remembers each one's pacing tick by sequence number.
class PacedSource final : public net::Node {
 public:
  PacedSource() : Node{"source"} {}
  void on_receive(const Packet&) override {}
  void emit(net::NodeId dst) {
    Packet pkt;
    pkt.dst = dst;
    pkt.kind = net::PacketKind::kRtp;
    pkt.size_bytes = net::wire_size(172);
    pkt.rtp = {.ssrc = 7, .sequence = static_cast<std::uint16_t>(ticks.size())};
    ticks.push_back(network()->simulator().now());
    send(std::move(pkt));
  }
  std::vector<TimePoint> ticks;  // by sequence number
};

/// The PBX's role in Fig. 4: re-sends each RTP frame to the far end with
/// its header and accumulated path latency, as AsteriskPbx::relay_rtp does.
class Relay final : public net::Node {
 public:
  Relay() : Node{"relay"} {}
  void on_receive(const Packet& pkt) override {
    Packet out;
    out.dst = to;
    out.kind = pkt.kind;
    out.size_bytes = pkt.size_bytes;
    out.path_latency = pkt.path_latency;
    out.rtp = pkt.rtp;
    send(std::move(out));
  }
  net::NodeId to{net::kInvalidNode};
};

enum class Access { kSwitched, kWifi, kTrunked };

/// source -> [Wi-Fi cell ->] switch -> relay -> switch -> sink. Links jitter
/// and the relay's link is slow, so frames queue; three frames leave on each
/// 20 ms tick. Returns how many frames arrived, after checking each one.
std::size_t check_path_latency(Access access) {
  sim::Simulator simulator;
  net::Network network{simulator, sim::Random{11}};
  PacedSource source;
  Relay relay;
  SinkNode sink{"sink"};
  net::SwitchNode lan{"switch"};
  net::WifiCellConfig radio;
  radio.frame_error_rate = 0.0;
  net::WifiCell cell{"ap", radio};
  for (net::Node* node : std::initializer_list<net::Node*>{&source, &relay, &sink, &lan, &cell}) {
    network.attach(*node);
  }
  const LinkConfig jittery{.jitter_mean = Duration::micros(40),
                           .jitter_stddev = Duration::micros(30)};
  LinkConfig relay_link{.bandwidth_bps = 2e6, .jitter_mean = Duration::micros(40),
                        .jitter_stddev = Duration::micros(30)};
  if (access == Access::kTrunked) relay_link.trunk_window = Duration::millis(5);
  if (access == Access::kWifi) {
    network.connect(source, cell, jittery);
    cell.set_uplink(network.connect(cell, lan, jittery));
  } else {
    network.connect(source, lan, jittery);
  }
  network.connect(lan, relay, relay_link);
  network.connect(lan, sink, jittery);
  relay.to = sink.id();

  for (int tick = 0; tick < 50; ++tick) {
    simulator.schedule_at(TimePoint::origin() + Duration::micros(20'000 * tick + 3'100), [&] {
      for (int i = 0; i < 3; ++i) source.emit(relay.id());
    });
  }
  simulator.run();

  std::int64_t lo = INT64_MAX;
  std::int64_t hi = 0;
  for (std::size_t i = 0; i < sink.received.size(); ++i) {
    const Packet& pkt = sink.received[i];
    const TimePoint tick = source.ticks.at(pkt.rtp.sequence);
    EXPECT_EQ(pkt.path_latency.ns(), (sink.arrival_times[i] - tick).ns())
        << "frame " << pkt.rtp.sequence;
    lo = std::min(lo, pkt.path_latency.ns());
    hi = std::max(hi, pkt.path_latency.ns());
  }
  // The waits differ from frame to frame: queueing and jitter were exercised.
  EXPECT_GT(hi - lo, 100'000);
  return sink.received.size();
}

TEST(PathLatency, EqualsDeliveryMinusPacingTickOverSwitchedHops) {
  EXPECT_EQ(check_path_latency(Access::kSwitched), 150U);
}

TEST(PathLatency, EqualsDeliveryMinusPacingTickThroughAWifiCell) {
  EXPECT_EQ(check_path_latency(Access::kWifi), 150U);
}

TEST(PathLatency, EqualsDeliveryMinusPacingTickOverATrunkedUplink) {
  EXPECT_EQ(check_path_latency(Access::kTrunked), 150U);
}

TEST(WireSize, IncludesAllOverheads) {
  // G.711 20ms payload of 160 bytes + 12 RTP + 8 UDP + 20 IP + 18 Eth = 218.
  EXPECT_EQ(net::wire_size(172), 218u);
  EXPECT_EQ(net::kWireOverheadBytes, 46u);
}

}  // namespace
