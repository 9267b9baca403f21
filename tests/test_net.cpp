// Unit tests for the network fabric: links, queues, switch forwarding.
#include <gtest/gtest.h>

#include <initializer_list>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "net/link.hpp"
#include "net/network.hpp"
#include "net/node.hpp"
#include "net/portal.hpp"
#include "net/switch_node.hpp"
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
  EXPECT_THROW(network.add_tap(1, [](const Packet&, net::NodeId, net::NodeId) {}),
               std::out_of_range);
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
  network.add_tap(7, [&hops](const Packet&, net::NodeId from, net::NodeId to) {
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

TEST_F(NetFixture, NodeTapSeesExactlyTheHopsIntoAndOutOfItsNode) {
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

  using Hop = std::tuple<std::uint64_t, net::NodeId, net::NodeId>;
  std::vector<Hop> all;
  network.add_tap([&](const Packet& pkt, net::NodeId from, net::NodeId to) {
    all.emplace_back(pkt.id, from, to);
  });
  const std::vector<net::NodeId> watched{a.id(), sw.id(), portal.id()};
  std::vector<std::vector<Hop>> seen(watched.size());
  for (std::size_t i = 0; i < watched.size(); ++i) {
    network.add_tap(watched[i], [&seen, i](const Packet& pkt, net::NodeId from, net::NodeId to) {
      seen[i].emplace_back(pkt.id, from, to);
    });
  }

  a.transmit_to(b.id(), 100);
  b.transmit_to(c.id(), 100);
  c.transmit_to(a.id(), 100);
  a.transmit_to(portal.id(), 100);
  b.transmit_to(portal.id(), 100);
  simulator.run();

  ASSERT_EQ(all.size(), 10u);  // two hops per packet, the last one remote for two
  EXPECT_EQ(remote, 2);
  for (std::size_t i = 0; i < watched.size(); ++i) {
    std::vector<Hop> expected;
    for (const Hop& hop : all) {
      if (std::get<1>(hop) == watched[i] || std::get<2>(hop) == watched[i]) {
        expected.push_back(hop);
      }
    }
    EXPECT_EQ(seen[i], expected) << "node " << watched[i];
  }
  EXPECT_EQ(seen[0].size(), 3u);   // a -> sw twice, sw -> a once
  EXPECT_EQ(seen[1].size(), 10u);  // every hop crosses the switch
  EXPECT_EQ(seen[2].size(), 2u);
  EXPECT_THROW(network.add_tap(net::NodeId{99}, [](const Packet&, net::NodeId, net::NodeId) {}),
               std::out_of_range);
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
// applies. The step is folded into the egress link where that is exact
// (Link::forward); none of these values may move with it.

/// Hosts `a` and `b` (and `c`, the sink) on a switch. Access links carry
/// 10 bytes/us, so a 1000-byte frame reaches the switch 105 us after it is
/// sent; the egress link to `c` carries 1 byte/us (1000 us per frame).
struct SwitchFixture : NetFixture {
  SinkNode a{"a"};
  SinkNode b{"b"};
  SinkNode c{"c"};
  net::SwitchNode sw{"sw"};
  net::Link* egress{nullptr};

  explicit SwitchFixture(std::uint32_t egress_queue_limit = 256) {
    for (net::Node* n : std::initializer_list<net::Node*>{&a, &b, &c, &sw}) network.attach(*n);
    LinkConfig access;
    access.bandwidth_bps = 80'000'000.0;
    network.connect(a, sw, access);
    network.connect(b, sw, access);
    LinkConfig slow;
    slow.bandwidth_bps = 8'000'000.0;
    slow.queue_limit_packets = egress_queue_limit;
    egress = &network.connect(c, sw, slow);
  }

  static TimePoint at_us(std::int64_t us) { return TimePoint::origin() + Duration::micros(us); }
};

struct SwitchQueueFixture : SwitchFixture {
  SwitchQueueFixture() : SwitchFixture{2} {}
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

TEST_F(SwitchFixture, FrameBehindAPendingStepKeepsItsPlace) {
  // The egress starts lossy, so a1 (at the switch at 105 us) takes the step
  // and is offered at 115. The edit at 106 us makes the egress loss-free
  // before b1 reaches the switch at 108 us; b1 is offered at 118, behind a1.
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

TEST_F(SwitchFixture, FoldedHopSchedulesNoSwitchEvent) {
  a.transmit_to(c.id(), 1000);
  simulator.run();
  ASSERT_EQ(c.arrival_times.size(), 1u);
  EXPECT_EQ(c.arrival_times[0], at_us(1120));
  EXPECT_EQ(simulator.events_processed(), 2u);  // the two deliveries
}

TEST_F(SwitchFixture, LossyEgressKeepsTheSwitchStep) {
  net::LinkImpairment lossy;
  lossy.loss_probability = 1e-9;  // draws from the shared RNG, loses nothing here
  egress->apply_impairment(lossy);
  a.transmit_to(c.id(), 1000);
  simulator.run();
  ASSERT_EQ(c.received.size(), 1u);
  EXPECT_EQ(simulator.events_processed(), 3u);  // delivery, step, delivery
}

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

TEST(WireSize, IncludesAllOverheads) {
  // G.711 20ms payload of 160 bytes + 12 RTP + 8 UDP + 20 IP + 18 Eth = 218.
  EXPECT_EQ(net::wire_size(172), 218u);
  EXPECT_EQ(net::kWireOverheadBytes, 46u);
}

}  // namespace
