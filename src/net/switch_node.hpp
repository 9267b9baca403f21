// Store-and-forward Ethernet switch (the "Switch 10/100Mbps" of Fig. 4).
//
// Forwards by destination node id across its attached links after a small
// per-packet processing latency. All hosts in the paper's testbed hang off a
// single switch, so a directly-attached lookup suffices; static routes allow
// multi-switch topologies if an experiment needs them. Either way a
// destination resolves once and then costs a vector load (RouteTable).
//
// The processing step is the switch's receive delay (Node::receive_delay):
// the link into the switch adds it to the hop's delivery, so on_receive runs
// when the step ends and transmits on the egress link at once. A relayed RTP
// packet costs 5 kernel events on any link: its pacing tick and one delivery
// per hop.
#pragma once

#include <cstdint>

#include "net/node.hpp"
#include "net/route_table.hpp"
#include "util/time.hpp"

namespace pbxcap::net {

class SwitchNode : public Node {
 public:
  /// Store-and-forward time from receiving a frame to offering it on egress.
  static constexpr Duration kProcessingDelay = Duration::micros(10);

  explicit SwitchNode(std::string name) : Node{std::move(name), kProcessingDelay} {}

  void on_receive(const Packet& pkt) override;
  [[nodiscard]] bool multihomed() const noexcept override { return true; }

  /// Static route for destinations not directly attached.
  void add_route(NodeId dst, Link& via);

  [[nodiscard]] std::uint64_t forwarded() const noexcept { return forwarded_; }
  [[nodiscard]] std::uint64_t dropped_no_route() const noexcept { return dropped_no_route_; }

 private:
  RouteTable routes_;
  std::uint64_t forwarded_{0};
  std::uint64_t dropped_no_route_{0};
};

}  // namespace pbxcap::net
