// Store-and-forward Ethernet switch (the "Switch 10/100Mbps" of Fig. 4).
//
// Forwards by destination node id across its attached links after a small
// per-packet processing latency. All hosts in the paper's testbed hang off a
// single switch, so a directly-attached lookup suffices; static routes allow
// multi-switch topologies if an experiment needs them.
//
// The processing step is folded into the egress link (Link::forward): a
// per-packet frame received at `now` is queued on its egress direction at
// once, with offer time now + d, and the switch schedules no event. A relayed
// RTP packet then costs 5 kernel events (its pacing tick and one delivery per
// hop) instead of 7. The fold is exact. Only the switch transmits on its
// egress directions, and d is constant, so every frame that could start
// before now + d is already queued, in offer order: the drop-tail count at
// the offer time, the start time and the delivery time are the ones the
// step would have computed. Three cases keep the scheduled step, which then
// offers the frame at its own time through Link::transmit:
//   - the egress link has a trunk window: trunk flushes follow the clock's
//     grid, not the offer order;
//   - the egress link has loss or jitter: the impairment RNG is shared by
//     the whole network, and its draws must not move earlier in event order;
//   - an impairment edit is announced on that link (FaultInjector::arm) at or
//     before the offer time: the edit must apply to the frame as it would at
//     the step. While a step is pending on a direction, later frames of that
//     direction take steps too, so the offer order never changes.
// Link statistics count a folded frame from its arrival at the switch, not
// from its offer d later; backlog_from() counts it from its offer time.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "net/node.hpp"
#include "util/time.hpp"

namespace pbxcap::net {

class Link;

class SwitchNode : public Node {
 public:
  explicit SwitchNode(std::string name, Duration processing_delay = Duration::micros(10))
      : Node{std::move(name)}, processing_delay_{processing_delay} {}

  void on_receive(const Packet& pkt) override;
  [[nodiscard]] bool multihomed() const noexcept override { return true; }

  /// Static route for destinations not directly attached.
  void add_route(NodeId dst, Link& via);

  [[nodiscard]] std::uint64_t forwarded() const noexcept { return forwarded_; }
  [[nodiscard]] std::uint64_t dropped_no_route() const noexcept { return dropped_no_route_; }

 private:
  [[nodiscard]] Link* route_for(NodeId dst);

  Duration processing_delay_;
  std::unordered_map<NodeId, Link*> static_routes_;
  std::unordered_map<NodeId, Link*> learned_;  // cache of attached-peer lookups
  std::uint64_t forwarded_{0};
  std::uint64_t dropped_no_route_{0};
};

}  // namespace pbxcap::net
