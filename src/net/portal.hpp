// Stand-in node for a host simulated by another shard.
//
// A sharded cluster run (exp/topology.cpp) splits each uplink into two
// half-links, one per shard. A PortalNode is the far end of a half-link: it
// is attached under the id of the host it stands for (Network::attach(Node&,
// NodeId)) and carries a Network::set_remote_sink, so packets addressed to
// it leave for that host's shard unchanged and it never receives locally. It
// takes the receive delay of the host it stands for, so the delivery time
// handed across is the one that host's own link would compute. A local
// delivery reaching on_receive indicates a wiring bug, so it is counted
// rather than silently dropped.
#pragma once

#include <cstdint>
#include <string>

#include "net/node.hpp"

namespace pbxcap::net {

class PortalNode : public Node {
 public:
  explicit PortalNode(std::string name, Duration receive_delay = Duration::zero())
      : Node{std::move(name), receive_delay} {}

  void on_receive(const Packet& /*pkt*/) override { ++swallowed_; }

  /// Local deliveries that reached the portal (should stay zero).
  [[nodiscard]] std::uint64_t swallowed() const noexcept { return swallowed_; }

 private:
  std::uint64_t swallowed_{0};
};

}  // namespace pbxcap::net
