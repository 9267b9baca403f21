// Stand-in node for a host simulated by another shard.
//
// A sharded cluster run (exp/topology.cpp) keeps each shard's Network
// self-contained: every remote host a shard talks to is represented by a
// PortalNode in the local id space. Portals that sit on a cross-shard link
// get a Network::set_remote_sink and never receive locally; portals that
// exist only so the HostResolver has an id to hand out (the backend shards'
// view of the caller bank) are never linked at all. Either way a local
// delivery reaching on_receive indicates a wiring bug, so it is counted
// rather than silently dropped.
#pragma once

#include <cstdint>
#include <string>

#include "net/node.hpp"

namespace pbxcap::net {

class PortalNode : public Node {
 public:
  explicit PortalNode(std::string name) : Node{std::move(name)} {}

  void on_receive(const Packet& /*pkt*/) override { ++swallowed_; }

  /// Local deliveries that reached the portal (should stay zero).
  [[nodiscard]] std::uint64_t swallowed() const noexcept { return swallowed_; }

 private:
  std::uint64_t swallowed_{0};
};

}  // namespace pbxcap::net
