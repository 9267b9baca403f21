// Next-hop table of a forwarding node (switch, access point).
//
// A destination resolves to a static route if one names it, else to the
// attached link whose far end it is. The answer is cached in a vector
// indexed by NodeId (ids are dense per network), so every later frame to
// that destination costs one bounds check and one load: no hashing on the
// per-packet path.
#pragma once

#include <unordered_map>
#include <vector>

#include "net/packet.hpp"

namespace pbxcap::net {

class Link;
class Network;

class RouteTable {
 public:
  /// Routes `dst` over `via` when no attached link reaches it directly.
  void add_static(NodeId dst, Link& via) { static_routes_[dst] = &via; }

  /// Next hop from node `self` towards `dst`, or nullptr if none is known.
  [[nodiscard]] Link* lookup(const Network& network, NodeId self, NodeId dst) {
    if (dst < learned_.size() && learned_[dst] != nullptr) return learned_[dst];
    return resolve(network, self, dst);
  }

 private:
  Link* resolve(const Network& network, NodeId self, NodeId dst);

  std::unordered_map<NodeId, Link*> static_routes_;  // consulted on a cache miss only
  std::vector<Link*> learned_;                       // by NodeId; null where unresolved
};

}  // namespace pbxcap::net
