#include "net/route_table.hpp"

#include "net/link.hpp"
#include "net/network.hpp"

namespace pbxcap::net {

Link* RouteTable::resolve(const Network& network, NodeId self, NodeId dst) {
  Link* via = nullptr;
  if (const auto it = static_routes_.find(dst); it != static_routes_.end()) {
    via = it->second;
  } else {
    for (Link* link : network.links_of(self)) {
      if (link->peer_of(self) == dst) {
        via = link;
        break;
      }
    }
  }
  // Only ids a node is attached under are cached, which bounds the vector
  // by the network's id space.
  if (via != nullptr && network.attached(dst)) {
    if (dst >= learned_.size()) learned_.resize(dst + 1, nullptr);
    learned_[dst] = via;
  }
  return via;
}

}  // namespace pbxcap::net
