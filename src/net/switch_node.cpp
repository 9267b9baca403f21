#include "net/switch_node.hpp"

#include "net/link.hpp"
#include "net/network.hpp"

namespace pbxcap::net {

void SwitchNode::add_route(NodeId dst, Link& via) {
  if (!via.attaches(id())) throw std::logic_error{"SwitchNode::add_route: link not attached"};
  static_routes_[dst] = &via;
}

Link* SwitchNode::route_for(NodeId dst) {
  if (const auto it = learned_.find(dst); it != learned_.end()) return it->second;
  if (const auto it = static_routes_.find(dst); it != static_routes_.end()) {
    learned_.emplace(dst, it->second);
    return it->second;
  }
  for (Link* link : network()->links_of(id())) {
    if (link->peer_of(id()) == dst) {
      learned_.emplace(dst, link);
      return link;
    }
  }
  return nullptr;
}

void SwitchNode::on_receive(const Packet& pkt) {
  if (pkt.dst == id()) return;  // addressed to the switch itself: sink it
  Link* out = route_for(pkt.dst);
  if (out == nullptr) {
    ++dropped_no_route_;
    return;
  }
  forwarded_ += pkt.batch;
  if (pkt.fluid) {
    // Fluid batch: forward inline on the flush call stack; the per-packet
    // processing latency folds into the batch's nominal path latency.
    Packet batched = pkt;
    batched.path_latency += processing_delay_;
    out->transmit(id(), std::move(batched));
    return;
  }
  out->forward(id(), pkt, processing_delay_);
}

}  // namespace pbxcap::net
