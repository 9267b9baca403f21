#include "net/switch_node.hpp"

#include "net/link.hpp"
#include "net/network.hpp"

namespace pbxcap::net {

void SwitchNode::add_route(NodeId dst, Link& via) {
  if (!via.attaches(id())) throw std::logic_error{"SwitchNode::add_route: link not attached"};
  routes_.add_static(dst, via);
}

void SwitchNode::on_receive(const Packet& pkt) {
  if (pkt.dst == id()) return;  // addressed to the switch itself: sink it
  Link* out = routes_.lookup(*network(), id(), pkt.dst);
  if (out == nullptr) {
    ++dropped_no_route_;
    return;
  }
  forwarded_ += pkt.batch;
  out->transmit(id(), pkt);
}

}  // namespace pbxcap::net
