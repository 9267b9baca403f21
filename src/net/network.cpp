#include "net/network.hpp"

#include "net/switch_node.hpp"
#include "net/trunk.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace pbxcap::net {

Network::Network(sim::Simulator& simulator, sim::Random impairment_rng)
    : simulator_{simulator}, rng_{impairment_rng} {}

NodeId Network::attach(Node& node) { return attach(node, static_cast<NodeId>(nodes_.size())); }

NodeId Network::attach(Node& node, NodeId id) {
  if (node.network_ != nullptr) throw std::logic_error{"Network::attach: node already attached"};
  if (id == kInvalidNode) throw std::out_of_range{"Network::attach: bad id"};
  if (attached(id)) throw std::logic_error{"Network::attach: id already taken"};
  if (id >= nodes_.size()) {
    nodes_.resize(id + 1, nullptr);
    homing_.resize(id + 1);
  }
  node.id_ = id;
  node.network_ = this;
  nodes_[id] = &node;
  return id;
}

Node& Network::node(NodeId id) const {
  if (!attached(id)) throw std::out_of_range{"Network::node: no node attached under this id"};
  return *nodes_[id];
}

std::vector<Link*> Network::links_of(NodeId node_id) const {
  std::vector<Link*> out;
  for (const auto& link : links_) {
    if (link->attaches(node_id)) out.push_back(link.get());
  }
  return out;
}

Link& Network::connect(Node& a, Node& b, const LinkConfig& config) {
  if (a.network_ != this || b.network_ != this) {
    throw std::logic_error{"Network::connect: attach both nodes first"};
  }
  for (const Node* n : {static_cast<const Node*>(&a), static_cast<const Node*>(&b)}) {
    if (!n->multihomed() && homing_[n->id()].links != 0) {
      throw std::logic_error{"Network::connect: host '" + n->name() + "' is already linked"};
    }
  }
  links_.push_back(std::make_unique<Link>(*this, a.id(), b.id(), config));
  Link* link = links_.back().get();
  for (const NodeId id : {a.id(), b.id()}) {
    Homing& homing = homing_[id];
    if (homing.first == nullptr) homing.first = link;
    ++homing.links;
    if (a.id() == b.id()) break;  // a loop is one link of its node
  }
  return *link;
}

void Network::send_from(NodeId src_node, Packet pkt) {
  const Homing homing = src_node < homing_.size() ? homing_[src_node] : Homing{};
  if (homing.links == 0) {
    util::log_warn("net", util::format("node %u sent a packet while detached", src_node));
    return;
  }
  if (homing.links > 1) {
    throw std::logic_error{"Network::send_from: multihomed node must transmit on a chosen link"};
  }
  homing.first->transmit(src_node, std::move(pkt));
}

void Network::set_remote_sink(NodeId node, RemoteSink sink) {
  if (!attached(node)) throw std::out_of_range{"Network::set_remote_sink: bad id"};
  if (remote_.size() <= node) remote_.resize(nodes_.size());
  remote_[node] = std::move(sink);
}

void Network::add_tap(NodeId node, PacketTap tap) {
  if (!attached(node)) throw std::out_of_range{"Network::add_tap: bad id"};
  if (node_taps_.size() <= node) node_taps_.resize(node + 1);
  node_taps_[node].push_back(std::move(tap));
}

void Network::fire_taps(const Packet& pkt, NodeId from, NodeId to) const {
  for (const auto& tap : taps_) tap(pkt, from, to);
  if (from < node_taps_.size()) {
    for (const auto& tap : node_taps_[from]) tap(pkt, from, to);
  }
  if (to != from && to < node_taps_.size()) {
    for (const auto& tap : node_taps_[to]) tap(pkt, from, to);
  }
}

void Network::deliver_remote(Packet&& pkt, NodeId from, NodeId to, TimePoint deliver_at) {
  fire_taps(pkt, from, to);
  remote_[to](std::move(pkt), from, deliver_at);
}

void Network::deliver(const Packet& pkt, NodeId from, NodeId to) {
  // Trunk shells are framing for one link hop, not application traffic:
  // unwrap here and re-deliver the aggregated media individually, so the
  // receiving node (endpoint, or a switch re-routing each frame by its own
  // dst) and the kind-filtered captures see exactly the packets a
  // non-trunked link would have delivered. Taps still observe the shell —
  // that is what a wire sniffer on the trunked segment would record.
  if (pkt.kind == PacketKind::kTrunk) {
    if (const auto* trunk = pkt.payload_as<TrunkPayload>()) {
      fire_taps(pkt, from, to);
      for (const Packet& inner : trunk->frames) deliver(inner, from, to);
      return;
    }
  }
  delivered_ += pkt.batch;
  fire_taps(pkt, from, to);
  node(to).on_receive(pkt);
}

void Node::send(Packet pkt) {
  if (network_ == nullptr) {
    util::log_warn("net", "send on detached node '" + name_ + "'");
    return;
  }
  pkt.src = id_;
  if (pkt.id == 0) pkt.id = network_->next_packet_id();
  network_->send_from(id_, std::move(pkt));
}

}  // namespace pbxcap::net
