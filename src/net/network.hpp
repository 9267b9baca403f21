// Network fabric: owns nodes, links, and the packet-level event plumbing.
//
// One Network per simulator (one per shard of a sharded run). It wires
// Node::send to the attached Link, delivers packets through the Simulator,
// and exposes a tap interface so the monitor module can observe deliveries
// (the Wireshark substitute): on the whole network, or only on the hops into
// and out of one node.
//
// Node ids are one space across shards. A one-shard run numbers its nodes
// densely from 0. A backend shard attaches each of its nodes under the id
// the hub's network gave that host, so a packet's src and dst mean the same
// host in every shard and cross a boundary unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace pbxcap::net {

/// Observation hook fired on every link delivery (post-impairment).
/// `from`/`to` are the link endpoints of the hop, not the end-to-end pair.
using PacketTap = std::function<void(const Packet& pkt, NodeId from, NodeId to)>;

/// Cross-shard egress hook. A node with a remote sink is a *portal*: it
/// stands in for a host simulated by another shard, under that host's id.
/// Packets a Link would deliver to it are handed to the sink at transmit
/// time together with the computed delivery timestamp, and become
/// timestamped messages for the destination shard (see sim/shard.hpp)
/// instead of local simulator events.
using RemoteSink = std::function<void(Packet&& pkt, NodeId from, TimePoint deliver_at)>;

class Network {
 public:
  Network(sim::Simulator& simulator, sim::Random impairment_rng);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers a node under the next id past the highest one in use; the
  /// Network does not own it. Returns its id.
  NodeId attach(Node& node);
  /// Registers a node under `id`, the id another shard's network already
  /// gave the host it stands for, so a packet keeps its src and dst across
  /// the boundary. Ids left unused in between stay empty. Throws if `id` is
  /// taken.
  NodeId attach(Node& node, NodeId id);

  /// Creates a link between two attached nodes. Non-switch nodes may have at
  /// most one link (hosts in Fig. 4 are single-homed).
  Link& connect(Node& a, Node& b, const LinkConfig& config = {});

  /// Sends from `src_node` over its attached link (host side) — called by
  /// Node::send. Switches transmit on explicit links instead.
  void send_from(NodeId src_node, Packet pkt);

  /// Delivery: invoked by Link when a packet reaches a node.
  void deliver(const Packet& pkt, NodeId from, NodeId to);

  /// Whole-network tap: fires on every hop.
  void add_tap(PacketTap tap) { taps_.push_back(std::move(tap)); }
  /// Node tap: fires only on hops into or out of `node` (`from` or `to` is
  /// `node`), the way a capture on that host's NIC sees the traffic.
  void add_tap(NodeId node, PacketTap tap);

  /// Marks `node` as a cross-shard portal: deliveries addressed to it leave
  /// this shard through `sink` instead of the local event loop. The node
  /// must already be attached.
  void set_remote_sink(NodeId node, RemoteSink sink);
  [[nodiscard]] bool is_remote(NodeId node) const noexcept {
    return node < remote_.size() && remote_[node] != nullptr;
  }
  /// Cross-shard hand-off: fires the taps (so egress captures at `from` see
  /// the hop exactly as a local delivery would show it) and invokes the
  /// portal's sink. Called by Link in place of scheduling a local delivery.
  void deliver_remote(Packet&& pkt, NodeId from, NodeId to, TimePoint deliver_at);

  [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }
  [[nodiscard]] sim::Random& impairment_rng() noexcept { return rng_; }

  /// Throws on an id no node is attached under.
  [[nodiscard]] Node& node(NodeId id) const;
  [[nodiscard]] const std::vector<std::unique_ptr<Link>>& links() const noexcept { return links_; }
  /// Links attached to `node_id`.
  [[nodiscard]] std::vector<Link*> links_of(NodeId node_id) const;

  [[nodiscard]] std::uint64_t next_packet_id() noexcept { return next_packet_id_++; }
  [[nodiscard]] std::uint64_t packets_delivered() const noexcept { return delivered_; }

 private:
  void fire_taps(const Packet& pkt, NodeId from, NodeId to) const;
  [[nodiscard]] bool attached(NodeId id) const noexcept {
    return id < nodes_.size() && nodes_[id] != nullptr;
  }

  sim::Simulator& simulator_;
  sim::Random rng_;
  std::vector<Node*> nodes_;  // indexed by NodeId; null where no node is attached
  std::vector<std::unique_ptr<Link>> links_;
  // Per node (indexed by NodeId): its first link and how many it has, so a
  // host's send is one lookup, not a scan of every link.
  struct Homing {
    Link* first{nullptr};
    std::uint32_t links{0};
  };
  std::vector<Homing> homing_;
  std::vector<PacketTap> taps_;
  std::vector<std::vector<PacketTap>> node_taps_;  // indexed by NodeId; short when untapped
  std::vector<RemoteSink> remote_;  // indexed by NodeId; empty when unsharded
  std::uint64_t next_packet_id_{1};
  std::uint64_t delivered_{0};
};

}  // namespace pbxcap::net
