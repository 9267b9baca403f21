// Attachment point for anything that sends/receives packets.
#pragma once

#include <string>

#include "net/packet.hpp"

namespace pbxcap::net {

class Network;

/// A device on the network (host, PBX, switch). Subclasses implement
/// on_receive; sending goes through the owning Network.
class Node {
 public:
  explicit Node(std::string name, Duration receive_delay = Duration::zero())
      : name_{std::move(name)}, receive_delay_{receive_delay} {}
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
  virtual ~Node() = default;

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] Network* network() const noexcept { return network_; }

  /// Delivery upcall; `pkt.dst` is this node (or broadcast via a switch).
  virtual void on_receive(const Packet& pkt) = 0;

  /// Forwarding devices (switches, access points) may hold several links;
  /// plain hosts are single-homed.
  [[nodiscard]] virtual bool multihomed() const noexcept { return false; }

  /// Constant time from a packet reaching this node to its on_receive (a
  /// switch's processing step). A link adds it to every hop into the node,
  /// so paying it costs no event.
  [[nodiscard]] Duration receive_delay() const noexcept { return receive_delay_; }

 protected:
  /// Hands the packet to the attached link. No-op with a warning counter if
  /// the node is detached.
  void send(Packet pkt);

 private:
  friend class Network;
  std::string name_;
  Duration receive_delay_;
  NodeId id_{kInvalidNode};
  Network* network_{nullptr};
};

}  // namespace pbxcap::net
