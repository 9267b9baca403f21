// SIP endpoint: binds a TransactionLayer to a network Node.
//
// Everything that speaks SIP in the testbed (the SIPp-like caller/receiver
// hosts and the Asterisk-like PBX) derives from SipEndpoint, which handles
// wire encapsulation, name resolution, and transaction dispatch.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "net/network.hpp"
#include "net/node.hpp"
#include "sip/message.hpp"
#include "sip/transaction.hpp"

namespace pbxcap::sip {

/// Maps SIP host names to network node ids (the testbed's stand-in for DNS).
class HostResolver {
 public:
  void add(const std::string& host, net::NodeId id) { hosts_[host] = id; }

  [[nodiscard]] net::NodeId resolve(const std::string& host) const {
    const auto it = hosts_.find(host);
    return it == hosts_.end() ? net::kInvalidNode : it->second;
  }

 private:
  std::unordered_map<std::string, net::NodeId> hosts_;
};

class SipEndpoint : public net::Node, public Transport {
 public:
  /// `host` is the endpoint's SIP-layer name, e.g. "pbx.unb.br"; register it
  /// with the resolver after attaching to the network (see bind()).
  SipEndpoint(std::string node_name, std::string host, sim::Simulator& simulator,
              HostResolver& resolver);

  /// Call after Network::attach: registers host->node-id in the resolver.
  void bind();

  // Transport: puts the payload into a SIP packet and sends it.
  // Overridable so derived endpoints can account per-message costs.
  void send_sip(std::shared_ptr<const SipPayload> payload, net::NodeId dst) override;

  // net::Node: unwraps SIP packets into the transaction layer.
  void on_receive(const net::Packet& pkt) override;

  [[nodiscard]] TransactionLayer& transactions() noexcept { return layer_; }
  [[nodiscard]] const TransactionLayer& transactions() const noexcept { return layer_; }
  [[nodiscard]] const std::string& sip_host() const noexcept { return host_; }
  [[nodiscard]] HostResolver& resolver() noexcept { return resolver_; }

  /// Wires `tel`'s span tracer into this endpoint and its transaction
  /// layer; nullptr records no spans. Derived endpoints extend this to wire
  /// their own spans and must call the base implementation.
  virtual void set_telemetry(telemetry::Telemetry* tel);

  /// Registers this endpoint's metrics in `reg` and fills them from its own
  /// counters: the transaction layer's rows, then the SIP message census.
  /// Call once, after the run. Derived endpoints append their rows and must
  /// call the base implementation first.
  virtual void publish(telemetry::MetricsRegistry& reg) const;

  [[nodiscard]] std::uint64_t sip_messages_sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t sip_messages_received() const noexcept { return received_; }

  /// Allocates a locally unique tag for From/To headers.
  [[nodiscard]] std::string new_tag();

 protected:
  /// Sends a request through a new client transaction to `dst`, a peer the
  /// TU resolved once per call (resolver().resolve). Adds the top Via (this
  /// host, fresh branch) before handing to the layer. Throws
  /// std::invalid_argument for an unresolved peer (net::kInvalidNode).
  ClientTransaction& send_request_to(Message msg, net::NodeId dst,
                                     ClientTransaction::ResponseHandler on_response,
                                     ClientTransaction::TimeoutHandler on_timeout = {});

  /// Stateless send (2xx ACKs) with Via stamping. An unresolved peer is
  /// logged and nothing is sent.
  void send_stateless_to(Message msg, net::NodeId dst);

 private:
  std::string host_;
  HostResolver& resolver_;
  TransactionLayer layer_;
  std::uint64_t sent_{0};
  std::uint64_t received_{0};
  std::uint64_t tag_counter_{0};
};

}  // namespace pbxcap::sip
