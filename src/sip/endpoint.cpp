#include "sip/endpoint.hpp"

#include <stdexcept>

#include "util/log.hpp"
#include "util/strings.hpp"

namespace pbxcap::sip {

SipEndpoint::SipEndpoint(std::string node_name, std::string host, sim::Simulator& simulator,
                         HostResolver& resolver)
    : net::Node{std::move(node_name)},
      host_{std::move(host)},
      resolver_{resolver},
      layer_{simulator, *this, host_} {}

void SipEndpoint::bind() {
  if (network() == nullptr) throw std::logic_error{"SipEndpoint::bind: attach to a network first"};
  resolver_.add(host_, id());
}

void SipEndpoint::set_telemetry(telemetry::Telemetry* tel) { layer_.set_telemetry(tel); }

void SipEndpoint::publish(telemetry::MetricsRegistry& reg) const {
  layer_.publish(reg);
  reg.counter("pbxcap_sip_messages_total", {{"host", host_}, {"direction", "tx"}},
              "SIP messages sent/received at each endpoint")
      .add(sent_);
  reg.counter("pbxcap_sip_messages_total", {{"host", host_}, {"direction", "rx"}}).add(received_);
}

std::string SipEndpoint::new_tag() {
  // "<host>-tag<n>": host + 4 + at most 20 digits.
  std::string tag;
  tag.reserve(host_.size() + 24);
  tag += host_;
  tag += "-tag";
  util::append_uint(tag, ++tag_counter_);
  return tag;
}

void SipEndpoint::send_sip(std::shared_ptr<const SipPayload> payload, net::NodeId dst) {
  if (dst == net::kInvalidNode) {
    util::log_warn("sip", "dropping message to unresolved destination");
    return;
  }
  ++sent_;
  net::Packet pkt;
  pkt.dst = dst;
  pkt.kind = net::PacketKind::kSip;
  pkt.size_bytes = net::wire_size(payload->wire_bytes);
  pkt.payload = std::move(payload);
  send(std::move(pkt));
}

void SipEndpoint::on_receive(const net::Packet& pkt) {
  if (pkt.kind != net::PacketKind::kSip) return;
  const auto* payload = pkt.payload_as<SipPayload>();
  if (payload == nullptr) {
    util::log_warn("sip", "SIP packet without SipPayload");
    return;
  }
  ++received_;
  layer_.on_message(std::static_pointer_cast<const SipPayload>(pkt.payload), pkt.src);
}

ClientTransaction& SipEndpoint::send_request_to(Message msg, net::NodeId dst,
                                                ClientTransaction::ResponseHandler on_response,
                                                ClientTransaction::TimeoutHandler on_timeout) {
  if (dst == net::kInvalidNode) {
    throw std::invalid_argument{"send_request_to: unresolved peer for " +
                                msg.request_uri().to_string()};
  }
  msg.vias().insert(msg.vias().begin(), Via{host_, layer_.new_branch()});
  return layer_.send_request(std::move(msg), dst, std::move(on_response), std::move(on_timeout));
}

void SipEndpoint::send_stateless_to(Message msg, net::NodeId dst) {
  if (dst == net::kInvalidNode) {
    util::log_warn("sip", "send_stateless_to: unresolved peer for " +
                              msg.request_uri().to_string());
    return;
  }
  msg.vias().insert(msg.vias().begin(), Via{host_, layer_.new_branch()});
  layer_.send_stateless(std::move(msg), dst);
}

}  // namespace pbxcap::sip
