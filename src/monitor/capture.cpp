#include "monitor/capture.hpp"

#include <string>

namespace pbxcap::monitor {

void SipCapture::attach(net::Network& network) {
  network.add_tap(node_, [this](const net::Packet& pkt, net::NodeId from, net::NodeId to) {
    on_packet(pkt, from, to);
  });
}

void SipCapture::on_packet(const net::Packet& pkt, net::NodeId from, net::NodeId to) {
  if (pkt.kind != net::PacketKind::kSip) return;
  // Ingress: delivery whose final hop lands on the watched node.
  // Egress: first hop, leaving the watched node.
  const bool ingress = pkt.dst == node_ && to == node_;
  const bool egress = pkt.src == node_ && from == node_;
  if (!ingress && !egress) return;

  const auto* payload = pkt.payload_as<sip::SipPayload>();
  if (payload == nullptr) return;
  const sip::Message& msg = payload->msg;
  ++total_;
  if (msg.is_request()) {
    ++methods_[static_cast<std::size_t>(msg.method())];
  } else {
    const int code = msg.status_code();
    if (code >= kMinCode && code <= kMaxCode) ++codes_[static_cast<std::size_t>(code - kMinCode)];
    if (sip::is_error(code)) ++errors_;
  }
}

void SipCapture::publish(telemetry::MetricsRegistry& reg) const {
  const auto observed = [&reg](std::string type, std::uint64_t n) {
    reg.counter("pbxcap_sip_messages_observed_total", {{"type", std::move(type)}},
                "SIP messages by method/status observed at the PBX NIC")
        .add(n);
  };
  for (int code = kMinCode; code <= kMaxCode; ++code) {
    if (responses(code) != 0) observed(std::to_string(code), responses(code));
  }
  using enum sip::Method;
  for (const sip::Method m : {kAck, kBye, kCancel, kInfo, kInvite, kOptions, kRegister, kUnknown}) {
    if (requests(m) != 0) observed(std::string{to_string(m)}, requests(m));
  }
  reg.counter("pbxcap_sip_errors_observed_total", {},
              "Error responses (>= 400) observed at the PBX NIC")
      .add(errors_);
}

void RtpCapture::attach(net::Network& network) {
  network.add_tap(node_, [this](const net::Packet& pkt, net::NodeId, net::NodeId to) {
    if (pkt.kind == net::PacketKind::kRtp && pkt.dst == node_ && to == node_) {
      packets_in_ += pkt.batch;
    }
  });
}

}  // namespace pbxcap::monitor
