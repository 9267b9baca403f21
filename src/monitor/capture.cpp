#include "monitor/capture.hpp"

#include <charconv>
#include <string_view>

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
    counters_.increment(to_string(msg.method()));
  } else {
    // The key is the decimal status code, formatted on the stack.
    char code[12];
    const auto end = std::to_chars(code, code + sizeof code, msg.status_code()).ptr;
    counters_.increment(std::string_view{code, static_cast<std::size_t>(end - code)});
    if (sip::is_error(msg.status_code())) ++errors_;
  }
}

void RtpCapture::attach(net::Network& network) {
  network.add_tap(node_, [this](const net::Packet& pkt, net::NodeId, net::NodeId to) {
    if (pkt.kind == net::PacketKind::kRtp && pkt.dst == node_ && to == node_) {
      packets_in_ += pkt.batch;
    }
  });
}

}  // namespace pbxcap::monitor
