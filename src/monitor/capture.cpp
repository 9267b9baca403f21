#include "monitor/capture.hpp"

#include <algorithm>
#include <charconv>
#include <numeric>

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

void SipCapture::for_each_type(
    const std::function<void(std::string_view, std::uint64_t)>& fn) const {
  for (int code = kMinCode; code <= kMaxCode; ++code) {
    const std::uint64_t n = responses(code);
    if (n == 0) continue;
    char text[4];
    const auto end = std::to_chars(text, text + sizeof text, code).ptr;
    fn(std::string_view{text, static_cast<std::size_t>(end - text)}, n);
  }
  std::array<std::size_t, kMethods> order{};
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [](std::size_t a, std::size_t b) {
    return to_string(static_cast<sip::Method>(a)) < to_string(static_cast<sip::Method>(b));
  });
  for (const std::size_t m : order) {
    if (methods_[m] != 0) fn(to_string(static_cast<sip::Method>(m)), methods_[m]);
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
