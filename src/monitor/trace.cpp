#include "monitor/trace.hpp"

#include <sstream>

#include "rtp/packet.hpp"
#include "sip/message.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace pbxcap::monitor {
namespace {

std::string summarize(const net::Packet& pkt, std::string& call_id_out) {
  if (const auto* sip = pkt.payload_as<sip::SipPayload>()) {
    call_id_out = sip->msg.call_id();
    if (sip->msg.is_request()) {
      return std::string{to_string(sip->msg.method())} + " " +
             sip->msg.request_uri().to_string();
    }
    return util::format("%d %.*s", sip->msg.status_code(),
                        static_cast<int>(sip->msg.reason().size()), sip->msg.reason().data());
  }
  if (pkt.kind == net::PacketKind::kRtp && !pkt.fluid) {
    return util::format("RTP ssrc=%u seq=%u", pkt.rtp.ssrc, pkt.rtp.sequence);
  }
  return std::string{to_string(pkt.kind)};
}

}  // namespace

void PacketTrace::attach(net::Network& network, bool sip_only) {
  net::Network* net_ptr = &network;  // valid for the network's lifetime only
  network.add_tap(
      [this, sip_only, net_ptr](const net::Packet& pkt, net::NodeId from, net::NodeId to) {
        if (to != pkt.dst) return;  // record final-hop deliveries only
        if (sip_only && pkt.kind != net::PacketKind::kSip) return;
        TraceEvent event;
        event.at = net_ptr->simulator().now();
        event.packet_id = pkt.id;
        event.kind = pkt.kind;
        event.src = pkt.src;
        event.dst = pkt.dst;
        event.hop_from = from;
        event.hop_to = to;
        event.size_bytes = pkt.size_bytes;
        event.src_name = net_ptr->node(pkt.src).name();
        event.dst_name = net_ptr->node(pkt.dst).name();
        event.summary = summarize(pkt, event.call_id);
        record(std::move(event));
      });
}

void PacketTrace::record(TraceEvent event) {
  if (max_events_ == 0) {
    ++dropped_;
    return;
  }
  if (ring_.size() < max_events_) {
    ring_.push_back(std::move(event));
    return;
  }
  // Full: overwrite the oldest slot and advance the ring head.
  ring_[head_] = std::move(event);
  head_ = (head_ + 1) % ring_.size();
  ++dropped_;
}

std::vector<TraceEvent> PacketTrace::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for_each([&out](const TraceEvent& e) { out.push_back(e); });
  return out;
}

std::string PacketTrace::to_csv() const {
  util::TextTable table{{"time_s", "id", "kind", "src", "dst", "bytes", "summary", "call_id"}};
  for_each([&table](const TraceEvent& e) {
    table.add_row({util::format("%.6f", e.at.to_seconds()),
                   util::format("%llu", (unsigned long long)e.packet_id),
                   std::string{to_string(e.kind)}, e.src_name, e.dst_name,
                   util::format("%u", e.size_bytes), e.summary, e.call_id});
  });
  return table.to_csv();
}

std::string PacketTrace::sip_ladder(const std::string& call_id_fragment) const {
  std::ostringstream os;
  for_each([&os, &call_id_fragment](const TraceEvent& e) {
    if (e.kind != net::PacketKind::kSip) return;
    if (e.call_id.find(call_id_fragment) == std::string::npos) return;
    os << util::format("%10.4fs  %-12s ---[ %-28s ]--> %s\n", e.at.to_seconds(),
                       e.src_name.c_str(), e.summary.c_str(), e.dst_name.c_str());
  });
  return os.str();
}

}  // namespace pbxcap::monitor
