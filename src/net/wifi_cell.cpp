#include "net/wifi_cell.hpp"

#include <algorithm>

#include "net/link.hpp"
#include "net/network.hpp"
#include "sim/profile.hpp"

namespace pbxcap::net {
namespace {

constexpr Duration kSlotTime = Duration::micros(9);  // 802.11g
constexpr std::uint32_t kCwMin = 15;                 // contention window (slots)

}  // namespace

void WifiCell::add_route(NodeId dst, Link& via) {
  if (!via.attaches(id())) throw std::logic_error{"WifiCell::add_route: link not attached"};
  routes_.add_static(dst, via);
}

void WifiCell::set_uplink(Link& via) {
  if (!via.attaches(id())) throw std::logic_error{"WifiCell::set_uplink: link not attached"};
  uplink_ = &via;
}

Link* WifiCell::route_for(NodeId dst) {
  Link* via = routes_.lookup(*network(), id(), dst);
  return via != nullptr ? via : uplink_;  // may be null: then the frame is unroutable
}

Duration WifiCell::frame_airtime(std::uint32_t bytes) const noexcept {
  return config_.per_frame_overhead +
         Duration::from_seconds(static_cast<double>(bytes) * 8.0 / config_.phy_rate_bps);
}

double WifiCell::medium_utilization(TimePoint now) const noexcept {
  const double elapsed = now.to_seconds();
  return elapsed <= 0.0 ? 0.0 : std::min(1.0, busy_time_.to_seconds() / elapsed);
}

void WifiCell::publish(telemetry::MetricsRegistry& reg) const {
  reg.counter("pbxcap_wifi_frames_forwarded_total", {}, "Frames the Wi-Fi cell carried over the air")
      .add(forwarded_);
  const auto dropped = [&reg](const char* reason, std::uint64_t v) {
    reg.counter("pbxcap_wifi_frames_dropped_total", {{"reason", reason}},
                "Frames the Wi-Fi cell dropped, by cause")
        .add(v);
  };
  dropped("queue_full", dropped_queue_);
  dropped("radio", dropped_radio_);
  dropped("no_route", dropped_no_route_);
}

void WifiCell::on_receive(const Packet& pkt) {
  if (pkt.dst == id()) return;
  Link* out = route_for(pkt.dst);
  if (out == nullptr) {
    ++dropped_no_route_;
    return;
  }
  auto& sim = network()->simulator();
  const TimePoint now = sim.now();

  if (backlog_ >= config_.queue_limit_frames) {
    ++dropped_queue_;
    return;
  }

  // Contention: expected backoff is CWmin/2 slots when idle, and doubles
  // (bounded) as the backlog deepens — a coarse DCF stand-in that preserves
  // the key behaviour: per-frame cost rises under load.
  const double cw_factor = std::min(4.0, 1.0 + static_cast<double>(backlog_) / 8.0);
  const double mean_backoff_slots = static_cast<double>(kCwMin) / 2.0 * cw_factor;
  const Duration backoff = Duration::from_seconds(
      mean_backoff_slots * kSlotTime.to_seconds() *
      network()->impairment_rng().uniform(0.5, 1.5));
  const Duration occupancy = frame_airtime(pkt.size_bytes) + backoff;

  const TimePoint start = std::max(now, medium_busy_until_);
  medium_busy_until_ = start + occupancy;
  busy_time_ += occupancy;
  ++backlog_;
  Packet held = pkt;
  held.path_latency += medium_busy_until_ - now;

  const bool lost = config_.frame_error_rate > 0.0 &&
                    network()->impairment_rng().chance(config_.frame_error_rate);

  // Radio occupancy events are attributed like wire events: by packet kind.
  const sim::Simulator::CategoryScope cat_scope{
      sim, pkt.kind == PacketKind::kSip ? sim::category_id(sim::Category::kSip)
           : pkt.kind == PacketKind::kOther ? sim.category()
                                            : sim::category_id(sim::Category::kRtpPacket)};
  // The egress link is looked up again when the airtime ends (routes never
  // change mid-run), which keeps the closure within sim::Callback's inline
  // buffer.
  auto on_air = [this, held = std::move(held), lost] {
    if (backlog_ > 0) --backlog_;
    if (lost) {
      ++dropped_radio_;
      return;
    }
    ++forwarded_;
    route_for(held.dst)->transmit(id(), held);
  };
  static_assert(sim::Callback::stores_inline<decltype(on_air)>(),
                "per-frame airtime closure must stay on the allocation-free SBO path");
  sim.schedule_at(medium_busy_until_, std::move(on_air));
}

}  // namespace pbxcap::net
