// Shared-medium Wi-Fi cell (the VoWiFi access segment of Fig. 1).
//
// The paper's deployment context is voice over the campus 802.11 network;
// its testbed measures only the wired PBX side. This node models what the
// wireless hop adds: a half-duplex shared medium where every frame pays PHY
// airtime plus fixed MAC overhead (DIFS + preamble + SIFS + ACK) plus a
// contention backoff that grows with the instantaneous backlog, and loses
// frames with a configurable radio error rate. The well-known consequence —
// a VoIP call capacity far below what the nominal bit rate suggests (tens of
// G.711 calls on 802.11g, not hundreds) — emerges from the airtime math.
#pragma once

#include <cstdint>

#include "net/node.hpp"
#include "net/route_table.hpp"
#include "util/time.hpp"

namespace pbxcap::net {

class Link;

struct WifiCellConfig {
  double phy_rate_bps{54e6};                    // 802.11g data rate
  Duration per_frame_overhead{Duration::micros(130)};  // DIFS+preamble+SIFS+ACK
  double frame_error_rate{0.01};                // radio loss after retries
  std::uint32_t queue_limit_frames{128};
};

class WifiCell final : public Node {
 public:
  explicit WifiCell(std::string name, WifiCellConfig config = {})
      : Node{std::move(name)}, config_{config} {}

  void on_receive(const Packet& pkt) override;
  [[nodiscard]] bool multihomed() const noexcept override { return true; }

  /// Static route for destinations not directly attached (e.g. the PBX
  /// behind the wired switch).
  void add_route(NodeId dst, Link& via);
  /// Fallback uplink for any unknown destination (the AP's wired port).
  void set_uplink(Link& via);

  [[nodiscard]] const WifiCellConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint64_t frames_forwarded() const noexcept { return forwarded_; }
  [[nodiscard]] std::uint64_t frames_dropped_queue() const noexcept { return dropped_queue_; }
  [[nodiscard]] std::uint64_t frames_dropped_radio() const noexcept { return dropped_radio_; }
  [[nodiscard]] std::uint64_t frames_dropped_no_route() const noexcept {
    return dropped_no_route_;
  }
  /// Fraction of elapsed time the medium has been busy.
  [[nodiscard]] double medium_utilization(TimePoint now) const noexcept;

  /// Airtime one frame of `bytes` occupies, excluding contention.
  [[nodiscard]] Duration frame_airtime(std::uint32_t bytes) const noexcept;

 private:
  [[nodiscard]] Link* route_for(NodeId dst);

  WifiCellConfig config_;
  RouteTable routes_;
  Link* uplink_{nullptr};
  TimePoint medium_busy_until_{};
  std::uint32_t backlog_{0};
  Duration busy_time_{Duration::zero()};
  std::uint64_t forwarded_{0};
  std::uint64_t dropped_queue_{0};
  std::uint64_t dropped_radio_{0};
  std::uint64_t dropped_no_route_{0};
};

}  // namespace pbxcap::net
