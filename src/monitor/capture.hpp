// Packet capture taps — the Wireshark/VoIPmonitor observation point.
//
// Both taps attach to the Network as node taps on the PBX, so they run only
// on hops into or out of it: a message is counted once on ingress (final hop
// into the PBX) and once on egress (first hop out), exactly what a capture on
// the server's interface sees. Table I's SIP per-type rows and the RTP
// message row are produced from these counts.
#pragma once

#include <array>
#include <cstdint>

#include "net/network.hpp"
#include "sip/message.hpp"
#include "telemetry/metrics.hpp"

namespace pbxcap::monitor {

/// Counts SIP messages by method / status code at one node's interface.
class SipCapture {
 public:
  explicit SipCapture(net::NodeId watch_node) : node_{watch_node} {}

  /// Installs the tap; call once after building the network.
  void attach(net::Network& network);

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  /// The `observed` rows: one per message type seen, status codes ascending
  /// ("100", "180", ...), then method names alphabetically, and the errors.
  /// Backends' rows add up.
  void publish(telemetry::MetricsRegistry& reg) const;

  // Table I row accessors.
  [[nodiscard]] std::uint64_t invites() const noexcept { return requests(sip::Method::kInvite); }
  [[nodiscard]] std::uint64_t trying_100() const noexcept { return responses(100); }
  [[nodiscard]] std::uint64_t ringing_180() const noexcept { return responses(180); }
  [[nodiscard]] std::uint64_t ok_200() const noexcept { return responses(200); }
  [[nodiscard]] std::uint64_t acks() const noexcept { return requests(sip::Method::kAck); }
  [[nodiscard]] std::uint64_t byes() const noexcept { return requests(sip::Method::kBye); }
  /// Error responses (>= 400), the Table I "Error Msgs" row.
  [[nodiscard]] std::uint64_t errors() const noexcept { return errors_; }
  [[nodiscard]] std::uint64_t requests(sip::Method m) const noexcept {
    return methods_[static_cast<std::size_t>(m)];
  }
  /// `code` in [kMinCode, kMaxCode], the range the parser accepts.
  [[nodiscard]] std::uint64_t responses(int code) const noexcept {
    return codes_[static_cast<std::size_t>(code - kMinCode)];
  }
  static constexpr int kMinCode = 100;
  static constexpr int kMaxCode = 699;

 private:
  static constexpr std::size_t kMethods = static_cast<std::size_t>(sip::Method::kUnknown) + 1;

  void on_packet(const net::Packet& pkt, net::NodeId from, net::NodeId to);

  net::NodeId node_;
  std::array<std::uint64_t, kMethods> methods_{};
  std::array<std::uint64_t, kMaxCode - kMinCode + 1> codes_{};
  std::uint64_t total_{0};
  std::uint64_t errors_{0};
};

/// Counts RTP packets entering one node (PBX ingress = the paper's
/// per-experiment RTP message count).
class RtpCapture {
 public:
  explicit RtpCapture(net::NodeId watch_node) : node_{watch_node} {}

  void attach(net::Network& network);

  [[nodiscard]] std::uint64_t packets_in() const noexcept { return packets_in_; }

 private:
  net::NodeId node_;
  std::uint64_t packets_in_{0};
};

}  // namespace pbxcap::monitor
