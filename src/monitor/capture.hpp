// Packet capture taps — the Wireshark/VoIPmonitor observation point.
//
// Both taps attach to the Network as node taps on the PBX, so they run only
// on hops into or out of it: a message is counted once on ingress (final hop
// into the PBX) and once on egress (first hop out), exactly what a capture on
// the server's interface sees. Table I's SIP per-type rows and the RTP
// message row are produced from these counts.
#pragma once

#include <cstdint>
#include <string>

#include "net/network.hpp"
#include "sip/message.hpp"
#include "stats/counter.hpp"

namespace pbxcap::monitor {

/// Counts SIP messages by method / status class at one node's interface.
class SipCapture {
 public:
  explicit SipCapture(net::NodeId watch_node) : node_{watch_node} {}

  /// Installs the tap; call once after building the network.
  void attach(net::Network& network);

  [[nodiscard]] const stats::CounterSet& counters() const noexcept { return counters_; }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

  // Table I row accessors.
  [[nodiscard]] std::uint64_t invites() const { return counters_.value("INVITE"); }
  [[nodiscard]] std::uint64_t trying_100() const { return counters_.value("100"); }
  [[nodiscard]] std::uint64_t ringing_180() const { return counters_.value("180"); }
  [[nodiscard]] std::uint64_t ok_200() const { return counters_.value("200"); }
  [[nodiscard]] std::uint64_t acks() const { return counters_.value("ACK"); }
  [[nodiscard]] std::uint64_t byes() const { return counters_.value("BYE"); }
  /// Error responses (>= 400), the Table I "Error Msgs" row.
  [[nodiscard]] std::uint64_t errors() const noexcept { return errors_; }

 private:
  void on_packet(const net::Packet& pkt, net::NodeId from, net::NodeId to);

  net::NodeId node_;
  stats::CounterSet counters_;
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
