// Packet trace capture — the "save the pcap" counterpart to the counters.
//
// Records per-delivery events from the network taps with protocol detail
// (SIP method/status, RTP SSRC/seq), exports CSV for external analysis, and
// renders the classic Wireshark-style SIP call-flow ladder (Fig. 2) for any
// Call-ID.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "telemetry/metrics.hpp"
#include "util/time.hpp"

namespace pbxcap::monitor {

struct TraceEvent {
  TimePoint at{};
  std::uint64_t packet_id{0};
  net::PacketKind kind{net::PacketKind::kOther};
  net::NodeId src{net::kInvalidNode};      // end-to-end source
  net::NodeId dst{net::kInvalidNode};      // end-to-end destination
  net::NodeId hop_from{net::kInvalidNode}; // link endpoints of this delivery
  net::NodeId hop_to{net::kInvalidNode};
  std::uint32_t size_bytes{0};
  std::string src_name;  // captured at event time: valid after the network dies
  std::string dst_name;
  std::string summary;   // "INVITE sip:recv-1@pbx", "200 OK", "RTP ssrc=7 seq=42"
  std::string call_id;   // SIP only
};

class PacketTrace {
 public:
  /// `max_events` caps memory. The capture is a true ring buffer: once full,
  /// each new event overwrites the oldest one (tcpdump -W 1 semantics), so
  /// the retained window always ends at the most recent delivery. `dropped()`
  /// counts the overwritten events; publish() exports it as the
  /// `pbxcap_trace_events_dropped_total` telemetry metric.
  explicit PacketTrace(std::size_t max_events = 100'000) : max_events_{max_events} {}

  /// Installs the tap. Records only final-hop deliveries (one event per
  /// end-to-end message per receiving node), optionally filtered by kind.
  void attach(net::Network& network, bool sip_only = false);

  /// Retained events, oldest first (chronological even after wrap-around).
  [[nodiscard]] std::vector<TraceEvent> events() const;
  /// Number of events overwritten because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  void publish(telemetry::MetricsRegistry& reg) const {
    reg.counter("pbxcap_trace_events_dropped_total", {},
                "Packet-trace ring overwrites (oldest events lost)")
        .add(dropped_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return max_events_; }

  [[nodiscard]] std::string to_csv() const;

  /// Renders the SIP message ladder for one call (all Call-IDs containing
  /// `call_id_fragment`), with node names as columns — the Fig. 2 picture.
  [[nodiscard]] std::string sip_ladder(const std::string& call_id_fragment) const;

 private:
  void record(TraceEvent event);
  /// Applies `fn` to each retained event in chronological order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      fn(ring_[(head_ + i) % ring_.size()]);
    }
  }

  std::size_t max_events_;
  std::vector<TraceEvent> ring_;
  std::size_t head_{0};  // index of the oldest retained event once full
  std::uint64_t dropped_{0};
};

}  // namespace pbxcap::monitor
