// RTP packet model (RFC 3550 subset: fixed header, no CSRC/extensions).
#pragma once

#include <cstdint>

#include "net/packet.hpp"

namespace pbxcap::rtp {

inline constexpr std::uint32_t kRtpHeaderBytes = 12;

struct RtpHeader {
  std::uint8_t payload_type{0};
  std::uint16_t sequence{0};   // wraps mod 2^16; receivers extend it
  std::uint32_t timestamp{0};  // media clock units (e.g. 8 kHz for G.711)
  std::uint32_t ssrc{0};
  bool marker{false};          // set on the first packet of a talkspurt
};

/// Network payload carrying one RTP packet through the simulated fabric.
/// `originated_at` is stamped by the original sender and survives the PBX
/// relay, so receivers can measure true end-to-end (mouth-to-ear) delay.
struct RtpPayload final : net::Payload {
  RtpPayload(RtpHeader h, TimePoint originated) : header{h}, originated_at{originated} {}
  RtpHeader header;
  TimePoint originated_at{};
};

/// Fluid-mode batch: stands for Packet::batch consecutive RTP packets of one
/// stream. Packet i (0-based) has header fields first.{sequence,timestamp}
/// advanced i steps, nominal departure first_departure + i * spacing, and
/// nominal arrival departure + the carrying Packet's path_latency. The
/// payload is immutable from the sender on, so every hop shares it. The
/// headers themselves are never materialized; receivers apply the closed
/// forms over the whole run of packets.
struct RtpBatchPayload final : net::Payload {
  RtpBatchPayload(RtpHeader first_header, Duration packet_spacing, TimePoint departure)
      : first{first_header}, spacing{packet_spacing}, first_departure{departure} {}

  RtpHeader first;
  Duration spacing{};
  TimePoint first_departure{};
};

/// Hands out globally unique SSRCs for one simulation run. Real endpoints
/// pick SSRCs randomly and resolve collisions (RFC 3550 §8); a counter gives
/// the same uniqueness deterministically.
class SsrcAllocator {
 public:
  [[nodiscard]] std::uint32_t allocate() noexcept { return next_++; }

 private:
  std::uint32_t next_{1};
};

}  // namespace pbxcap::rtp
