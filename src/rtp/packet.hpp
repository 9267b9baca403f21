// RTP packet model (RFC 3550 subset: fixed header, no CSRC/extensions).
//
// A per-packet RTP frame is a net::Packet of kind kRtp whose `rtp` field
// holds the header; it has no payload object, so sending, switching and
// relaying one allocates nothing. Its one-way transit is the Packet's
// path_latency, which every hop adds its wait to. Fluid batches carry an
// RtpBatchPayload instead.
#pragma once

#include <cstdint>

#include "net/packet.hpp"

namespace pbxcap::rtp {

inline constexpr std::uint32_t kRtpHeaderBytes = 12;

using RtpHeader = net::RtpHeader;
static_assert(sizeof(RtpHeader) == kRtpHeaderBytes);

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
