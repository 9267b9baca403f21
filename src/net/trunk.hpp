// IAX2-style trunk aggregation (RFC 5456 §8.1.2).
//
// On a trunked link, every media packet offered within one trunk window
// (nominally one 20 ms ptime) is carried in a single wire frame: one meta
// trunk header for the frame, plus a small mini-frame header per call in
// place of each packet's full Ethernet/IP/UDP/RTP encapsulation. With k
// concurrent calls this turns k packets per window per direction into one,
// cutting both the per-packet wire overhead (the dominant cost of 20-byte
// G.729 payloads) and the per-packet event load on the inter-PBX segment.
//
// The shell is transport framing, not application traffic: Network::deliver
// unwraps it at the receiving end of the hop and re-delivers the aggregated
// frames individually, so endpoints, switches, and kind-filtered captures
// observe exactly the packets they would have seen without trunking.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"

namespace pbxcap::net {

/// Meta trunk frame header (RFC 5456 §8.1.2: full IAX meta header with the
/// trunk timestamp).
inline constexpr std::uint32_t kTrunkHeaderBytes = 8;
/// Per-call mini-frame header inside the trunk (source call number + length,
/// trunk-timestamped variant).
inline constexpr std::uint32_t kTrunkMiniHeaderBytes = 4;
/// Bytes the trunk sheds from each aggregated packet: its own
/// Ethernet/IP/UDP wire overhead plus the 12-byte RTP header, both replaced
/// by the shared shell framing and the mini-frame header.
inline constexpr std::uint32_t kTrunkStrippedPerPacketBytes = kWireOverheadBytes + 12;

/// Shell payload: the media packets aggregated into one trunk frame, in
/// arrival order. Each keeps its own src/dst/payload untouched so the
/// unwrap at the far end of the hop (in this shard or the next) re-delivers
/// them verbatim.
struct TrunkPayload final : Payload {
  std::vector<Packet> frames;
};

/// Full wire size of a trunk frame carrying `frames`: shared encapsulation +
/// meta header + one mini-frame (header + codec payload) per packet.
[[nodiscard]] inline std::uint32_t trunk_wire_size(const std::vector<Packet>& frames) noexcept {
  std::uint32_t app_bytes = kTrunkHeaderBytes;
  for (const Packet& inner : frames) {
    const std::uint32_t carried = inner.size_bytes > kTrunkStrippedPerPacketBytes
                                      ? inner.size_bytes - kTrunkStrippedPerPacketBytes
                                      : 0;
    app_bytes += kTrunkMiniHeaderBytes + carried;
  }
  return wire_size(app_bytes);
}

}  // namespace pbxcap::net
