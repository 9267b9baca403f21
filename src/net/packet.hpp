// Network packet model.
//
// Packets carry the wire metadata the transport layer needs (size in bytes,
// endpoints, and a kind tag so taps can count SIP vs RTP traffic the way the
// paper does with Wireshark) plus what they transport: a per-packet RTP frame
// carries its 12-byte RTP header inline, everything else (SIP message, RTCP
// report, fluid batch, trunk shell) an opaque shared payload. A relayed RTP
// packet therefore makes no heap allocation anywhere on its path.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <typeinfo>

#include "util/time.hpp"

namespace pbxcap::net {

/// Identifies an attached node within one Network. Dense, assigned at attach.
using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = 0xffffffff;

/// kTrunk is an aggregation shell (net/trunk.hpp): one wire frame carrying
/// many calls' media across an inter-PBX link, IAX2-trunk style. Captures
/// that census application traffic filter on kSip/kRtp/kRtcp and therefore
/// see the re-delivered inner frames, never the shell.
enum class PacketKind : std::uint8_t { kSip, kRtp, kRtcp, kTrunk, kOther };

[[nodiscard]] constexpr const char* to_string(PacketKind kind) noexcept {
  switch (kind) {
    case PacketKind::kSip: return "SIP";
    case PacketKind::kRtp: return "RTP";
    case PacketKind::kRtcp: return "RTCP";
    case PacketKind::kTrunk: return "TRUNK";
    case PacketKind::kOther: return "OTHER";
  }
  return "?";
}

/// Base class for anything carried inside a Packet. Each payload type
/// derives from it directly and is final (see Packet::payload_as).
struct Payload {
  Payload() = default;
  Payload(const Payload&) = default;
  Payload& operator=(const Payload&) = default;
  Payload(Payload&&) = default;
  Payload& operator=(Payload&&) = default;
  virtual ~Payload() = default;
};

/// RTP fixed header (RFC 3550 §5.1; no CSRC list, no extension), laid out
/// in 12 bytes so it rides inside Packet. rtp::RtpHeader names the same type.
struct RtpHeader {
  std::uint32_t ssrc{0};
  std::uint32_t timestamp{0};  // media clock units (e.g. 8 kHz for G.711)
  std::uint16_t sequence{0};   // wraps mod 2^16; receivers extend it
  std::uint8_t payload_type{0};
  bool marker{false};          // set on the first packet of a talkspurt
};
static_assert(sizeof(RtpHeader) == 12, "RtpHeader is the 12-byte RTP fixed header");

/// Per-layer encapsulation overhead on the wire (bytes). UDP transport for
/// both SIP and RTP, as in the paper's testbed.
inline constexpr std::uint32_t kUdpHeaderBytes = 8;
inline constexpr std::uint32_t kIpv4HeaderBytes = 20;
inline constexpr std::uint32_t kEthernetOverheadBytes = 18;  // MAC hdr + FCS
inline constexpr std::uint32_t kWireOverheadBytes =
    kUdpHeaderBytes + kIpv4HeaderBytes + kEthernetOverheadBytes;

struct Packet {
  std::uint64_t id{0};
  NodeId src{kInvalidNode};
  NodeId dst{kInvalidNode};
  PacketKind kind{PacketKind::kOther};
  /// Fluid-mode batch marker: the packet stands for `batch` wire packets;
  /// links/switches move it synchronously instead of scheduling per-hop
  /// events. A link or switch tells a batch from a single frame by this one
  /// byte, without looking at the payload.
  bool fluid{false};
  /// Number of wire packets this Packet stands for. 1 for ordinary traffic;
  /// >= 1 when `fluid`, with the departure grid in the payload. Every
  /// counter along the path accrues `batch`, not 1.
  std::uint16_t batch{1};
  std::uint32_t size_bytes{0};  // full on-wire size including headers
  /// Time since the sender handed the packet to the network, accumulated
  /// hop by hop: every place that holds the frame (a link's queue, wire and
  /// receive step, a Wi-Fi cell's airtime, a trunk window) adds its wait.
  /// For a fluid batch it is each packet's nominal one-way latency, built
  /// with no simulator events. Receivers read transit from it.
  Duration path_latency{};
  std::shared_ptr<const Payload> payload{};
  /// Per-packet RTP (kind kRtp, not fluid): the frame's RTP header. Unused
  /// by every other packet.
  RtpHeader rtp{};

  /// Typed payload access; nullptr if the payload is of a different type.
  /// Every payload type is final, so the match compares type_info: a
  /// pointer compare on a hit instead of a dynamic_cast's walk of the
  /// hierarchy.
  template <typename T>
  [[nodiscard]] const T* payload_as() const noexcept {
    static_assert(std::is_final_v<T>, "payload_as matches final payload types only");
    const Payload* p = payload.get();
    return p != nullptr && typeid(*p) == typeid(T) ? static_cast<const T*>(p) : nullptr;
  }
};

// The per-packet link delivery closure captures a Packet next to 16 bytes of
// context and must stay within sim::Callback's 80-byte inline buffer: 48
// bytes of wire metadata and payload handle, the 12-byte RTP header, and 4
// bytes of tail padding. Any new field has to fit in that padding.
static_assert(sizeof(Packet) == 64, "Packet must stay within the SBO budget of hot closures");

/// Full wire size for an application payload of `app_bytes`.
[[nodiscard]] constexpr std::uint32_t wire_size(std::uint32_t app_bytes) noexcept {
  return app_bytes + kWireOverheadBytes;
}

}  // namespace pbxcap::net
