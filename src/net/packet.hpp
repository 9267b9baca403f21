// Network packet model.
//
// Packets carry an opaque payload (SIP message, RTP packet) plus the wire
// metadata the transport layer needs: size in bytes, endpoints, and a kind
// tag so taps can count SIP vs RTP traffic the way the paper does with
// Wireshark.
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

/// Base class for anything carried inside a Packet.
struct Payload {
  Payload() = default;
  Payload(const Payload&) = default;
  Payload& operator=(const Payload&) = default;
  Payload(Payload&&) = default;
  Payload& operator=(Payload&&) = default;
  virtual ~Payload() = default;
};

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
  /// Fluid-mode batch marker: the packet stands for `batch` wire packets and
  /// carries a BatchPayload; links/switches move it synchronously instead of
  /// scheduling per-hop events. A link or switch tells a batch from a
  /// single frame by this one byte, without looking at the payload.
  bool fluid{false};
  /// Number of wire packets this Packet stands for. 1 for ordinary traffic;
  /// >= 1 when `fluid`, with per-packet timing in the BatchPayload. Every
  /// counter along the path accrues `batch`, not 1.
  std::uint16_t batch{1};
  std::uint32_t size_bytes{0};  // full on-wire size including headers
  TimePoint sent_at{};
  std::shared_ptr<const Payload> payload;

  /// Typed payload access; nullptr if the payload is of a different type.
  /// A `final` T is matched by comparing type_info, which costs a pointer
  /// compare on a hit instead of a dynamic_cast's walk of the hierarchy;
  /// every payload type on the per-packet path is final.
  template <typename T>
  [[nodiscard]] const T* payload_as() const noexcept {
    const Payload* p = payload.get();
    if constexpr (std::is_final_v<T>) {
      return p != nullptr && typeid(*p) == typeid(T) ? static_cast<const T*>(p) : nullptr;
    } else {
      return dynamic_cast<const T*>(p);
    }
  }
};

// The per-packet link delivery closure captures a Packet next to 16 bytes of
// context and must stay within sim::Callback's 64-byte inline buffer, so the
// batch count has to live in existing padding rather than grow the struct.
static_assert(sizeof(Packet) == 48, "Packet must stay within the SBO budget of hot closures");

/// Base for batch payloads: carries the nominal per-packet one-way latency
/// accumulated hop by hop while a batch traverses the topology synchronously
/// (no simulator events). Hops that would delay a packet clone-and-add via
/// add_batch_latency instead of scheduling; receivers reconstruct nominal
/// arrival times from it.
struct BatchPayload : Payload {
  Duration path_latency{Duration::zero()};

  [[nodiscard]] virtual std::shared_ptr<BatchPayload> clone_batch() const = 0;
};

/// Adds `extra` to the batch payload's accumulated path latency,
/// copy-on-write (the original may still be referenced upstream). No-op for
/// non-batch payloads.
inline void add_batch_latency(Packet& pkt, Duration extra) {
  if (const auto* batch = pkt.payload_as<BatchPayload>()) {
    auto copy = batch->clone_batch();
    copy->path_latency += extra;
    pkt.payload = std::move(copy);
  }
}

/// Full wire size for an application payload of `app_bytes`.
[[nodiscard]] constexpr std::uint32_t wire_size(std::uint32_t app_bytes) noexcept {
  return app_bytes + kWireOverheadBytes;
}

}  // namespace pbxcap::net
