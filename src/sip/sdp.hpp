// Minimal SDP (RFC 4566 subset) for codec negotiation in INVITE/200 bodies.
//
// The paper's calls negotiate G.711 ulaw; SDP is included so (a) INVITE and
// 200 OK wire sizes are realistic and (b) the PBX can perform the offer/
// answer codec selection Asterisk does.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>

namespace pbxcap::sip {

/// An m-line's format list, held inline: RTP payload-type numbers in
/// preference order. An SDP is built or parsed for every INVITE and 200 OK,
/// so the list allocates nothing. kCapacity exceeds every codec catalog;
/// Sdp::parse rejects a longer list.
class PayloadTypes {
 public:
  static constexpr std::size_t kCapacity = 16;

  PayloadTypes() = default;
  PayloadTypes(std::initializer_list<std::uint8_t> pts) : PayloadTypes{std::span{pts}} {}
  explicit PayloadTypes(std::span<const std::uint8_t> pts) {
    for (const std::uint8_t pt : pts) push_back(pt);
  }

  void push_back(std::uint8_t pt) noexcept {
    assert(!full() && "SDP format list over capacity");
    pts_[size_++] = pt;
  }
  /// Drops every entry `pred` holds for, keeping the order of the rest.
  template <class Pred>
  void erase_if(Pred pred) {
    size_ = static_cast<std::uint8_t>(std::remove_if(begin(), end(), pred) - begin());
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool full() const noexcept { return size_ == kCapacity; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::uint8_t front() const noexcept { return pts_[0]; }
  [[nodiscard]] std::uint8_t* begin() noexcept { return pts_.data(); }
  [[nodiscard]] std::uint8_t* end() noexcept { return pts_.data() + size_; }
  [[nodiscard]] const std::uint8_t* begin() const noexcept { return pts_.data(); }
  [[nodiscard]] const std::uint8_t* end() const noexcept { return pts_.data() + size_; }
  [[nodiscard]] bool contains(std::uint8_t pt) const noexcept {
    return std::find(begin(), end(), pt) != end();
  }

  [[nodiscard]] bool operator==(const PayloadTypes& other) const noexcept {
    return std::equal(begin(), end(), other.begin(), other.end());
  }

 private:
  std::array<std::uint8_t, kCapacity> pts_{};
  std::uint8_t size_{0};
};

struct SdpMedia {
  std::uint16_t rtp_port{0};
  PayloadTypes payload_types;  // RFC 3551 static types (0 = PCMU)
  std::uint32_t ssrc{0};  // RFC 5576 a=ssrc announcement; 0 = unannounced
};

struct Sdp {
  std::string origin_user{"pbxcap"};
  std::string connection_host;
  SdpMedia audio;

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] static std::optional<Sdp> parse(std::string_view text);

  /// Offer/answer: first payload type present in both lists, in the offerer's
  /// preference order. nullopt when there is no common codec.
  [[nodiscard]] static std::optional<std::uint8_t> negotiate(const Sdp& offer,
                                                             const Sdp& answer);
};

}  // namespace pbxcap::sip
