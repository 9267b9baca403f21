// SIP call receiver — the auto-answering SIPp UAS host of Fig. 4.
//
// Answers every INVITE (180 Ringing, then 200 OK after the configured
// answer delay), streams RTP back for the life of the call, and keeps
// per-call received-quality statistics that the experiment harness merges
// with the caller's log.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>

#include "loadgen/media_leg.hpp"
#include "loadgen/scenario.hpp"
#include "rtp/packet.hpp"
#include "sim/random.hpp"
#include "sip/dialog.hpp"
#include "sip/endpoint.hpp"
#include "sip/sdp.hpp"

namespace pbxcap::loadgen {

class SipReceiver final : public SippHost {
 public:
  SipReceiver(std::string host, sim::Simulator& simulator, sip::HostResolver& resolver,
              rtp::SsrcAllocator& ssrcs, const CallScenario& scenario);

  /// Adds the media-segment spans to the base endpoint's.
  void set_telemetry(telemetry::Telemetry* tel) override;
  /// Appends the answered and 488 counters and the RTP send counter.
  void publish(telemetry::MetricsRegistry& reg) const override;

  /// Received-side quality for the call with the given index ("recv-<idx>"
  /// user part), available once the call has been torn down.
  [[nodiscard]] const HeardQuality* finished(std::uint64_t call_index) const;

  [[nodiscard]] std::uint64_t calls_answered() const noexcept { return answered_; }
  /// Offers rejected with 488 Not Acceptable Here (no codec overlap between
  /// the offer and this endpoint's supported set).
  [[nodiscard]] std::uint64_t rejected_488() const noexcept { return rejected_488_; }
  [[nodiscard]] std::size_t active_sessions() const noexcept { return sessions_.size(); }
  /// RTP packets this host's media legs emitted, ended and live.
  [[nodiscard]] std::uint64_t rtp_packets_sent() const noexcept;

 private:
  struct Session {
    std::uint64_t call_index{0};
    /// False for destinations with no caller-side index (ACD agent legs,
    /// "queue-*" users): their quality must not land in finished_[0].
    bool report_quality{true};
    sip::Dialog dialog;
    net::NodeId media_dst{net::kInvalidNode};
    MediaLeg media;
  };
  // Measured: at 1 KiB or more, each call's allocation takes glibc's
  // large-bin path and runs malloc_consolidate once per call.
  static_assert(sizeof(Session) < 1000, "a session record must stay under 1 KiB");

  void handle_invite(const sip::Message& req, sip::ServerTransaction& txn);
  /// Answers the INVITE of `txn`; `tagged` is its identity with the To-tag
  /// the 180 carried.
  void answer(sip::ServerTransaction& txn, std::shared_ptr<const sip::DialogIdentity> tagged);
  /// The 200 OK for `invite`: the tagged identity, SDP answer with the leg's
  /// codec and SSRC.
  [[nodiscard]] sip::Message answer_ok(const sip::Message& invite,
                                       std::shared_ptr<const sip::DialogIdentity> tagged,
                                       const MediaLeg& media) const;
  void handle_bye(const sip::Message& req, sip::ServerTransaction& txn);
  void handle_ack(const sip::Message& ack);

  rtp::SsrcAllocator& ssrcs_;
  CallScenario scenario_;
  /// By Call-ID; each key views its session's dialog identity.
  std::unordered_map<std::string_view, std::unique_ptr<Session>> sessions_;
  std::unordered_map<std::uint64_t, HeardQuality> finished_;
  std::uint64_t answered_{0};
  std::uint64_t rejected_488_{0};
  sim::Random rtcp_rng_{0xACE5};
};

/// Extracts <idx> from a "recv-<idx>" / "caller-<idx>" style user part.
[[nodiscard]] std::optional<std::uint64_t> call_index_of_user(std::string_view user);

}  // namespace pbxcap::loadgen
