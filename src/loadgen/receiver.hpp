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

#include "loadgen/scenario.hpp"
#include "monitor/call_log.hpp"
#include "rtp/jitter_buffer.hpp"
#include "rtp/packet.hpp"
#include "rtp/rtcp.hpp"
#include "rtp/stream.hpp"
#include "sim/random.hpp"
#include "sip/dialog.hpp"
#include "sip/endpoint.hpp"
#include "sip/sdp.hpp"
#include "stats/summary.hpp"

namespace pbxcap::rtp {
class FluidEngine;
}

namespace pbxcap::loadgen {

/// What one direction of a finished call looked like to its listener.
struct HeardQuality {
  double mos{0.0};
  double effective_loss{0.0};  // network loss + late jitter-buffer discards
  Duration jitter{};
  Duration mean_transit{};
  std::uint64_t rtp_received{0};
};

class SipReceiver final : public sip::SipEndpoint {
 public:
  SipReceiver(std::string host, sim::Simulator& simulator, sip::HostResolver& resolver,
              rtp::SsrcAllocator& ssrcs, const CallScenario& scenario);

  void on_receive(const net::Packet& pkt) override;

  /// Adds the answered-call counter and the receiver-side RTP send counter
  /// on top of the base endpoint instrumentation.
  void set_telemetry(telemetry::Telemetry* tel) override;

  /// Opts this endpoint's media senders into the hybrid fluid fast path.
  /// Must be set before calls are answered; the engine must outlive the run.
  void set_fluid_engine(rtp::FluidEngine* engine) noexcept { fluid_engine_ = engine; }

  /// Received-side quality for the call with the given index ("recv-<idx>"
  /// user part), available once the call has been torn down.
  [[nodiscard]] const HeardQuality* finished(std::uint64_t call_index) const;

  [[nodiscard]] std::uint64_t calls_answered() const noexcept { return answered_; }
  /// Offers rejected with 488 Not Acceptable Here (no codec overlap between
  /// the offer and this endpoint's supported set).
  [[nodiscard]] std::uint64_t rejected_488() const noexcept { return rejected_488_; }
  [[nodiscard]] std::uint64_t calls_finished() const noexcept {
    return static_cast<std::uint64_t>(finished_.size());
  }
  [[nodiscard]] std::size_t active_sessions() const noexcept { return sessions_.size(); }

 private:
  struct Session {
    std::uint64_t call_index{0};
    /// False for destinations with no caller-side index (ACD agent legs,
    /// "queue-*" users): their quality must not land in finished_[0].
    bool report_quality{true};
    sip::Dialog dialog;
    rtp::Codec codec;
    std::uint32_t local_ssrc{0};
    std::uint32_t remote_ssrc{0};
    net::NodeId media_dst{net::kInvalidNode};
    std::unique_ptr<rtp::RtpSender> sender;
    std::unique_ptr<rtp::RtcpSession> rtcp;
    rtp::RtpReceiverStats rx;
    rtp::JitterBuffer jbuf;
    stats::Summary transit_s;  // per-packet end-to-end transit (seconds)
  };

  void handle_invite(const sip::Message& req, sip::ServerTransaction& txn);
  void answer(const sip::Message& invite, sip::ServerTransaction& txn);
  void handle_bye(const sip::Message& req, sip::ServerTransaction& txn);
  void handle_ack(const sip::Message& ack);
  void handle_rtp(const net::Packet& pkt);
  void start_media(Session& session);
  [[nodiscard]] HeardQuality summarize(const Session& session) const;

  rtp::SsrcAllocator& ssrcs_;
  CallScenario scenario_;
  rtp::FluidEngine* fluid_engine_{nullptr};
  std::unordered_map<std::string, std::unique_ptr<Session>> sessions_;  // by Call-ID
  std::unordered_map<std::uint32_t, Session*> by_remote_ssrc_;
  std::unordered_map<std::uint64_t, HeardQuality> finished_;
  std::uint64_t answered_{0};
  std::uint64_t rejected_488_{0};
  sim::Random rtcp_rng_{0xACE5};

  // Telemetry handles; null when telemetry is absent.
  telemetry::SpanTracer* tracer_{nullptr};
  telemetry::Counter* tm_answered_{nullptr};
  telemetry::Counter* tm_rejected_488_{nullptr};
  telemetry::Counter* tm_rtp_sent_{nullptr};
};

/// Extracts <idx> from a "recv-<idx>" / "caller-<idx>" style user part.
[[nodiscard]] std::optional<std::uint64_t> call_index_of_user(std::string_view user);

}  // namespace pbxcap::loadgen
