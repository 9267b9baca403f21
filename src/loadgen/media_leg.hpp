// One RTP termination — the media half of a SIPp host in Fig. 4.
//
// RTP ends at the SIPp client and the SIPp server, and both ends treat it
// alike: stream the negotiated codec towards the PBX, optionally exchange
// RTCP, and score what arrives the way VoIPmonitor does (RFC 3550 loss and
// jitter, late jitter-buffer discards, E-model MOS). Both hosts derive from
// SippHost, which indexes their legs by remote SSRC, so inbound media is one
// flat-table probe from its leg. SipCaller holds one MediaLeg per call and
// SipReceiver one per session.
#pragma once

#include <cstdint>
#include <memory>

#include "rtp/jitter_buffer.hpp"
#include "rtp/packet.hpp"
#include "rtp/rtcp.hpp"
#include "rtp/ssrc_table.hpp"
#include "rtp/stream.hpp"
#include "sim/random.hpp"
#include "sip/endpoint.hpp"
#include "sip/sdp.hpp"
#include "stats/summary.hpp"

namespace pbxcap::rtp {
class FluidEngine;
}

namespace pbxcap::loadgen {

class SippHost;

/// What one direction of a finished call looked like to its listener.
struct HeardQuality {
  double mos{0.0};
  double effective_loss{0.0};  // network loss + late jitter-buffer discards
  Duration jitter{};
  std::uint64_t rtp_received{0};
};

class MediaLeg {
 public:
  MediaLeg(rtp::Codec codec, std::uint32_t local_ssrc, std::uint32_t remote_ssrc = 0);

  /// Takes the remote SSRC and codec from the SDP answer to this leg's
  /// offer, before any media flows: the answered payload type, not the
  /// offer's first preference, drives packetization, jitter-buffer sizing
  /// and the E-model's Ie/Bpl.
  void on_answer(const sip::Sdp& answer);

  [[nodiscard]] const rtp::Codec& codec() const noexcept { return codec_; }
  [[nodiscard]] std::uint32_t local_ssrc() const noexcept { return local_ssrc_; }
  [[nodiscard]] std::uint32_t remote_ssrc() const noexcept { return remote_ssrc_; }
  [[nodiscard]] bool started() const noexcept { return sender_ != nullptr; }

  /// Starts streaming from `host` to `dst` with the host's fluid engine and
  /// tracer. A non-null `rtcp_rng` runs RTCP with a stream forked from it; a
  /// non-zero `track` records the media segments on the call's journey row.
  void start(SippHost& host, net::NodeId dst, sim::Random* rtcp_rng, std::uint64_t track);
  /// Stops the RTP stream only; RTCP keeps reporting until stop().
  void stop_sending();
  void stop();

  /// Quality of the media this leg received so far.
  [[nodiscard]] HeardQuality heard() const;
  /// RTP packets this leg's sender emitted so far.
  [[nodiscard]] std::uint64_t packets_sent() const noexcept {
    return sender_ == nullptr ? 0 : sender_->packets_sent();
  }

 private:
  friend class SippHost;  // media intake

  rtp::Codec codec_;
  std::uint32_t local_ssrc_;
  std::uint32_t remote_ssrc_;
  std::unique_ptr<rtp::RtpSender> sender_;
  std::unique_ptr<rtp::RtcpSession> rtcp_;
  rtp::RtpReceiverStats rx_;
  rtp::JitterBuffer jbuf_;
  stats::Summary transit_s_;  // per-packet end-to-end transit (seconds)
};

/// A SIPp host of Fig. 4: a SIP endpoint whose media legs end RTP.
class SippHost : public sip::SipEndpoint {
 public:
  using sip::SipEndpoint::SipEndpoint;
  /// Public so this host's media legs send their RTP and RTCP from it.
  using net::Node::send;

  /// Opts this host's media senders into the hybrid fluid fast path. Set
  /// before any media starts; the engine must outlive the run.
  void set_fluid_engine(rtp::FluidEngine* engine) noexcept { fluid_engine_ = engine; }

  /// Hands RTP, fluid batches and RTCP to the leg their SSRC names (dropped
  /// when none does) and everything else to the SIP stack.
  void on_receive(const net::Packet& pkt) override;

 protected:
  friend class MediaLeg;  // streams with the host's engine and tracer

  /// Stops `leg` for good as it leaves this host and banks its sent count
  /// in rtp_sent_ended_.
  void end_leg(MediaLeg& leg);
  /// Registers the host's RTP send counter in `reg` with `sent` packets.
  void publish_rtp_sent(telemetry::MetricsRegistry& reg, std::uint64_t sent) const;

  rtp::FluidEngine* fluid_engine_{nullptr};
  /// Legs by the SSRC they receive (the far end's local SSRC).
  rtp::SsrcTable<MediaLeg> by_remote_ssrc_;
  /// RTP packets of the legs end_leg() retired.
  std::uint64_t rtp_sent_ended_{0};
  telemetry::SpanTracer* tracer_{nullptr};  // null when tracing is off
};

}  // namespace pbxcap::loadgen
