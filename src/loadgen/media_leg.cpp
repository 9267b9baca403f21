#include "loadgen/media_leg.hpp"

#include <algorithm>

#include "media/emodel.hpp"
#include "rtp/fluid.hpp"

namespace pbxcap::loadgen {

MediaLeg::MediaLeg(rtp::Codec codec, std::uint32_t local_ssrc, std::uint32_t remote_ssrc)
    : codec_{codec},
      local_ssrc_{local_ssrc},
      remote_ssrc_{remote_ssrc},
      rx_{codec.sample_rate_hz},
      jbuf_{codec} {}

void MediaLeg::on_answer(const sip::Sdp& answer) {
  remote_ssrc_ = answer.audio.ssrc;
  if (answer.audio.payload_types.empty()) return;
  const std::uint8_t pt = answer.audio.payload_types.front();
  if (pt == codec_.payload_type) return;
  if (const auto codec = rtp::codec_by_payload_type(pt)) {
    codec_ = *codec;
    rx_ = rtp::RtpReceiverStats{codec->sample_rate_hz};
    jbuf_ = rtp::JitterBuffer{*codec};
  }
}

void MediaLeg::start(SippHost& host, net::NodeId dst, sim::Random* rtcp_rng,
                     std::uint64_t track) {
  sim::Simulator& simulator = host.network()->simulator();
  rtp::FluidEngine* fluid = host.fluid_engine_;
  sender_ = std::make_unique<rtp::RtpSender>(
      simulator, codec_, local_ssrc_,
      [&host, dst](const rtp::RtpHeader& header, std::uint32_t bytes) {
        host.send({.dst = dst,
                   .kind = net::PacketKind::kRtp,
                   .size_bytes = bytes,
                   .payload = std::make_shared<rtp::RtpPayload>(
                       header, host.network()->simulator().now())});
      });
  sender_->set_packet_counter(host.tm_rtp_sent_);
  if (host.tracer_ != nullptr && track != 0) sender_->set_tracer(host.tracer_, track);
  if (fluid != nullptr) {
    sender_->set_fluid(
        fluid, [&host, dst, spacing = codec_.packet_interval()](
                   const rtp::RtpHeader& first, std::uint32_t bytes, std::uint32_t count,
                   TimePoint departure) {
          host.send({.dst = dst,
                     .kind = net::PacketKind::kRtp,
                     .fluid = true,
                     .batch = static_cast<std::uint16_t>(count),
                     .size_bytes = bytes,
                     .payload = std::make_shared<rtp::RtpBatchPayload>(first, spacing, departure)});
        });
  }
  sender_->start();
  if (rtcp_rng == nullptr) return;
  rtcp_ = std::make_unique<rtp::RtcpSession>(
      simulator, rtcp_rng->fork(), local_ssrc_, codec_.sample_rate_hz,
      [&host, dst](const rtp::RtcpPayload& payload, std::uint32_t bytes) {
        host.send({.dst = dst,
                   .kind = net::PacketKind::kRtcp,
                   .size_bytes = bytes,
                   .payload = std::make_shared<rtp::RtcpPayload>(payload)});
      });
  if (fluid != nullptr) {
    // Per-SSRC on purpose: the report must read exact state for this leg's
    // two streams only; a global flush per report would cost as much as
    // per-packet mode at scale.
    rtcp_->set_pre_report_hook([fluid, local = local_ssrc_, remote = remote_ssrc_] {
      fluid->flush_stream(local);
      if (remote != 0) fluid->flush_stream(remote);
    });
  }
  rtcp_->start(sender_.get(), &rx_);
}

void MediaLeg::stop_sending() {
  if (sender_ != nullptr) sender_->stop();
}

void MediaLeg::stop() {
  stop_sending();
  if (rtcp_ != nullptr) rtcp_->stop();
}

HeardQuality MediaLeg::heard() const {
  HeardQuality q;
  q.rtp_received = rx_.received();
  const std::uint64_t expected = rx_.expected();
  const std::uint64_t missing = rx_.lost() + jbuf_.discarded_late();
  q.effective_loss =
      expected == 0 ? 0.0
                    : std::min(1.0, static_cast<double>(missing) / static_cast<double>(expected));
  q.jitter = rx_.jitter();
  q.mos = media::estimate_mos(media::inputs_for_codec(
      codec_, Duration::from_seconds(transit_s_.mean()), jbuf_.playout_delay(), q.effective_loss));
  return q;
}

void SippHost::on_receive(const net::Packet& pkt) {
  const TimePoint now = network()->simulator().now();
  if (pkt.kind == net::PacketKind::kRtp) {
    if (const auto* rtp = pkt.payload_as<rtp::RtpPayload>()) {
      const auto it = by_remote_ssrc_.find(rtp->header.ssrc);
      if (it == by_remote_ssrc_.end()) return;
      MediaLeg& leg = *it->second;
      leg.rx_.on_packet(rtp->header, now);
      leg.jbuf_.on_packet(rtp->header, now);
      leg.transit_s_.add((now - rtp->originated_at).to_seconds());
    } else if (const auto* batch = pkt.payload_as<rtp::RtpBatchPayload>()) {
      const auto it = by_remote_ssrc_.find(batch->first.ssrc);
      if (it == by_remote_ssrc_.end()) return;
      MediaLeg& leg = *it->second;
      // Nominal per-packet arrivals: departure grid shifted by the constant
      // path latency the batch accumulated hop by hop.
      const TimePoint first_arrival = batch->first_departure + pkt.path_latency;
      leg.rx_.on_batch(batch->first, first_arrival, batch->spacing,
                       leg.codec_.timestamp_step(), pkt.batch);
      leg.jbuf_.on_batch(batch->first, first_arrival, batch->spacing, pkt.batch);
      leg.transit_s_.add_repeated(pkt.path_latency.to_seconds(), pkt.batch);
    }
  } else if (pkt.kind == net::PacketKind::kRtcp) {
    if (const auto* rtcp = pkt.payload_as<rtp::RtcpPayload>()) {
      const auto it = by_remote_ssrc_.find(rtcp->routing_ssrc());
      if (it != by_remote_ssrc_.end() && it->second->rtcp_ != nullptr) {
        it->second->rtcp_->on_report(*rtcp, now);
      }
    }
  } else {
    sip::SipEndpoint::on_receive(pkt);
  }
}

}  // namespace pbxcap::loadgen
