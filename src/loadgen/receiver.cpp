#include "loadgen/receiver.hpp"

#include "media/emodel.hpp"
#include "sim/profile.hpp"
#include "rtp/fluid.hpp"
#include "util/strings.hpp"

namespace pbxcap::loadgen {

using sip::Message;
using sip::Method;
using sip::Sdp;

std::optional<std::uint64_t> call_index_of_user(std::string_view user) {
  const auto dash = user.rfind('-');
  if (dash == std::string_view::npos) return std::nullopt;
  std::uint64_t idx = 0;
  if (!util::parse_u64(user.substr(dash + 1), idx)) return std::nullopt;
  return idx;
}

SipReceiver::SipReceiver(std::string host, sim::Simulator& simulator,
                         sip::HostResolver& resolver, rtp::SsrcAllocator& ssrcs,
                         const CallScenario& scenario)
    : sip::SipEndpoint{"sipp-server", std::move(host), simulator, resolver},
      ssrcs_{ssrcs},
      scenario_{scenario} {
  transactions().on_request = [this](const Message& req, sip::ServerTransaction& txn) {
    switch (req.method()) {
      case Method::kInvite:
        handle_invite(req, txn);
        return;
      case Method::kBye:
        handle_bye(req, txn);
        return;
      default: {
        Message resp = Message::response_to(req, 501);
        txn.respond(resp);
        return;
      }
    }
  };
  transactions().on_ack = [this](const Message& ack) { handle_ack(ack); };
}

void SipReceiver::handle_invite(const Message& req, sip::ServerTransaction& txn) {
  Message ringing = Message::response_to(req, sip::status::kRinging);
  ringing.to().tag = new_tag();
  txn.respond(ringing);
  if (scenario_.answer_delay > Duration::zero()) {
    // Keep the assigned tag so 180 and 200 agree.
    const sim::CategoryScope cat_scope{network()->simulator(), sim::Category::kLoadgen};
    network()->simulator().schedule_in(
        scenario_.answer_delay,
        [this, req, &txn, tag = ringing.to().tag]() mutable {
          Message invite = req;
          invite.to().tag = tag;  // carry the tag through to answer()
          answer(invite, txn);
        });
  } else {
    Message invite = req;
    invite.to().tag = ringing.to().tag;
    answer(invite, txn);
  }
}

void SipReceiver::answer(const Message& invite, sip::ServerTransaction& txn) {
  const auto offer = Sdp::parse(invite.body());
  if (!offer || offer->audio.payload_types.empty()) {
    Message resp = Message::response_to(invite, sip::status::kBadRequest);
    txn.respond(resp);
    return;
  }
  // Offer/answer (RFC 3264): pick the first offered payload type this
  // endpoint supports — the offerer's preference order — instead of blindly
  // taking the front of the list (which fails outright when the offer merely
  // *leads* with a codec we lack). No overlap is 488 Not Acceptable Here.
  Sdp supported;
  if (scenario_.receiver_payload_types.empty()) {
    for (const auto& entry : rtp::codec_catalog()) {
      supported.audio.payload_types.push_back(entry.payload_type);
    }
  } else {
    supported.audio.payload_types = scenario_.receiver_payload_types;
  }
  const auto negotiated_pt = Sdp::negotiate(*offer, supported);
  std::optional<rtp::Codec> codec;
  if (negotiated_pt) codec = rtp::codec_by_payload_type(*negotiated_pt);
  if (!codec) {
    ++rejected_488_;
    if (tm_rejected_488_ != nullptr) tm_rejected_488_->add();
    Message resp = Message::response_to(invite, 488);
    txn.respond(resp);
    return;
  }

  const auto call_index = call_index_of_user(invite.request_uri().user());
  auto session = std::make_unique<Session>(Session{
      .call_index = call_index.value_or(0),
      .report_quality = call_index.has_value(),
      .dialog = {},
      .codec = *codec,
      .local_ssrc = ssrcs_.allocate(),
      .remote_ssrc = offer->audio.ssrc,
      .media_dst = resolver().resolve(offer->connection_host),
      .sender = nullptr,
      .rtcp = nullptr,
      .rx = rtp::RtpReceiverStats{codec->sample_rate_hz},
      .jbuf = rtp::JitterBuffer{*codec},
      .transit_s = {},
  });

  Sdp answer_sdp;
  answer_sdp.connection_host = sip_host();
  answer_sdp.audio.rtp_port = 20'000;
  answer_sdp.audio.payload_types = {codec->payload_type};
  answer_sdp.audio.ssrc = session->local_ssrc;

  Message ok = Message::response_to(invite, sip::status::kOk);
  ok.to().tag = invite.to().tag;  // tag assigned at 180 time
  ok.set_contact(sip::Uri{invite.request_uri().user(), sip_host()});
  ok.set_body(answer_sdp.to_string(), "application/sdp");
  txn.respond(ok);

  session->dialog = sip::Dialog::from_uas(invite, ok);
  if (session->remote_ssrc != 0) by_remote_ssrc_[session->remote_ssrc] = session.get();
  sessions_.emplace(invite.call_id(), std::move(session));
  ++answered_;
  if (tm_answered_ != nullptr) tm_answered_->add();
}

void SipReceiver::set_telemetry(telemetry::Telemetry* tel) {
  sip::SipEndpoint::set_telemetry(tel);
  tm_answered_ = tm_rejected_488_ = tm_rtp_sent_ = nullptr;
  tracer_ = nullptr;
  if (tel == nullptr) return;
  tracer_ = tel->tracer();
  auto& reg = tel->registry();
  tm_answered_ = &reg.counter("pbxcap_receiver_calls_answered_total", {},
                              "Calls answered by the receiver host");
  tm_rejected_488_ = &reg.counter("pbxcap_receiver_rejected_488_total", {},
                                  "Offers rejected for lack of codec overlap");
  tm_rtp_sent_ = &reg.counter("pbxcap_rtp_packets_sent_total", {{"host", sip_host()}},
                              "RTP packets emitted by this endpoint's senders");
}

void SipReceiver::handle_ack(const Message& ack) {
  const auto it = sessions_.find(ack.call_id());
  if (it == sessions_.end()) return;
  start_media(*it->second);
}

void SipReceiver::start_media(Session& session) {
  if (session.sender != nullptr || session.media_dst == net::kInvalidNode) return;
  session.sender = std::make_unique<rtp::RtpSender>(
      network()->simulator(), session.codec, session.local_ssrc,
      [this, dst = session.media_dst](const rtp::RtpHeader& header, std::uint32_t bytes) {
        net::Packet pkt;
        pkt.dst = dst;
        pkt.kind = net::PacketKind::kRtp;
        pkt.size_bytes = bytes;
        pkt.payload =
            std::make_shared<rtp::RtpPayload>(header, network()->simulator().now());
        send(std::move(pkt));
      });
  session.sender->set_packet_counter(tm_rtp_sent_);
  if (tracer_ != nullptr) {
    // Same track key as the caller side: in single-process runs both media
    // directions stack on the call's journey row.
    session.sender->set_tracer(
        tracer_, tracer_->track_id(util::format(
                     "call-%llu", static_cast<unsigned long long>(session.call_index))));
  }
  if (fluid_engine_ != nullptr) {
    session.sender->set_fluid(
        fluid_engine_,
        [this, dst = session.media_dst, spacing = session.codec.packet_interval()](
            const rtp::RtpHeader& first, std::uint32_t bytes, std::uint32_t count,
            TimePoint departure) {
          net::Packet pkt;
          pkt.dst = dst;
          pkt.kind = net::PacketKind::kRtp;
          pkt.fluid = true;
          pkt.batch = static_cast<std::uint16_t>(count);
          pkt.size_bytes = bytes;
          pkt.payload = std::make_shared<rtp::RtpBatchPayload>(first, spacing, departure);
          send(std::move(pkt));
        });
  }
  session.sender->start();
  if (scenario_.rtcp) {
    session.rtcp = std::make_unique<rtp::RtcpSession>(
        network()->simulator(), rtcp_rng_.fork(), session.local_ssrc,
        session.codec.sample_rate_hz,
        [this, dst = session.media_dst](const rtp::RtcpPayload& payload, std::uint32_t bytes) {
          net::Packet pkt;
          pkt.dst = dst;
          pkt.kind = net::PacketKind::kRtcp;
          pkt.size_bytes = bytes;
          pkt.payload = std::make_shared<rtp::RtcpPayload>(payload);
          send(std::move(pkt));
        });
    if (fluid_engine_ != nullptr) {
      // Per-SSRC on purpose (see SipCaller::start_media).
      session.rtcp->set_pre_report_hook(
          [this, local = session.local_ssrc, remote = session.remote_ssrc] {
            fluid_engine_->flush_stream(local);
            if (remote != 0) fluid_engine_->flush_stream(remote);
          });
    }
    session.rtcp->start(session.sender.get(), &session.rx);
  }
}

HeardQuality SipReceiver::summarize(const Session& session) const {
  HeardQuality q;
  q.rtp_received = session.rx.received();
  const std::uint64_t expected = session.rx.expected();
  const std::uint64_t missing = session.rx.lost() + session.jbuf.discarded_late();
  q.effective_loss =
      expected == 0 ? 0.0
                    : std::min(1.0, static_cast<double>(missing) / static_cast<double>(expected));
  q.jitter = session.rx.jitter();
  q.mean_transit = Duration::from_seconds(session.transit_s.mean());
  const auto inputs = media::inputs_for_codec(session.codec, q.mean_transit,
                                              session.jbuf.playout_delay(), q.effective_loss);
  q.mos = media::estimate_mos(inputs);
  return q;
}

void SipReceiver::handle_bye(const Message& req, sip::ServerTransaction& txn) {
  Message ok = Message::response_to(req, sip::status::kOk);
  txn.respond(ok);
  const auto it = sessions_.find(req.call_id());
  if (it == sessions_.end()) return;
  Session& session = *it->second;
  if (session.sender != nullptr) session.sender->stop();
  if (session.rtcp != nullptr) session.rtcp->stop();
  if (session.report_quality) finished_[session.call_index] = summarize(session);
  if (session.remote_ssrc != 0) by_remote_ssrc_.erase(session.remote_ssrc);
  sessions_.erase(it);
}

void SipReceiver::handle_rtp(const net::Packet& pkt) {
  if (const auto* rtp = pkt.payload_as<rtp::RtpPayload>()) {
    const auto it = by_remote_ssrc_.find(rtp->header.ssrc);
    if (it == by_remote_ssrc_.end()) return;
    Session& session = *it->second;
    const TimePoint now = network()->simulator().now();
    session.rx.on_packet(rtp->header, now);
    session.jbuf.on_packet(rtp->header, now);
    session.transit_s.add((now - rtp->originated_at).to_seconds());
    return;
  }
  const auto* batch = pkt.payload_as<rtp::RtpBatchPayload>();
  if (batch == nullptr) return;
  const auto it = by_remote_ssrc_.find(batch->first.ssrc);
  if (it == by_remote_ssrc_.end()) return;
  Session& session = *it->second;
  const TimePoint first_arrival = batch->first_departure + batch->path_latency;
  session.rx.on_batch(batch->first, first_arrival, batch->spacing,
                      session.codec.timestamp_step(), pkt.batch);
  session.jbuf.on_batch(batch->first, first_arrival, batch->spacing, pkt.batch);
  session.transit_s.add_repeated(batch->path_latency.to_seconds(), pkt.batch);
}

void SipReceiver::on_receive(const net::Packet& pkt) {
  if (pkt.kind == net::PacketKind::kRtp) {
    handle_rtp(pkt);
    return;
  }
  if (pkt.kind == net::PacketKind::kRtcp) {
    if (const auto* rtcp = pkt.payload_as<rtp::RtcpPayload>()) {
      const auto it = by_remote_ssrc_.find(rtcp->routing_ssrc());
      if (it != by_remote_ssrc_.end() && it->second->rtcp != nullptr) {
        it->second->rtcp->on_report(*rtcp, network()->simulator().now());
      }
    }
    return;
  }
  sip::SipEndpoint::on_receive(pkt);
}

const HeardQuality* SipReceiver::finished(std::uint64_t call_index) const {
  const auto it = finished_.find(call_index);
  return it == finished_.end() ? nullptr : &it->second;
}

}  // namespace pbxcap::loadgen
