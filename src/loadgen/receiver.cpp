#include "loadgen/receiver.hpp"

#include "sim/profile.hpp"
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
    : SippHost{"sipp-server", std::move(host), simulator, resolver},
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
      default:
        txn.respond(Message::response_to(req, 501));
        return;
    }
  };
  transactions().on_ack = [this](const Message& ack) { handle_ack(ack); };
}

void SipReceiver::handle_invite(const Message& req, sip::ServerTransaction& txn) {
  // A Call-ID that already has a session: an INVITE retransmission that
  // outlived its server transaction (which ends on the 2xx). Answer it with
  // the session's 200 OK again and set up nothing new.
  if (const auto it = sessions_.find(req.call_id()); it != sessions_.end()) {
    txn.respond(answer_ok(req, it->second->dialog.identity(), it->second->media));
    return;
  }
  // The tagged identity is built once: the 180, the 200 and the dialog
  // share it, so 180 and 200 agree.
  auto tagged = sip::DialogIdentity::of(req.identity()).with_to_tag(new_tag());
  Message ringing = Message::response_to(req, sip::status::kRinging);
  ringing.set_identity(tagged);
  txn.respond(std::move(ringing));
  if (scenario_.answer_delay > Duration::zero()) {
    const sim::CategoryScope cat_scope{network()->simulator(), sim::Category::kLoadgen};
    network()->simulator().schedule_in(
        scenario_.answer_delay,
        [this, &txn, tagged = std::move(tagged)]() mutable { answer(txn, std::move(tagged)); });
  } else {
    answer(txn, std::move(tagged));
  }
}

void SipReceiver::answer(sip::ServerTransaction& txn,
                         std::shared_ptr<const sip::DialogIdentity> tagged) {
  const Message& invite = txn.request_payload()->msg;
  const auto offer = Sdp::parse(invite.body());
  if (!offer || offer->audio.payload_types.empty()) {
    Message resp = Message::response_to(invite, sip::status::kBadRequest);
    resp.set_identity(std::move(tagged));
    txn.respond(std::move(resp));
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
    supported.audio.payload_types = sip::PayloadTypes{scenario_.receiver_payload_types};
  }
  const auto negotiated_pt = Sdp::negotiate(*offer, supported);
  std::optional<rtp::Codec> codec;
  if (negotiated_pt) codec = rtp::codec_by_payload_type(*negotiated_pt);
  if (!codec) {
    ++rejected_488_;
    Message resp = Message::response_to(invite, 488);
    resp.set_identity(std::move(tagged));
    txn.respond(std::move(resp));
    return;
  }

  const auto call_index = call_index_of_user(invite.request_uri().user());
  auto session = std::make_unique<Session>(Session{
      .call_index = call_index.value_or(0),
      .report_quality = call_index.has_value(),
      .dialog = {},
      .media_dst = resolver().resolve(offer->connection_host),
      .media = MediaLeg{*codec, ssrcs_.allocate(), offer->audio.ssrc},
  });

  Message ok = answer_ok(invite, std::move(tagged), session->media);
  session->dialog = sip::Dialog::from_uas(invite, ok);
  txn.respond(std::move(ok));
  // Store the session before publishing a pointer into it.
  const std::string_view call_id = session->dialog.call_id();
  Session& stored = *sessions_.emplace(call_id, std::move(session)).first->second;
  by_remote_ssrc_.assign(offer->audio.ssrc, &stored.media);
  ++answered_;
}

Message SipReceiver::answer_ok(const Message& invite,
                               std::shared_ptr<const sip::DialogIdentity> tagged,
                               const MediaLeg& media) const {
  Sdp answer_sdp;
  answer_sdp.connection_host = sip_host();
  answer_sdp.audio.rtp_port = 20'000;
  answer_sdp.audio.payload_types = {media.codec().payload_type};
  answer_sdp.audio.ssrc = media.local_ssrc();
  Message ok = Message::response_to(invite, sip::status::kOk);
  ok.set_identity(std::move(tagged));
  ok.set_contact(sip::Uri{invite.request_uri().user(), sip_host()});
  ok.set_body(answer_sdp.to_string(), "application/sdp");
  return ok;
}

void SipReceiver::set_telemetry(telemetry::Telemetry* tel) {
  sip::SipEndpoint::set_telemetry(tel);
  tracer_ = tel == nullptr ? nullptr : tel->tracer();
}

void SipReceiver::publish(telemetry::MetricsRegistry& reg) const {
  sip::SipEndpoint::publish(reg);
  reg.counter("pbxcap_receiver_calls_answered_total", {}, "Calls answered by the receiver host")
      .add(answered_);
  reg.counter("pbxcap_receiver_rejected_488_total", {},
              "Offers rejected for lack of codec overlap")
      .add(rejected_488_);
  publish_rtp_sent(reg, rtp_packets_sent());
}

std::uint64_t SipReceiver::rtp_packets_sent() const noexcept {
  std::uint64_t sent = rtp_sent_ended_;
  for (const auto& [call_id, session] : sessions_) sent += session->media.packets_sent();
  return sent;
}

void SipReceiver::handle_ack(const Message& ack) {
  const auto it = sessions_.find(ack.call_id());
  if (it == sessions_.end()) return;
  Session& session = *it->second;
  if (session.media.started() || session.media_dst == net::kInvalidNode) return;
  // Same track key as the caller side: in single-process runs both media
  // directions stack on the call's journey row.
  const std::uint64_t track =
      tracer_ == nullptr ? 0
                         : tracer_->track_id(util::format(
                               "call-%llu", static_cast<unsigned long long>(session.call_index)));
  session.media.start(*this, session.media_dst, scenario_.rtcp ? &rtcp_rng_ : nullptr, track);
}

void SipReceiver::handle_bye(const Message& req, sip::ServerTransaction& txn) {
  const auto it = sessions_.find(req.call_id());
  if (it == sessions_.end()) {
    txn.respond(Message::response_to(req, 481));  // Call/Transaction Does Not Exist
    return;
  }
  txn.respond(Message::response_to(req, sip::status::kOk));
  Session& session = *it->second;
  end_leg(session.media);
  if (session.report_quality) finished_[session.call_index] = session.media.heard();
  by_remote_ssrc_.erase(session.media.remote_ssrc());
  sessions_.erase(it);
}

const HeardQuality* SipReceiver::finished(std::uint64_t call_index) const {
  const auto it = finished_.find(call_index);
  return it == finished_.end() ? nullptr : &it->second;
}

}  // namespace pbxcap::loadgen
