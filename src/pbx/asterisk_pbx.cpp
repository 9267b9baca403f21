#include "pbx/asterisk_pbx.hpp"

#include <algorithm>

#include "sim/profile.hpp"

#include "rtp/codec.hpp"
#include "rtp/packet.hpp"
#include "rtp/rtcp.hpp"
#include "util/strings.hpp"

namespace pbxcap::pbx {

using sip::Message;
using sip::Method;
using sip::Sdp;

AsteriskPbx::AsteriskPbx(PbxConfig config, sim::Simulator& simulator,
                         sip::HostResolver& resolver)
    : sip::SipEndpoint{"asterisk", config.host, simulator, resolver},
      config_{std::move(config)},
      channels_{config_.max_channels},
      cpu_{config_.cpu},
      cac_{config_.cac},
      media_ports_{config_.rtp_port_min, config_.rtp_port_max},
      acd_{config_.acd, simulator} {
  transactions().on_request = [this](const Message& req, sip::ServerTransaction& txn) {
    handle_request(req, txn);
  };
  transactions().on_ack = [](const Message&) { /* leg A established; nothing to do */ };

  acd_.set_hooks(AcdSubsystem::Hooks{
      .serve = [this](const Message& req, sip::ServerTransaction& txn, std::size_t cdr,
                      std::size_t qi, std::uint32_t agent) {
        return acd_serve(req, txn, cdr, qi, agent);
      },
      .reject = [this](const Message& req, sip::ServerTransaction& txn, std::size_t cdr,
                       int status, Disposition disposition) {
        cdrs_.close(cdr, disposition, network()->simulator().now());
        reject(req, txn, status);
      },
      .voicemail = [this](const Message& req, sip::ServerTransaction& txn, std::size_t cdr,
                          std::size_t qi) { return start_voicemail(req, txn, cdr, qi); },
      .announce = [this](const Message& req, sip::ServerTransaction& txn,
                         std::size_t position) {
        // 182 Queued with the caller's position; keeps the INVITE transaction
        // in Proceeding (no Timer B pressure) for as long as they wait.
        Message update = Message::response_to(req, 182);
        update.to().tag = new_tag();
        update.add_header("X-Queue-Position", std::to_string(position));
        txn.respond(std::move(update));
      },
  });
}

void AsteriskPbx::set_telemetry(telemetry::Telemetry* tel) {
  sip::SipEndpoint::set_telemetry(tel);
  tm_invites_ = tm_blocked_policy_ = tm_blocked_cac_ = tm_blocked_channels_ = tm_answered_ =
      tm_failed_ = tm_rtp_relayed_ = tm_rtp_transcoded_ = tm_rtp_dropped_ = tm_overload_503_ =
          tm_sip_queue_dropped_ = nullptr;
  tm_active_channels_ = nullptr;
  tracer_ = nullptr;
  acd_.set_telemetry(tel);  // nulls its own handles on a disabled registry
  if (tel == nullptr) return;
  auto& reg = tel->registry();
  tm_invites_ = &reg.counter("pbxcap_pbx_invites_total", {},
                             "INVITEs reaching the PBX admission path");
  tm_blocked_policy_ =
      &reg.counter("pbxcap_pbx_calls_blocked_total", {{"reason", "policy"}},
                   "Calls rejected by admission control, by reason");
  tm_blocked_cac_ = &reg.counter("pbxcap_pbx_calls_blocked_total", {{"reason", "cac"}});
  tm_blocked_channels_ = &reg.counter("pbxcap_pbx_calls_blocked_total", {{"reason", "channels"}});
  tm_answered_ = &reg.counter("pbxcap_pbx_calls_answered_total", {},
                              "Bridged calls that reached 200 OK on leg A");
  tm_failed_ = &reg.counter("pbxcap_pbx_calls_failed_total", {},
                            "Bridges folded on a leg B error or timeout");
  tm_rtp_relayed_ = &reg.counter("pbxcap_pbx_rtp_relayed_total", {},
                                 "RTP/RTCP packets relayed between call legs");
  tm_rtp_transcoded_ = &reg.counter("pbxcap_pbx_rtp_transcoded_total", {},
                                    "Relayed media frames that paid transcode work");
  tm_rtp_dropped_ = &reg.counter("pbxcap_pbx_rtp_dropped_total", {},
                                 "RTP/RTCP packets dropped for lack of a session");
  tm_overload_503_ = &reg.counter("pbxcap_pbx_overload_rejections_total", {},
                                  "INVITEs shed by the 503+Retry-After overload gate");
  tm_sip_queue_dropped_ = &reg.counter("pbxcap_pbx_sip_queue_dropped_total", {},
                                       "SIP messages dropped on service-queue overflow");
  tm_active_channels_ =
      &reg.gauge("pbxcap_pbx_active_channels", {}, "Channels currently held by bridges");
  tracer_ = tel->tracer();
  if (tracer_ != nullptr) {
    span_setup_name_ = tracer_->name_id("call.setup");
    span_media_name_ = tracer_->name_id("call.media");
    span_teardown_name_ = tracer_->name_id("call.teardown");
  }
}

void AsteriskPbx::send_sip(std::shared_ptr<const sip::SipPayload> payload, net::NodeId dst) {
  cpu_.on_sip_message(network() != nullptr ? network()->simulator().now() : TimePoint{});
  sip::SipEndpoint::send_sip(std::move(payload), dst);
}

void AsteriskPbx::on_receive(const net::Packet& pkt) {
  const TimePoint now = network()->simulator().now();
  if (now < dead_until_) {
    // Crashed: the host is off the network until restart.
    dropped_dead_ += pkt.batch;
    return;
  }
  if (now < stall_until_) {
    if (pkt.kind == net::PacketKind::kSip) {
      // The socket buffer holds signalling across the stall; it is all
      // processed in arrival order the instant the process unwedges.
      auto deferred = [this, pkt] { on_receive(pkt); };
      static_assert(sim::Callback::stores_inline<decltype(deferred)>(),
                    "stall deferral closure must stay on the allocation-free SBO path");
      const sim::CategoryScope cat_scope{network()->simulator(), sim::Category::kPbx};
      network()->simulator().schedule_at(stall_until_, std::move(deferred));
    } else {
      rtp_dropped_stall_ += pkt.batch;  // the relay thread is wedged; media overruns
    }
    return;
  }
  if (pkt.kind == net::PacketKind::kRtp || pkt.kind == net::PacketKind::kRtcp) {
    relay_rtp(pkt);
    return;
  }
  if (pkt.kind == net::PacketKind::kSip) {
    cpu_.on_sip_message(now);
    if (config_.sip_service.enabled) {
      enqueue_sip(pkt);
      return;
    }
  }
  sip::SipEndpoint::on_receive(pkt);
}

void AsteriskPbx::enqueue_sip(const net::Packet& pkt) {
  auto& sim = network()->simulator();
  const TimePoint now = sim.now();

  // Overload gate ahead of the queue: shedding a new INVITE with a stateless
  // 503 costs almost nothing, unlike a full rejection that would first wait
  // in line and then run the expensive error path.
  if (const auto* payload = pkt.payload_as<sip::SipPayload>();
      payload != nullptr && payload->msg.is_request() && payload->msg.top_via() != nullptr) {
    if (payload->msg.method() == Method::kAck &&
        shed_invite_branches_.erase(payload->msg.top_via()->branch) > 0) {
      // ACK for a gate 503 (non-2xx ACK reuses the INVITE branch). Absorbed
      // at the front door: queueing it would hand every shed call a service
      // slot after all, and the ACK flood would re-congest the queue the
      // gate exists to protect.
      return;
    }
    if (overload_gate_rejects(payload->msg, now)) {
      ++overload_rejections_;
      if (tm_overload_503_ != nullptr) tm_overload_503_->add();
      shed_invite_branches_.insert(payload->msg.top_via()->branch);
      Message resp = Message::response_to(payload->msg, sip::status::kServiceUnavailable);
      resp.to().tag = new_tag();
      resp.add_header("Retry-After",
                      util::format("%lld", static_cast<long long>(
                                               config_.overload.retry_after.to_seconds() + 0.5)));
      send_sip(std::make_shared<const sip::SipPayload>(std::move(resp)), pkt.src);
      return;
    }
  }

  if (sip_backlog_ >= config_.sip_service.queue_limit) {
    ++sip_queue_dropped_;
    if (tm_sip_queue_dropped_ != nullptr) tm_sip_queue_dropped_->add();
    return;
  }
  sip_busy_until_ = std::max(now, sip_busy_until_) + config_.sip_service.service_time;
  ++sip_backlog_;
  if (const auto* payload = pkt.payload_as<sip::SipPayload>();
      payload != nullptr && payload->msg.is_request() &&
      payload->msg.method() == Method::kInvite && payload->msg.top_via() != nullptr) {
    queued_invite_branches_.insert(payload->msg.top_via()->branch);
  }
  auto service = [this, pkt, epoch = boot_epoch_] {
    if (epoch != boot_epoch_) return;  // message died with the crashed process
    --sip_backlog_;
    if (const auto* payload = pkt.payload_as<sip::SipPayload>();
        payload != nullptr && payload->msg.is_request() &&
        payload->msg.method() == Method::kInvite && payload->msg.top_via() != nullptr) {
      queued_invite_branches_.erase(payload->msg.top_via()->branch);
    }
    if (network()->simulator().now() < dead_until_) {
      ++dropped_dead_;
      return;
    }
    sip::SipEndpoint::on_receive(pkt);
  };
  static_assert(sim::Callback::stores_inline<decltype(service)>(),
                "SIP service closure must stay on the allocation-free SBO path");
  const sim::CategoryScope cat_scope{sim, sim::Category::kPbx};
  sim.schedule_at(sip_busy_until_, std::move(service));
}

bool AsteriskPbx::overload_gate_rejects(const Message& msg, TimePoint now) const {
  const OverloadControlConfig& oc = config_.overload;
  if (!oc.enabled || !msg.is_request() || msg.method() != Method::kInvite) return false;
  // A retransmission of an in-progress INVITE is absorbed by its server
  // transaction — 503ing it out of band would kill a call already being
  // set up. Same for an INVITE still waiting in the service queue: the 503
  // would race the queued original (caller gives up, PBX admits anyway).
  // A late retransmission of an answered call is answered from its bridge.
  if (transactions().matches_server_transaction(msg)) return false;
  if (bridges_.contains(msg.call_id())) return false;
  if (msg.top_via() != nullptr &&
      queued_invite_branches_.find(msg.top_via()->branch) != queued_invite_branches_.end()) {
    return false;
  }
  if (sip_backlog_ > oc.queue_threshold) return true;
  // Also shed while the channel pool is exhausted. This is the RFC 6357 cost
  // argument in miniature: a doomed INVITE that reaches the worker pays
  // service_time + reject_penalty for nothing, while the gate's stateless 503
  // is free — and Retry-After turns the excess demand into a paced retry
  // stream that refills channels as they free up.
  if (channels_.available() == 0) return true;
  return oc.cpu_threshold < 1.0 && cpu_.utilization_at(now) >= oc.cpu_threshold;
}

void AsteriskPbx::stall_for(Duration stall) {
  const TimePoint now = network()->simulator().now();
  ++stalls_;
  stall_until_ = std::max(stall_until_, now + stall);
}

void AsteriskPbx::crash_restart(Duration dead_for) {
  const TimePoint now = network()->simulator().now();
  ++crashes_;
  dead_until_ = std::max(dead_until_, now + dead_for);
  ++boot_epoch_;       // orphans every queued service event
  sip_backlog_ = 0;    // the in-memory message queue dies with the process
  sip_busy_until_ = TimePoint{};
  queued_invite_branches_.clear();
  shed_invite_branches_.clear();

  // Channel-state loss: every waiting and bridged call is simply gone.
  // No SIP goes out — a dead process cannot send BYEs or finals; the far
  // ends discover via their own timers. The ACD is reset first so the
  // bridge-close notifications below find idle agents and empty queues, and
  // the order the bridges close in changes no output.
  acd_.crash([this, now](std::size_t cdr) { cdrs_.close(cdr, Disposition::kFailed, now); });
  while (!bridges_.empty()) close_bridge(bridges_.begin()->second, Disposition::kFailed);
  transactions().reset();
}

// ------------------------------------------------------------- signalling ----

void AsteriskPbx::handle_request(const Message& req, sip::ServerTransaction& txn) {
  switch (req.method()) {
    case Method::kInvite:
      handle_invite(req, txn);
      return;
    case Method::kBye:
      handle_bye(req, txn);
      return;
    case Method::kRegister:
      handle_register(req, txn);
      return;
    case Method::kOptions:
      txn.respond(Message::response_to(req, sip::status::kOk));
      return;
    default:
      reject(req, txn, 501);
      return;
  }
}

void AsteriskPbx::reject(const Message& req, sip::ServerTransaction& txn, int code,
                         Duration retry_after) {
  const TimePoint now = network()->simulator().now();
  cpu_.on_error_event(now);
  // Under the queued-service model a full rejection occupies the worker for
  // the error-path surcharge — the cost asymmetry that makes the cheap
  // overload gate worthwhile (every message behind this one waits longer).
  if (config_.sip_service.enabled && config_.sip_service.reject_penalty > Duration::zero()) {
    sip_busy_until_ = std::max(now, sip_busy_until_) + config_.sip_service.reject_penalty;
  }
  Message resp = Message::response_to(req, code);
  resp.to().tag = new_tag();
  if (retry_after > Duration::zero()) {
    resp.add_header("Retry-After", util::format("%lld", static_cast<long long>(
                                                            retry_after.to_seconds() + 0.5)));
  }
  txn.respond(std::move(resp));
}

void AsteriskPbx::handle_invite(const Message& req, sip::ServerTransaction& txn) {
  // An answered call's Call-ID: an INVITE retransmission that outlived its
  // server transaction (which ends on the 2xx). Resend leg A's 200 OK and
  // open nothing new.
  if (const auto it = bridges_.find(req.call_id());
      it != bridges_.end() && it->second.answered()) {
    txn.respond(it->second.msg_a);
    return;
  }
  if (tm_invites_ != nullptr) tm_invites_->add();
  if (!config_.require_auth) {
    admit_invite(req, txn);
    return;
  }
  const auto proceed = [this, req, &txn] {
    const auto user = directory_.lookup(req.from().uri.user());
    if (!user || !user->allowed) {
      const std::size_t cdr = cdrs_.open(req.call_id(), req.from().uri.user(),
                                         req.request_uri().user(),
                                         network()->simulator().now());
      cdrs_.close(cdr, Disposition::kRejected, network()->simulator().now());
      reject(req, txn, 403);
      return;
    }
    admit_invite(req, txn);
  };
  if (directory_.lookup_latency() > Duration::zero()) {
    const sim::CategoryScope cat_scope{network()->simulator(), sim::Category::kPbx};
    network()->simulator().schedule_in(directory_.lookup_latency(), proceed);
  } else {
    proceed();
  }
}

void AsteriskPbx::handle_register(const Message& req, sip::ServerTransaction& txn) {
  const std::string& user = req.from().uri.user();
  if (config_.require_auth) {
    const auto entry = directory_.lookup(user);
    if (!entry || !entry->allowed) {
      reject(req, txn, 403);
      return;
    }
  }
  std::int64_t expires = Registrar::kDefaultExpiresSeconds;
  if (const std::string* header = req.header("Expires")) {
    std::uint64_t value = 0;
    if (util::parse_u64(*header, value)) expires = static_cast<std::int64_t>(value);
  }
  if (!req.contact()) {
    reject(req, txn, sip::status::kBadRequest);
    return;
  }
  registrar_.bind(user, *req.contact(), expires, network()->simulator().now());
  Message ok = Message::response_to(req, sip::status::kOk);
  ok.add_header("Expires", std::to_string(expires));
  txn.respond(std::move(ok));
}

void AsteriskPbx::admit_invite(const Message& req, sip::ServerTransaction& txn) {
  const TimePoint now = network()->simulator().now();
  const std::string& caller_user = req.from().uri.user();
  const std::size_t cdr =
      cdrs_.open(req.call_id(), caller_user, req.request_uri().user(), now);

  // Per-user call policy: a Directory entry may cap concurrent calls.
  if (const auto user = directory_.lookup(caller_user);
      user && user->max_concurrent_calls > 0) {
    const auto it = active_calls_by_user_.find(caller_user);
    if (it != active_calls_by_user_.end() && it->second >= user->max_concurrent_calls) {
      ++policy_rejections_;
      if (tm_blocked_policy_ != nullptr) tm_blocked_policy_->add();
      cdrs_.close(cdr, Disposition::kRejected, now);
      reject(req, txn, sip::status::kBusyHere);
      return;
    }
  }

  // ACD traffic class: "queue-<name>" destinations are admitted by the named
  // queue's agent pool (and the channel pool at serve time), not by the plain
  // blocked-calls-cleared path below.
  if (acd_.enabled()) {
    if (const auto qi = acd_.queue_for_user(req.request_uri().user())) {
      acd_.offer(*qi, req, txn, cdr);
      return;
    }
  }

  // Predictive CAC (reference [8]): reject while the measured offered load
  // predicts blocking above target, before the pool is exhausted.
  if (config_.admission == AdmissionPolicy::kErlangPredictive &&
      !cac_.admit(now, channels_.capacity())) {
    if (tm_blocked_cac_ != nullptr) tm_blocked_cac_->add();
    cdrs_.close(cdr, Disposition::kCongestion, now);
    reject(req, txn, sip::status::kServiceUnavailable, blocked_retry_after());
    return;
  }

  // Admission control: one channel per bridged call.
  if (!channels_.try_acquire()) {
    if (tm_blocked_channels_ != nullptr) tm_blocked_channels_->add();
    cdrs_.close(cdr, Disposition::kCongestion, now);
    reject(req, txn, sip::status::kServiceUnavailable, blocked_retry_after());
    return;
  }

  start_bridge(req, txn, cdr);
}

AsteriskPbx::Bridge* AsteriskPbx::start_bridge(const Message& req, sip::ServerTransaction& txn,
                                               std::size_t cdr) {
  const TimePoint now = network()->simulator().now();
  const auto refuse = [&](Disposition disposition, int code,
                          Duration retry_after = Duration::zero()) {
    channels_.release();
    cdrs_.close(cdr, disposition, now);
    reject(req, txn, code, retry_after);
    return nullptr;
  };
  // A second INVITE merged onto a call that already has a bridge (same
  // Call-ID, another branch): RFC 3261 §8.2.2.2's 482.
  if (bridges_.contains(req.call_id())) return refuse(Disposition::kRejected, 482);

  // Location service first (registered contacts), then the static dialplan —
  // the order Asterisk resolves SIP peers.
  std::optional<std::string> route;
  if (const auto binding = registrar_.lookup(req.request_uri().user(), now)) {
    route = binding->host();
  } else {
    route = dialplan_.route(req.request_uri().user());
  }
  if (!route) return refuse(Disposition::kRejected, sip::status::kNotFound);

  const auto offer = Sdp::parse(req.body());
  if (!offer || offer->audio.payload_types.empty()) {
    return refuse(Disposition::kRejected, sip::status::kBadRequest);
  }

  // Codec filtering, as Asterisk applies its allow/disallow lists.
  Sdp filtered = *offer;
  std::erase_if(filtered.audio.payload_types, [this](std::uint8_t pt) {
    return std::find(config_.allowed_payload_types.begin(), config_.allowed_payload_types.end(),
                     pt) == config_.allowed_payload_types.end();
  });
  if (filtered.audio.payload_types.empty()) {
    return refuse(Disposition::kRejected, 488);  // Not Acceptable Here
  }

  // One anchor port per leg, held for the bridge's lifetime. Exhaustion is a
  // hard, explicit rejection — the old wrapping counter silently reissued
  // live ports once ~5,000 calls were bridged concurrently.
  const std::uint16_t port_a = media_ports_.allocate();
  const std::uint16_t port_b = media_ports_.allocate();
  if (port_a == 0 || port_b == 0) {
    if (port_a != 0) media_ports_.release(port_a);
    if (port_b != 0) media_ports_.release(port_b);
    return refuse(Disposition::kCongestion, sip::status::kServiceUnavailable,
                  blocked_retry_after());
  }

  Bridge& bridge = bridges_[req.call_id()];
  bridge.port_a = port_a;
  bridge.port_b = port_b;
  bridge.call_id_a = req.call_id();
  bridge.caller_user = req.from().uri.user();
  ++active_calls_by_user_[bridge.caller_user];
  bridge.caller_host = req.from().uri.host();
  bridge.msg_a = req;
  bridge.invite_txn_a = &txn;
  bridge.to_tag_a = new_tag();
  bridge.ssrc_a = offer->audio.ssrc;
  bridge.pt_offer_a = filtered.audio.payload_types.front();
  bridge.caller_node = resolver().resolve(bridge.caller_host);
  bridge.callee_host = *route;
  bridge.cdr = cdr;

  // 100 Trying toward the caller (the Fig. 2 ladder's first response).
  txn.respond(Message::response_to(req, sip::status::kTrying));

  // Re-originate leg B with anchored media.
  // "b2b-<n>@<host>": 4 + at most 20 digits + 1 + host.
  bridge.call_id_b.assign("b2b-");
  bridge.call_id_b.reserve(sip_host().size() + 25);
  util::append_uint(bridge.call_id_b, ++b2b_counter_);
  bridge.call_id_b += '@';
  bridge.call_id_b += sip_host();
  Message invite_b = Message::request(Method::kInvite, sip::Uri{req.request_uri().user(), *route});
  invite_b.from() = sip::NameAddr{sip::Uri{req.from().uri.user(), sip_host()}, new_tag()};
  invite_b.to() = sip::NameAddr{sip::Uri{req.request_uri().user(), *route}, ""};
  invite_b.set_call_id(bridge.call_id_b);
  invite_b.set_cseq({1, Method::kInvite});
  invite_b.set_contact(sip::Uri{"asterisk", sip_host()});
  invite_b.set_body(anchored_sdp(filtered, bridge.port_b).to_string(), "application/sdp");

  by_call_id_b_.emplace(bridge.call_id_b, &bridge);
  if (tm_active_channels_ != nullptr) {
    tm_active_channels_->set(static_cast<double>(channels_.in_use()));
  }
  if (tracer_ != nullptr) {
    bridge.span_track = tracer_->track_id(bridge.call_id_a);
    bridge.setup_span = tracer_->begin(span_setup_name_, bridge.span_track, now);
  }

  const sip::ClientTransaction& txn_b = send_request_to(
      std::move(invite_b), *route,
      [this, call_id_b = bridge.call_id_b](const Message& resp) {
        on_leg_b_response(call_id_b, resp);
      },
      [this, call_id_b = bridge.call_id_b] { on_leg_b_timeout(call_id_b); });
  bridge.invite_b = txn_b.request_payload();
  return &bridge;
}

AcdSubsystem::ServeOutcome AsteriskPbx::acd_serve(const Message& req,
                                                  sip::ServerTransaction& txn, std::size_t cdr,
                                                  std::size_t queue_index,
                                                  std::uint32_t agent_id) {
  if (!channels_.try_acquire()) return AcdSubsystem::ServeOutcome::kNoChannel;
  Bridge* bridge = start_bridge(req, txn, cdr);
  if (bridge == nullptr) return AcdSubsystem::ServeOutcome::kFailed;
  bridge->acd_tracked = true;
  bridge->acd_queue = queue_index;
  bridge->acd_agent = agent_id;
  return AcdSubsystem::ServeOutcome::kBridged;
}

bool AsteriskPbx::start_voicemail(const Message& req, sip::ServerTransaction& txn,
                                  std::size_t cdr, std::size_t /*queue_index*/) {
  const TimePoint now = network()->simulator().now();
  const auto offer = Sdp::parse(req.body());
  if (!offer || bridges_.contains(req.call_id())) return false;
  if (!channels_.try_acquire()) return false;
  const std::uint16_t port = media_ports_.allocate();
  if (port == 0) {
    channels_.release();
    return false;
  }

  Bridge& bridge = bridges_[req.call_id()];
  bridge.call_id_a = req.call_id();
  bridge.caller_user = req.from().uri.user();
  ++active_calls_by_user_[bridge.caller_user];
  bridge.caller_host = req.from().uri.host();
  bridge.to_tag_a = new_tag();
  bridge.ssrc_a = offer->audio.ssrc;
  bridge.caller_node = resolver().resolve(bridge.caller_host);
  bridge.cdr = cdr;
  bridge.voicemail = true;
  bridge.port_a = port;

  // Answer straight into the "recording": one-way media, no leg B. The
  // answer advertises no SSRC — nothing will ever flow back to the caller.
  Message ok = Message::response_to(req, sip::status::kOk);
  ok.to().tag = bridge.to_tag_a;
  ok.set_contact(sip::Uri{"asterisk", sip_host()});
  Sdp answer = anchored_sdp(*offer, port);
  answer.audio.ssrc = 0;
  ok.set_body(answer.to_string(), "application/sdp");
  bridge.dialog_a = sip::Dialog::from_uas(req, ok);
  txn.respond(ok);
  bridge.msg_a = std::move(ok);

  register_media(bridge);
  cdrs_.mark_answered(cdr, now);
  ++voicemail_calls_;
  if (tm_answered_ != nullptr) tm_answered_->add();
  if (tm_active_channels_ != nullptr) {
    tm_active_channels_->set(static_cast<double>(channels_.in_use()));
  }
  return true;
}

sip::Sdp AsteriskPbx::anchored_sdp(const Sdp& original, std::uint16_t port) {
  Sdp anchored = original;
  anchored.connection_host = sip_host();
  anchored.audio.rtp_port = port;
  return anchored;
}

void AsteriskPbx::on_leg_b_response(const std::string& call_id_b, const Message& resp) {
  const auto it = by_call_id_b_.find(call_id_b);
  if (it == by_call_id_b_.end()) return;  // the bridge closed first
  Bridge& bridge = *it->second;
  const int code = resp.status_code();

  if (sip::is_provisional(code)) {
    if (code == sip::status::kRinging && bridge.invite_txn_a != nullptr) {
      Message ringing = Message::response_to(bridge.msg_a, sip::status::kRinging);
      ringing.to().tag = bridge.to_tag_a;
      bridge.invite_txn_a->respond(std::move(ringing));
    }
    return;
  }

  if (sip::is_success(code)) {
    // Leg B answered: complete leg A and start relaying.
    bridge.dialog_b = sip::Dialog::from_uac(bridge.invite_b->msg, resp);
    send_stateless_to(bridge.dialog_b.make_ack(), bridge.callee_host);

    const auto answer = Sdp::parse(resp.body());
    if (answer) bridge.ssrc_b = answer->audio.ssrc;
    bridge.callee_node = resolver().resolve(bridge.callee_host);

    Message ok = Message::response_to(bridge.msg_a, sip::status::kOk);
    ok.to().tag = bridge.to_tag_a;
    ok.set_contact(sip::Uri{"asterisk", sip_host()});
    if (answer) {
      Sdp answer_a = *answer;
      // Asterisk's translator path: when the callee answered a codec other
      // than the caller's preferred one, answer leg A with the caller's
      // choice and transcode between the legs. Every relayed media frame on
      // this bridge then pays decode+encode CPU and is re-framed to the
      // out-leg codec's wire size. Single-codec offers always match, so
      // classic scenarios never engage this path.
      if (!answer->audio.payload_types.empty()) {
        const std::uint8_t pt_b = answer->audio.payload_types.front();
        if (pt_b != bridge.pt_offer_a) {
          const auto codec_a = rtp::codec_by_payload_type(bridge.pt_offer_a);
          const auto codec_b = rtp::codec_by_payload_type(pt_b);
          if (codec_a && codec_b) {
            bridge.transcoded = true;
            bridge.transcode_work = codec_a->transcode_cost + codec_b->transcode_cost;
            bridge.rtp_bytes_to_caller = codec_a->wire_bytes();
            bridge.rtp_bytes_to_callee = codec_b->wire_bytes();
            answer_a.audio.payload_types = {bridge.pt_offer_a};
            ++transcoded_bridges_;
          }
        }
      }
      ok.set_body(anchored_sdp(answer_a, bridge.port_a).to_string(), "application/sdp");
    }
    bridge.dialog_a = sip::Dialog::from_uas(bridge.msg_a, ok);
    if (bridge.invite_txn_a != nullptr) {
      bridge.invite_txn_a->respond(ok);
      bridge.invite_txn_a = nullptr;  // 2xx terminates the transaction
    }
    bridge.msg_a = std::move(ok);

    cdrs_.mark_answered(bridge.cdr, network()->simulator().now());
    if (tm_answered_ != nullptr) tm_answered_->add();
    if (tracer_ != nullptr) {
      const TimePoint now = network()->simulator().now();
      tracer_->end(bridge.setup_span, now);
      bridge.setup_span = 0;
      bridge.media_span = tracer_->begin(span_media_name_, bridge.span_track, now);
    }
    register_media(bridge);
    return;
  }

  // Error final from leg B: mirror it on leg A and fold the bridge.
  cpu_.on_error_event(network()->simulator().now());
  if (tm_failed_ != nullptr) tm_failed_->add();
  if (bridge.invite_txn_a != nullptr) {
    Message err = Message::response_to(bridge.msg_a, code);
    err.to().tag = bridge.to_tag_a;
    bridge.invite_txn_a->respond(std::move(err));
  }
  close_bridge(bridge, Disposition::kFailed);
}

void AsteriskPbx::on_leg_b_timeout(const std::string& call_id_b) {
  const auto it = by_call_id_b_.find(call_id_b);
  if (it == by_call_id_b_.end()) return;
  Bridge& bridge = *it->second;
  cpu_.on_error_event(network()->simulator().now());
  if (tm_failed_ != nullptr) tm_failed_->add();
  if (bridge.invite_txn_a != nullptr) {
    Message err = Message::response_to(bridge.msg_a, 504);
    err.to().tag = bridge.to_tag_a;
    bridge.invite_txn_a->respond(std::move(err));
  }
  close_bridge(bridge, Disposition::kFailed);
}

void AsteriskPbx::handle_bye(const Message& req, sip::ServerTransaction& txn) {
  Bridge* bridge = nullptr;
  if (const auto it = bridges_.find(req.call_id()); it != bridges_.end()) {
    bridge = &it->second;
  } else if (const auto it_b = by_call_id_b_.find(req.call_id()); it_b != by_call_id_b_.end()) {
    bridge = it_b->second;
  }
  if (bridge == nullptr) {
    reject(req, txn, 481);  // Call/Transaction Does Not Exist
    return;
  }
  const bool is_leg_a = req.call_id() == bridge->call_id_a;

  // Voicemail legs have no leg B: answer the BYE and fold.
  if (bridge->voicemail) {
    txn.respond(Message::response_to(req, sip::status::kOk));
    close_bridge(*bridge, Disposition::kAnswered);
    return;
  }

  // Answer the BYE at once (Asterisk does not hold the teardown of one leg
  // hostage to the other), forward it on the opposite leg, and fold the
  // bridge. The forwarded transaction completes on its own.
  txn.respond(Message::response_to(req, sip::status::kOk));

  // Teardown span: BYE received until the forwarded BYE's transaction
  // resolves on the other leg. The id is captured by value — the bridge is
  // folded below, long before the response arrives.
  telemetry::SpanTracer::SpanId teardown = 0;
  if (tracer_ != nullptr) {
    const TimePoint now = network()->simulator().now();
    tracer_->end(bridge->media_span, now);
    bridge->media_span = 0;
    teardown = tracer_->begin(span_teardown_name_, bridge->span_track, now);
  }

  sip::Dialog& other = is_leg_a ? bridge->dialog_b : bridge->dialog_a;
  const std::string& other_host = is_leg_a ? bridge->callee_host : bridge->caller_host;
  send_request_to(
      other.make_request(Method::kBye), other_host,
      [this, teardown](const Message&) {
        if (tracer_ != nullptr) tracer_->end(teardown, network()->simulator().now());
      },
      [this, teardown] {
        cpu_.on_error_event(network()->simulator().now());
        if (tracer_ != nullptr) tracer_->end(teardown, network()->simulator().now());
      });

  close_bridge(*bridge, Disposition::kAnswered);
}

void AsteriskPbx::register_media(Bridge& bridge) {
  if (bridge.ssrc_a != 0) by_ssrc_[bridge.ssrc_a] = &bridge;
  if (bridge.ssrc_b != 0) by_ssrc_[bridge.ssrc_b] = &bridge;
}

void AsteriskPbx::relay_rtp(const net::Packet& pkt) {
  const TimePoint now = network()->simulator().now();
  const auto drop = [this, &pkt] {
    rtp_dropped_no_session_ += pkt.batch;
    if (tm_rtp_dropped_ != nullptr) tm_rtp_dropped_->add(pkt.batch);
  };
  // Media and control share the SSRC routing table: RTCP for a stream
  // follows the same path as its RTP (RFC 3550 pairs the two flows).
  std::uint32_t ssrc = 0;
  const rtp::RtpBatchPayload* batch = nullptr;
  bool is_media = false;
  if (pkt.fluid) {
    batch = pkt.payload_as<rtp::RtpBatchPayload>();
    if (batch == nullptr) {
      cpu_.on_rtp_packet(now);
      drop();
      return;
    }
    ssrc = batch->first.ssrc;
    is_media = true;
  } else if (const auto* rtp = pkt.payload_as<rtp::RtpPayload>()) {
    ssrc = rtp->header.ssrc;
    is_media = true;
  } else if (const auto* rtcp = pkt.payload_as<rtp::RtcpPayload>()) {
    ssrc = rtcp->routing_ssrc();
  } else {
    cpu_.on_rtp_packet(now);
    drop();
    return;
  }
  // CPU must be deposited whether or not the packet finds a live bridge
  // (the relay thread reads the header either way), but the transcode
  // surcharge only applies to media frames on a codec-mismatched bridge —
  // so resolve the bridge before metering.
  const auto it = by_ssrc_.find(ssrc);
  Bridge* routed = it != by_ssrc_.end() ? it->second : nullptr;
  const Duration extra = (routed != nullptr && routed->transcoded && is_media)
                             ? routed->transcode_work
                             : Duration::zero();
  if (batch != nullptr) {
    // Deposit the relay cost at each packet's nominal arrival instant so
    // per-second CPU buckets match per-packet mode bit for bit.
    cpu_.on_rtp_packets(batch->first_departure + pkt.path_latency, batch->spacing,
                        pkt.batch, extra);
  } else {
    cpu_.on_rtp_packet(now, extra);
  }
  if (routed == nullptr) {
    drop();
    return;
  }
  // Only answered bridges have their SSRCs routed.
  Bridge& bridge = *routed;
  if (bridge.voicemail) {
    // Terminating leg: the "recording" absorbs the caller's media at the
    // PBX (CPU cost already accrued above); nothing is relayed back.
    voicemail_rtp_absorbed_ += pkt.batch;
    return;
  }
  const bool from_caller = ssrc == bridge.ssrc_a;
  const net::NodeId dst = from_caller ? bridge.callee_node : bridge.caller_node;
  if (dst == net::kInvalidNode) {
    drop();
    return;
  }
  rtp_relayed_ += pkt.batch;
  if (tm_rtp_relayed_ != nullptr) tm_rtp_relayed_->add(pkt.batch);
  net::Packet out;
  out.dst = dst;
  out.kind = pkt.kind;
  out.fluid = pkt.fluid;
  out.batch = pkt.batch;
  out.path_latency = pkt.path_latency;
  out.size_bytes = pkt.size_bytes;
  if (bridge.transcoded && is_media) {
    // Re-framed into the out-leg codec: the relayed copy leaves at that
    // codec's wire size, not the size it arrived with.
    out.size_bytes = from_caller ? bridge.rtp_bytes_to_callee : bridge.rtp_bytes_to_caller;
    transcoded_rtp_ += pkt.batch;
    if (tm_rtp_transcoded_ != nullptr) tm_rtp_transcoded_->add(pkt.batch);
  }
  out.payload = pkt.payload;
  send(std::move(out));
}

void AsteriskPbx::close_bridge(Bridge& bridge, Disposition disposition) {
  const TimePoint now = network()->simulator().now();
  channels_.release();
  media_ports_.release(bridge.port_a);
  if (bridge.port_b != 0) media_ports_.release(bridge.port_b);  // voicemail has no leg B
  if (tm_active_channels_ != nullptr) {
    tm_active_channels_->set(static_cast<double>(channels_.in_use()));
  }
  if (tracer_ != nullptr) {
    // Failure paths can fold the bridge with lifecycle spans still open.
    tracer_->end(bridge.setup_span, now);
    tracer_->end(bridge.media_span, now);
  }
  if (const auto it = active_calls_by_user_.find(bridge.caller_user);
      it != active_calls_by_user_.end() && --it->second == 0) {
    active_calls_by_user_.erase(it);
  }
  if (bridge.ssrc_a != 0) by_ssrc_.erase(bridge.ssrc_a);
  if (bridge.ssrc_b != 0) by_ssrc_.erase(bridge.ssrc_b);
  by_call_id_b_.erase(bridge.call_id_b);
  cdrs_.close(bridge.cdr, disposition, now);
  if (disposition == Disposition::kAnswered &&
      config_.admission == AdmissionPolicy::kErlangPredictive) {
    cac_.on_call_finished(cdrs_.records()[bridge.cdr].talk_time());
  }
  const bool acd_tracked = bridge.acd_tracked;
  const std::size_t acd_queue = bridge.acd_queue;
  const std::uint32_t acd_agent = bridge.acd_agent;
  bridges_.erase(bridges_.find(bridge.call_id_a));
  // ACD last, with the bridge gone: dispatching may re-enter start_bridge.
  if (acd_tracked) {
    acd_.on_agent_released(acd_queue, acd_agent);
  } else if (acd_.enabled()) {
    acd_.on_channel_available();
  }
}

}  // namespace pbxcap::pbx
