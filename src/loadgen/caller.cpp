#include "loadgen/caller.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dispatch/dispatcher.hpp"
#include "sim/profile.hpp"
#include "rtp/fluid.hpp"
#include "sip/sdp.hpp"
#include "util/strings.hpp"

namespace pbxcap::loadgen {

using sip::Message;
using sip::Method;
using sip::Sdp;

namespace {

// 503 retry budget (see RetryPolicy): total INVITEs per call, first
// included, and the exponential backoff's growth factor and cap.
constexpr std::uint32_t kRetryMaxAttempts = 4;
constexpr double kRetryMultiplier = 2.0;
constexpr Duration kRetryMaxBackoff = Duration::seconds(16);

}  // namespace

SipCaller::SipCaller(std::string host, std::vector<std::string> pbx_hosts,
                     sim::Simulator& simulator, sip::HostResolver& resolver,
                     rtp::SsrcAllocator& ssrcs, CallScenario scenario, sim::Random rng)
    : SippHost{"sipp-client", std::move(host), simulator, resolver},
      pbx_hosts_{std::move(pbx_hosts)},
      ssrcs_{ssrcs},
      scenario_{scenario},
      rng_{rng} {
  if (pbx_hosts_.empty()) throw std::invalid_argument{"SipCaller: need at least one PBX host"};
  transactions().on_request = [](const Message&, sip::ServerTransaction& txn) {
    // The caller never expects requests (the PBX tears down via leg B BYEs
    // only when the callee hangs up first, which this generator never does).
    (void)txn;
  };
  transactions().on_ack = [](const Message&) {};
}

void SipCaller::set_telemetry(telemetry::Telemetry* tel) {
  sip::SipEndpoint::set_telemetry(tel);
  tracer_ = tel == nullptr ? nullptr : tel->tracer();
  if (tracer_ == nullptr) return;
  jn_pick_ = tracer_->name_id("dispatch.pick");
  jn_repick_ = tracer_->name_id("dispatch.repick");
  jn_reject_ = tracer_->name_id("dispatch.reject");
  jn_bench_ = tracer_->name_id("dispatch.bench");
  jn_timeout_ = tracer_->name_id("invite.timeout");
  jn_failover_ = tracer_->name_id("dispatch.failover");
  jn_setup_ = tracer_->name_id("call.setup");
}

void SipCaller::publish(telemetry::MetricsRegistry& reg) const {
  sip::SipEndpoint::publish(reg);
  reg.counter("pbxcap_caller_calls_offered_total", {}, "Calls placed by the load generator")
      .add(calls_offered());
  reg.counter("pbxcap_caller_calls_total", {{"outcome", "completed"}},
              "Finished calls by outcome")
      .add(log_.completed());
  reg.counter("pbxcap_caller_calls_total", {{"outcome", "blocked"}}).add(log_.blocked());
  reg.counter("pbxcap_caller_calls_total", {{"outcome", "failed"}}).add(log_.failed());
  reg.counter("pbxcap_caller_calls_total", {{"outcome", "abandoned"}})
      .add(log_.count(monitor::CallOutcome::kAbandoned));
  reg.counter("pbxcap_caller_retries_total", {}, "INVITE re-attempts after 503 + backoff")
      .add(retries_);
  publish_rtp_sent(reg, rtp_packets_sent());
  auto& setup_delay_ms = reg.histogram("pbxcap_caller_setup_delay_ms",
                                       telemetry::log_linear_buckets(1.0, 10'000.0, 5), {},
                                       "INVITE to 200 OK setup delay of answered calls (ms)");
  auto& mos = reg.histogram("pbxcap_caller_mos", telemetry::linear_buckets(1.0, 5.0, 8), {},
                            "Caller-heard MOS of answered calls");
  // The log is in finish order, so each sum adds in the order the calls
  // ended. Only an answered call carries a caller-heard MOS.
  for (const monitor::CallRecord& record : log_.records()) {
    if (!record.mos_caller_heard) continue;
    setup_delay_ms.observe(record.setup_delay.to_millis());
    mos.observe(*record.mos_caller_heard);
  }
}

std::uint64_t SipCaller::rtp_packets_sent() const noexcept {
  std::uint64_t sent = rtp_sent_ended_;
  for (const auto& [index, call] : calls_) sent += call->media.packets_sent();
  return sent;
}

void SipCaller::start() {
  if (started_) return;
  started_ = true;
  if (scenario_.finite_population > 0) {
    idle_users_ = scenario_.finite_population;
  }
  schedule_next_arrival();
}

void SipCaller::schedule_next_arrival() {
  const TimePoint now = network()->simulator().now();
  const TimePoint window_end = TimePoint::at(scenario_.placement_window);
  if (now >= window_end || window_closed_) {
    window_closed_ = true;
    return;
  }
  if (scenario_.max_calls != 0 && next_call_index_ >= scenario_.max_calls) return;

  double rate = scenario_.arrival_rate_per_s;
  if (scenario_.finite_population > 0) {
    rate = scenario_.per_user_rate_per_s * static_cast<double>(idle_users_);
    if (rate <= 0.0) return;  // every user busy; resumes on user_became_idle()
  }
  const Duration gap = Duration::from_seconds(rng_.exponential(1.0 / rate));
  const sim::CategoryScope cat_scope{network()->simulator(), sim::Category::kLoadgen};
  arrival_timer_ = network()->simulator().schedule_in(gap, [this] {
    if (network()->simulator().now() < TimePoint::at(scenario_.placement_window)) {
      place_call();
    }
    schedule_next_arrival();
  });
}

void SipCaller::user_became_idle() {
  ++idle_users_;
  // Re-arm the arrival process: the aggregate rate just changed. Cancelling
  // and redrawing is valid because the exponential is memoryless.
  if (started_ && !window_closed_ && arrival_timer_ != 0) {
    network()->simulator().cancel(arrival_timer_);
    arrival_timer_ = 0;
    schedule_next_arrival();
  }
}

void SipCaller::place_call() {
  if (scenario_.finite_population > 0) {
    if (idle_users_ == 0) return;
    --idle_users_;
  }

  const std::uint64_t index = next_call_index_++;
  auto call = std::make_unique<Call>();
  call->index = index;
  call->offered_at = network()->simulator().now();
  call->hold = draw_hold_time(rng_, scenario_.hold_model, scenario_.hold_time);
  call->media = MediaLeg{draw_codec(), ssrcs_.allocate()};
  // ACD traffic class. Draw only when mixing (fraction in (0,1)): default
  // single-class runs must consume the exact same RNG sequence as before.
  if (scenario_.acd.fraction >= 1.0) {
    call->acd = true;
  } else if (scenario_.acd.fraction > 0.0) {
    call->acd = rng_.chance(scenario_.acd.fraction);
  }
  if (tracer_ != nullptr) {
    // One track per call: every routing decision, attempt, and media
    // segment of this call's journey lands on the same Perfetto row.
    call->journey = tracer_->track_id(
        util::format("call-%llu", static_cast<unsigned long long>(index)));
    call->setup_span = tracer_->begin(jn_setup_, call->journey, call->offered_at);
  }

  if (dispatcher_ != nullptr) {
    const std::string* host = dispatcher_->pick();
    if (host == nullptr) {
      // Every backend ejected or benched: the dispatcher's own 503. The
      // attempt is recorded as blocked without any INVITE hitting the wire.
      ++dispatch_rejected_;
      journey_instant(*call, jn_reject_);
      calls_.emplace(index, std::move(call));
      finish(index, monitor::CallOutcome::kBlocked);
      return;
    }
    call->pbx_host = *host;
    journey_instant(*call, jn_pick_, &call->pbx_host);
  } else {
    call->pbx_host = pbx_hosts_[static_cast<std::size_t>(index) % pbx_hosts_.size()];
  }

  Call& ref = *call;
  calls_.emplace(index, std::move(call));
  send_invite(ref);
}

void SipCaller::send_invite(Call& call) {
  const std::uint64_t index = call.index;
  std::string caller_user = "caller-";
  util::append_uint(caller_user, index);
  std::string callee_user = call.acd ? "queue-" + scenario_.acd.queue : "recv-";
  if (!call.acd) util::append_uint(callee_user, index);

  Message invite = Message::request(Method::kInvite, sip::Uri{callee_user, call.pbx_host});
  invite.from() = sip::NameAddr{sip::Uri{caller_user, sip_host()}, new_tag()};
  invite.to() = sip::NameAddr{sip::Uri{callee_user, call.pbx_host}, ""};
  // A re-attempt after 503 is a new call (new Call-ID), per RFC 3261 §8.1:
  // the previous transaction completed with a final response.
  std::string call_id;
  call_id.reserve(sip_host().size() + 38);  // "call-" + 20 digits + "-r" + 10 digits + "@"
  call_id += "call-";
  util::append_uint(call_id, index);
  if (call.attempt != 1) {
    call_id += "-r";
    util::append_uint(call_id, call.attempt - 1U);
  }
  call_id += '@';
  call_id += sip_host();
  invite.set_call_id(std::move(call_id));
  invite.set_cseq({1, Method::kInvite});
  invite.set_contact(sip::Uri{caller_user, sip_host()});

  Sdp offer;
  offer.connection_host = sip_host();
  offer.audio.rtp_port = static_cast<std::uint16_t>(30'000 + (index * 2) % 20'000);
  // Preference list: the call's drawn codec leads, the rest of the mix
  // follows in declared order as fallbacks (RFC 3264 preference semantics).
  offer.audio.payload_types = {call.media.codec().payload_type};
  for (const auto& share : scenario_.codec_mix) {
    const std::uint8_t pt = share.codec.payload_type;
    if (!offer.audio.payload_types.contains(pt)) offer.audio.payload_types.push_back(pt);
  }
  offer.audio.ssrc = call.media.local_ssrc();
  invite.set_body(offer.to_string(), "application/sdp");

  call.pbx_node = resolver().resolve(call.pbx_host);
  const sip::ClientTransaction& txn = send_request_to(
      std::move(invite), call.pbx_node,
      [this, index](const Message& resp) { on_invite_response(index, resp); },
      [this, index] { on_invite_timeout(index); });
  call.invite = txn.request_payload();
}

void SipCaller::schedule_retry(std::uint64_t index, Duration delay) {
  Call* call = find(index);
  if (call == nullptr) return;
  ++call->attempt;
  ++retries_;
  const sim::CategoryScope cat_scope{network()->simulator(), sim::Category::kLoadgen};
  call->retry_timer = network()->simulator().schedule_in(delay, [this, index] {
    Call* c = find(index);
    if (c == nullptr) return;
    c->retry_timer = 0;
    // Re-target at fire time, not at scheduling time: by the end of the
    // backoff the dispatcher's health view (circuits, benches) has moved on.
    if (!reroute_for_retry(*c)) return;
    send_invite(*c);
  });
}

bool SipCaller::reroute_for_retry(Call& call) {
  if (dispatcher_ != nullptr) {
    dispatcher_->release(call.pbx_host);
    const std::string* host = dispatcher_->repick(call.pbx_host);
    if (host == nullptr) {
      ++dispatch_rejected_;
      journey_instant(call, jn_reject_);
      call.pbx_host.clear();  // slot already released; finish() must not re-release
      finish(call.index, monitor::CallOutcome::kBlocked);
      return false;
    }
    if (*host != call.pbx_host) ++retries_rerouted_;
    call.pbx_host = *host;
    journey_instant(call, jn_repick_, &call.pbx_host);
    return true;
  }
  if (pbx_hosts_.size() > 1) {
    // DNS-rotation cluster: step to the next server in the rotation instead
    // of re-hitting the one that just said 503 (it is the most likely of the
    // fleet to still be saturated or down).
    const std::size_t n = pbx_hosts_.size();
    const std::size_t base = static_cast<std::size_t>(call.index) % n;
    const std::string& next = pbx_hosts_[(base + call.attempt - 1) % n];
    if (next != call.pbx_host) ++retries_rerouted_;
    call.pbx_host = next;
  }
  return true;
}

SipCaller::Call* SipCaller::find(std::uint64_t index) {
  const auto it = calls_.find(index);
  return it == calls_.end() ? nullptr : it->second.get();
}

rtp::Codec SipCaller::draw_codec() {
  if (scenario_.codec_mix.empty()) return scenario_.codec;
  if (scenario_.codec_mix.size() == 1) return scenario_.codec_mix.front().codec;
  double total = 0.0;
  for (const auto& share : scenario_.codec_mix) total += std::max(0.0, share.weight);
  if (total <= 0.0) return scenario_.codec_mix.front().codec;
  double u = rng_.uniform() * total;
  for (const auto& share : scenario_.codec_mix) {
    u -= std::max(0.0, share.weight);
    if (u < 0.0) return share.codec;
  }
  return scenario_.codec_mix.back().codec;
}

void SipCaller::journey_instant(Call& call, std::uint32_t name, const std::string* detail) {
  if (tracer_ == nullptr || call.journey == 0) return;
  tracer_->instant(name, call.journey, network()->simulator().now(),
                   detail == nullptr ? telemetry::SpanTracer::kNoDetail
                                     : tracer_->name_id(*detail));
}

void SipCaller::on_invite_response(std::uint64_t index, const Message& resp) {
  Call* call = find(index);
  if (call == nullptr) return;
  const int code = resp.status_code();
  if (sip::is_provisional(code)) return;  // 100 / 180: ladder progress only

  if (sip::is_success(code)) {
    if (dispatcher_ != nullptr) dispatcher_->on_call_admitted(call->pbx_host);
    call->answered = true;
    call->answered_at = network()->simulator().now();
    if (tracer_ != nullptr && call->setup_span != 0) {
      tracer_->end(call->setup_span, call->answered_at);
      call->setup_span = 0;
    }
    call->dialog = sip::Dialog::from_uac(call->invite->msg, resp);
    send_stateless_to(call->dialog.make_ack(), call->pbx_node);
    if (const auto answer = Sdp::parse(resp.body())) {
      call->media.on_answer(*answer);
      by_remote_ssrc_.assign(answer->audio.ssrc, &call->media);
    }
    call->media.start(*this, call->pbx_node, scenario_.rtcp ? &rng_ : nullptr, call->journey);
    const sim::CategoryScope cat_scope{network()->simulator(), sim::Category::kLoadgen};
    call->bye_timer =
        network()->simulator().schedule_in(call->hold, [this, index] { send_bye(index); });
    return;
  }

  Duration retry_after = Duration::zero();
  if (code == sip::status::kServiceUnavailable) {
    if (const std::string* after = resp.header("Retry-After")) {
      std::uint64_t secs = 0;
      if (util::parse_u64(*after, secs) && secs > 0 && secs < 3600) {
        retry_after = Duration::seconds(static_cast<std::int64_t>(secs));
      }
    }
    // Feed the dispatcher's per-backend backoff state: a Retry-After-bearing
    // 503 benches this backend so the next arrivals steer around it.
    if (dispatcher_ != nullptr) {
      dispatcher_->on_reject_503(call->pbx_host, retry_after);
      journey_instant(*call, jn_bench_, &call->pbx_host);
    }
  }

  // 503 with retry budget left: back off exponentially and re-attempt,
  // honouring the server's Retry-After hint for the base delay (the client
  // half of RFC 6357-style overload control).
  if (code == sip::status::kServiceUnavailable && scenario_.retry.enabled &&
      call->attempt < kRetryMaxAttempts &&
      network()->simulator().now() < TimePoint::at(scenario_.placement_window)) {
    const Duration base = retry_after > Duration::zero() ? retry_after : scenario_.retry.base_backoff;
    double delay_s =
        base.to_seconds() *
        std::pow(kRetryMultiplier, static_cast<double>(call->attempt - 1));
    delay_s = std::min(delay_s, kRetryMaxBackoff.to_seconds());
    delay_s *= 1.0 + 0.1 * rng_.uniform();  // de-synchronise the herd
    schedule_retry(index, Duration::from_seconds(delay_s));
    return;
  }

  // Final error. 486/503/600 are the admission-control outcomes = blocked.
  const bool blocked = code == sip::status::kBusyHere ||
                       code == sip::status::kServiceUnavailable || code == 600;
  finish(index, blocked ? monitor::CallOutcome::kBlocked : monitor::CallOutcome::kFailed);
}

void SipCaller::on_invite_timeout(std::uint64_t index) {
  Call* call = find(index);
  if (call == nullptr) return;
  journey_instant(*call, jn_timeout_, call->pbx_host.empty() ? nullptr : &call->pbx_host);
  if (dispatcher_ != nullptr && !call->pbx_host.empty()) {
    // Strong down-signal: Timer B fired with no response at all. Tell the
    // circuit breaker, then fail the attempt over to a surviving backend —
    // the in-flight-INVITE half of failover (the probe loop only protects
    // calls that have not been routed yet).
    dispatcher_->on_invite_timeout(call->pbx_host);
    if (scenario_.retry.enabled && call->attempt < kRetryMaxAttempts) {
      dispatcher_->release(call->pbx_host);
      const std::string* host = dispatcher_->repick(call->pbx_host);
      if (host != nullptr) {
        ++call->attempt;
        ++retries_;
        ++failovers_;
        if (*host != call->pbx_host) ++retries_rerouted_;
        call->pbx_host = *host;
        journey_instant(*call, jn_failover_, &call->pbx_host);
        send_invite(*call);
        return;
      }
      ++dispatch_rejected_;
      call->pbx_host.clear();  // slot already released
    }
  }
  finish(index, monitor::CallOutcome::kFailed);
}

void SipCaller::send_bye(std::uint64_t index) {
  Call* call = find(index);
  if (call == nullptr) return;
  call->media.stop_sending();
  if (fluid_engine_ != nullptr && call->media.remote_ssrc() != 0) {
    // The BYE is about to fold the PBX bridge: the remote stream's pending
    // segment must land now, and its tail must race the BYE per-packet.
    fluid_engine_->exit_stream(call->media.remote_ssrc());
  }
  send_request_to(
      call->dialog.make_request(Method::kBye), call->pbx_node,
      [this, index](const Message& resp) {
        if (sip::is_final(resp.status_code())) {
          finish(index, monitor::CallOutcome::kCompleted);
        }
      },
      [this, index] { finish(index, monitor::CallOutcome::kCompleted); });
}

void SipCaller::finish(std::uint64_t index, monitor::CallOutcome outcome) {
  const auto it = calls_.find(index);
  if (it == calls_.end()) return;
  Call& call = *it->second;
  if (tracer_ != nullptr && call.setup_span != 0) {
    tracer_->end(call.setup_span, network()->simulator().now());
    call.setup_span = 0;
  }

  monitor::CallRecord record;
  record.call_index = index;
  record.offered_at = call.offered_at;
  record.outcome = outcome;
  if (call.answered) {
    record.setup_delay = call.answered_at - call.offered_at;
    record.talk_time = network()->simulator().now() - call.answered_at;
    // Caller-heard quality (media from the callee, relayed by the PBX).
    const HeardQuality q = call.media.heard();
    record.loss_caller_heard = q.effective_loss;
    record.jitter_caller_heard = q.jitter;
    record.rtp_received_caller = q.rtp_received;
    record.mos_caller_heard = q.mos;
  }
  log_.add(std::move(record));

  if (dispatcher_ != nullptr && !call.pbx_host.empty()) dispatcher_->release(call.pbx_host);
  if (call.bye_timer != 0) network()->simulator().cancel(call.bye_timer);
  if (call.retry_timer != 0) network()->simulator().cancel(call.retry_timer);
  by_remote_ssrc_.erase(call.media.remote_ssrc());
  end_leg(call.media);
  calls_.erase(it);

  if (scenario_.finite_population > 0) user_became_idle();
}

void SipCaller::finalize_remaining() {
  std::vector<std::uint64_t> open;
  open.reserve(calls_.size());
  for (const auto& [index, call] : calls_) open.push_back(index);
  for (const std::uint64_t index : open) finish(index, monitor::CallOutcome::kAbandoned);
}

}  // namespace pbxcap::loadgen
