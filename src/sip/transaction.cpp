#include "sip/transaction.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/profile.hpp"
#include "util/strings.hpp"

namespace pbxcap::sip {
namespace {

// RFC 3261 timer baseline values; B, F and H are 64*T1, D is 32 s.
constexpr Duration kT1 = Duration::millis(500);
constexpr Duration kT2 = Duration::seconds(4);
constexpr Duration kT4 = Duration::seconds(5);
constexpr Duration kTimer64T1 = kT1 * 64;
constexpr Duration kTimerD = Duration::seconds(32);

/// Interns a "uac:INVITE"-style span name (side prefix + method).
std::uint32_t txn_span_name(telemetry::SpanTracer& tracer, const char* side, Method method) {
  return tracer.name_id(std::string{side} + std::string{to_string(method)});
}

}  // namespace

// ---------------------------------------------------------------- layer ----

TransactionLayer::TransactionLayer(sim::Simulator& simulator, Transport& transport,
                                   std::string local_host)
    : simulator_{simulator}, transport_{transport}, local_host_{std::move(local_host)} {}

std::string TransactionLayer::new_branch() {
  // "z9hG4bK-<host>-<n>": 8 + host + 1 + at most 20 digits.
  std::string branch;
  branch.reserve(29 + local_host_.size());
  branch += "z9hG4bK-";
  branch += local_host_;
  branch += '-';
  util::append_uint(branch, ++branch_counter_);
  return branch;
}

bool TransactionLayer::matches_server_transaction(const Message& request) const {
  if (!request.is_request() || request.top_via() == nullptr) return false;
  return servers_.contains(Key{request.top_via()->branch, request.method()});
}

void TransactionLayer::reset() {
  clients_.clear();
  servers_.clear();
}

void TransactionLayer::set_telemetry(telemetry::Telemetry* tel) {
  tracer_ = tel == nullptr ? nullptr : tel->tracer();
}

void TransactionLayer::publish(telemetry::MetricsRegistry& reg) const {
  reg.counter("pbxcap_sip_transactions_total", {{"host", local_host_}, {"side", "client"}},
              "SIP transactions started, by endpoint and side")
      .add(client_started_);
  reg.counter("pbxcap_sip_transactions_total", {{"host", local_host_}, {"side", "server"}})
      .add(server_started_);
  reg.counter("pbxcap_sip_retransmissions_total", {{"host", local_host_}},
              "SIP message retransmissions (timers A/E/G + server re-sends)")
      .add(retransmissions_);
  reg.counter("pbxcap_sip_transaction_timeouts_total", {{"host", local_host_}},
              "Client transactions abandoned on timer B/F")
      .add(timeouts_);
}

ClientTransaction& TransactionLayer::send_request(
    Message request, net::NodeId dst, ClientTransaction::ResponseHandler on_response,
    ClientTransaction::TimeoutHandler on_timeout) {
  if (request.top_via() == nullptr || request.top_via()->branch.empty()) {
    throw std::invalid_argument{"send_request: request needs a top Via with a branch"};
  }
  auto txn = std::unique_ptr<ClientTransaction>{new ClientTransaction{
      *this, std::move(request), dst, std::move(on_response), std::move(on_timeout)}};
  ClientTransaction& ref = *txn;
  const auto [it, inserted] =
      clients_.emplace(client_key(ref.branch_, ref.method()), std::move(txn));
  if (!inserted) throw std::logic_error{"send_request: duplicate client transaction branch"};
  ++client_started_;
  it->second->start();
  return ref;
}

void TransactionLayer::send_stateless(Message msg, net::NodeId dst) {
  transport_.send_sip(std::make_shared<const SipPayload>(std::move(msg)), dst);
}

void TransactionLayer::on_message(const std::shared_ptr<const SipPayload>& payload,
                                  net::NodeId from) {
  const Message& msg = payload->msg;
  if (msg.is_response()) {
    if (msg.top_via() == nullptr) return;  // malformed; drop
    const Key key = client_key(msg.top_via()->branch, msg.cseq().method);
    if (const auto it = clients_.find(key); it != clients_.end()) {
      it->second->handle_response(msg);
      return;
    }
    if (on_stray_response) on_stray_response(msg);
    return;
  }

  // Request path.
  if (msg.top_via() == nullptr) return;
  const std::string_view branch = msg.top_via()->branch;

  if (msg.method() == Method::kAck) {
    // Matches the INVITE server transaction for non-2xx finals; otherwise it
    // is the end-to-end ACK for a 2xx and belongs to the TU.
    if (const auto it = servers_.find(Key{branch, Method::kInvite}); it != servers_.end()) {
      it->second->handle_ack();
      return;
    }
    if (on_ack) on_ack(msg);
    return;
  }

  if (const auto it = servers_.find(Key{branch, msg.method()}); it != servers_.end()) {
    it->second->handle_retransmission();
    return;
  }
  auto txn = std::unique_ptr<ServerTransaction>{new ServerTransaction{*this, payload, from}};
  ServerTransaction& ref = *txn;
  servers_.emplace(Key{ref.branch_, ref.method_}, std::move(txn));
  ++server_started_;
  if (on_request) on_request(msg, ref);
}

// ----------------------------------------------------- client transaction ----

ClientTransaction::ClientTransaction(TransactionLayer& layer, Message request, net::NodeId dst,
                                     ResponseHandler on_response, TimeoutHandler on_timeout)
    : layer_{layer},
      request_{std::make_shared<const SipPayload>(std::move(request))},
      dst_{dst},
      branch_{this->request().top_via()->branch},
      state_{this->request().cseq().method == Method::kInvite ? State::kCalling
                                                               : State::kTrying},
      on_response_{std::move(on_response)},
      on_timeout_{std::move(on_timeout)},
      retransmit_interval_{kT1} {}

ClientTransaction::~ClientTransaction() {
  layer_.simulator().cancel(retransmit_timer_);
  layer_.simulator().cancel(timeout_timer_);
}

void ClientTransaction::start() {
  layer_.transport().send_sip(request_, dst_);
  auto& sim = layer_.simulator();
  if (layer_.tracer_ != nullptr) {
    auto& tracer = *layer_.tracer_;
    span_ = tracer.begin(txn_span_name(tracer, "uac:", method()),
                         tracer.track_id(request().call_id()), sim.now());
  }
  auto rearm = [this] { retransmit(); };
  // Timers A/B (E/F) arm on every request; [this] captures ride the
  // sim::Callback inline buffer, and the A/E retransmit timers land on the
  // timer-wheel fast path (T1 = 500 ms sits inside the level-1 window).
  static_assert(sim::Callback::stores_inline<decltype(rearm)>(),
                "SIP timer closures must stay on the allocation-free SBO path");
  const sim::CategoryScope cat_scope{sim, sim::Category::kSip};
  retransmit_timer_ = sim.schedule_in(retransmit_interval_, std::move(rearm));
  timeout_timer_ = sim.schedule_in(kTimer64T1, [this] { fire_timeout(); });  // timer B or F
}

void ClientTransaction::retransmit() {
  // Timer E keeps firing in Proceeding: a non-INVITE request must be
  // retransmitted until a *final* response arrives (§17.1.2.2), just pinned
  // at T2. Timer A is cancelled on leaving Calling.
  ++retransmissions_;
  layer_.note_retransmission();
  layer_.transport().send_sip(request_, dst_);
  if (method() == Method::kInvite) {
    // Timer A doubles unboundedly until Timer B ends the transaction.
    retransmit_interval_ = retransmit_interval_ * 2;
  } else if (state_ == State::kProceeding) {
    retransmit_interval_ = kT2;
  } else {
    // Timer E doubles capped at T2.
    retransmit_interval_ = std::min(retransmit_interval_ * 2, kT2);
  }
  const sim::CategoryScope cat_scope{layer_.simulator(), sim::Category::kSip};
  retransmit_timer_ = layer_.simulator().schedule_in(retransmit_interval_, [this] { retransmit(); });
}

void ClientTransaction::fire_timeout() {
  ++layer_.timeouts_;
  if (layer_.tracer_ != nullptr) {
    layer_.tracer_->end(span_, layer_.simulator().now());
    span_ = 0;
  }
  if (on_timeout_) on_timeout_();
  terminate();
}

void ClientTransaction::ack_non_2xx(const Message& response) {
  // RFC 3261 §17.1.1.3: ACK reuses the INVITE's Request-URI, Via (branch)
  // and CSeq number, and takes the To from the response (it carries the
  // remote tag). The response echoes the INVITE's From and Call-ID, so the
  // ACK shares the response's identity block and the INVITE's Via list.
  const Message& invite = request();
  Message ack = Message::request(Method::kAck, invite.request_uri());
  ack.set_vias(invite.via_list());
  ack.set_identity(response.identity());
  ack.set_cseq({invite.cseq().number, Method::kAck});
  layer_.transport().send_sip(std::make_shared<const SipPayload>(std::move(ack)), dst_);
}

void ClientTransaction::handle_response(const Message& response) {
  const int code = response.status_code();

  if (is_provisional(code)) {
    if (state_ == State::kCalling) {
      // Timers A and B apply only while Calling (§17.1.1.2): after a
      // provisional an INVITE waits indefinitely (the TU may apply its own
      // Timer C). Timer E/F keep running for non-INVITE in Proceeding.
      layer_.simulator().cancel(retransmit_timer_);
      layer_.simulator().cancel(timeout_timer_);
    }
    if (state_ == State::kCalling || state_ == State::kTrying) state_ = State::kProceeding;
    if (on_response_) on_response_(response);
    return;
  }

  if (state_ == State::kCompleted) {
    // Retransmitted final: re-ACK (INVITE) without re-notifying the TU.
    if (method() == Method::kInvite && !is_success(code)) ack_non_2xx(response);
    return;
  }

  // Final response reached the TU: the measured transaction span ends here,
  // not at terminate() — timers D/K absorb retransmissions and would inflate
  // the visible duration by tens of seconds.
  if (layer_.tracer_ != nullptr) {
    layer_.tracer_->end(span_, layer_.simulator().now());
    span_ = 0;
  }
  if (method() == Method::kInvite && !is_success(code)) ack_non_2xx(response);
  if (on_response_) on_response_(response);

  if (method() == Method::kInvite && !is_success(code)) {
    // Absorb retransmitted finals for timer D.
    state_ = State::kCompleted;
    layer_.simulator().cancel(retransmit_timer_);
    layer_.simulator().cancel(timeout_timer_);
    const sim::CategoryScope cat_scope{layer_.simulator(), sim::Category::kSip};
    timeout_timer_ =
        layer_.simulator().schedule_in(kTimerD, [this] { terminate(); });
    return;
  }
  if (method() != Method::kInvite) {
    // Timer K (T4) absorbs retransmitted finals for non-INVITE.
    state_ = State::kCompleted;
    layer_.simulator().cancel(retransmit_timer_);
    layer_.simulator().cancel(timeout_timer_);
    const sim::CategoryScope cat_scope{layer_.simulator(), sim::Category::kSip};
    timeout_timer_ = layer_.simulator().schedule_in(kT4, [this] { terminate(); });
    return;
  }
  // INVITE 2xx: the transaction ends at once; the TU/dialog layer ACKs.
  terminate();
}

void ClientTransaction::terminate() {
  auto& clients = layer_.clients_;
  clients.erase(clients.find(TransactionLayer::client_key(branch_, method())));
}

// ----------------------------------------------------- server transaction ----

ServerTransaction::ServerTransaction(TransactionLayer& layer,
                                     std::shared_ptr<const SipPayload> request, net::NodeId peer)
    : layer_{layer},
      request_{std::move(request)},
      branch_{request_->msg.top_via()->branch},
      method_{request_->msg.method()},
      peer_{peer},
      state_{method_ == Method::kInvite ? State::kProceeding : State::kTrying},
      retransmit_interval_{kT1} {
  if (layer_.tracer_ != nullptr) {
    auto& tracer = *layer_.tracer_;
    span_ = tracer.begin(txn_span_name(tracer, "uas:", method_),
                         tracer.track_id(request_->msg.call_id()), layer_.simulator().now());
  }
}

ServerTransaction::~ServerTransaction() {
  layer_.simulator().cancel(retransmit_timer_);
  layer_.simulator().cancel(timeout_timer_);
}

void ServerTransaction::respond(Message response) {
  respond(std::make_shared<const SipPayload>(std::move(response)));
}

void ServerTransaction::respond(std::shared_ptr<const SipPayload> response) {
  const int code = response->msg.status_code();
  last_response_ = std::move(response);
  layer_.transport().send_sip(last_response_, peer_);
  if (is_provisional(code)) {
    state_ = State::kProceeding;
    return;
  }
  if (layer_.tracer_ != nullptr) {
    layer_.tracer_->end(span_, layer_.simulator().now());
    span_ = 0;
  }
  if (method_ == Method::kInvite) {
    if (is_success(code)) {
      // 2xx: retransmission responsibility moves to the TU; terminate.
      terminate();
      return;
    }
    // Non-2xx final: timer G retransmits until ACK; timer H gives up.
    state_ = State::kCompleted;
    const sim::CategoryScope cat_scope{layer_.simulator(), sim::Category::kSip};
    retransmit_timer_ =
        layer_.simulator().schedule_in(retransmit_interval_, [this] { retransmit_response(); });
    timeout_timer_ =
        layer_.simulator().schedule_in(kTimer64T1, [this] { terminate(); });
    return;
  }
  // Non-INVITE final: timer J absorbs request retransmissions.
  state_ = State::kCompleted;
  {
    const sim::CategoryScope cat_scope{layer_.simulator(), sim::Category::kSip};
    timeout_timer_ =
        layer_.simulator().schedule_in(kTimer64T1, [this] { terminate(); });
  }
}

void ServerTransaction::retransmit_response() {
  layer_.note_retransmission();
  layer_.transport().send_sip(last_response_, peer_);
  retransmit_interval_ = retransmit_interval_ * 2;
  if (retransmit_interval_ > kT2) retransmit_interval_ = kT2;
  const sim::CategoryScope cat_scope{layer_.simulator(), sim::Category::kSip};
  retransmit_timer_ =
      layer_.simulator().schedule_in(retransmit_interval_, [this] { retransmit_response(); });
}

void ServerTransaction::handle_retransmission() {
  if (last_response_ != nullptr) {
    layer_.note_retransmission();
    layer_.transport().send_sip(last_response_, peer_);
  }
}

void ServerTransaction::handle_ack() {
  if (state_ != State::kCompleted) return;
  // Timer I: brief absorb window for ACK retransmissions, then terminate.
  state_ = State::kConfirmed;
  layer_.simulator().cancel(retransmit_timer_);
  layer_.simulator().cancel(timeout_timer_);
  const sim::CategoryScope cat_scope{layer_.simulator(), sim::Category::kSip};
  timeout_timer_ = layer_.simulator().schedule_in(kT4, [this] { terminate(); });
}

void ServerTransaction::terminate() {
  auto& servers = layer_.servers_;
  servers.erase(servers.find(TransactionLayer::Key{branch_, method_}));
}

}  // namespace pbxcap::sip
