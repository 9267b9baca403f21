// SIP transaction layer (RFC 3261 §17, UDP transport).
//
// Implements the four transaction state machines — INVITE/non-INVITE on the
// client and server sides — including the unreliable-transport retransmission
// timers (A/B/D client-INVITE, E/F/K client-non-INVITE, G/H/I server-INVITE,
// J server-non-INVITE). On the simulated switched LAN retransmissions are
// rare, but they fire for real under queue-overflow loss at the highest
// offered loads, exactly the regime Table I's "Error Msgs" row captures.
//
// Lifecycle: a transaction leaves its layer in the event that ends it — the
// 2xx, the timer that expires or TransactionLayer::reset() — and its
// destructor cancels its timers. The one rule a TU keeps: a transaction may
// not be used after the upcall or respond() that ended it returns. A TU that
// holds a ServerTransaction* across events drops it when it sends the 2xx.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "sip/message.hpp"
#include "telemetry/telemetry.hpp"
#include "util/time.hpp"

namespace pbxcap::sip {

/// Supplies the wire: the endpoint puts the payload into a net::Packet. A
/// retransmission hands over the same payload again.
class Transport {
 public:
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;
  virtual ~Transport() = default;
  virtual void send_sip(std::shared_ptr<const SipPayload> payload, net::NodeId dst) = 0;
};

class TransactionLayer;

/// Client transaction: owns request retransmission and final-response ACK
/// generation for non-2xx INVITE outcomes.
class ClientTransaction {
 public:
  enum class State { kCalling, kTrying, kProceeding, kCompleted };

  ~ClientTransaction();

  using ResponseHandler = std::function<void(const Message& response)>;
  using TimeoutHandler = std::function<void()>;

  [[nodiscard]] std::string_view branch() const noexcept { return branch_; }
  [[nodiscard]] Method method() const noexcept { return request().cseq().method; }
  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] std::uint32_t retransmissions() const noexcept { return retransmissions_; }
  /// The request as sent, top Via included: the payload the retransmissions
  /// re-send. A TU that needs the request later keeps this, not a copy.
  [[nodiscard]] const std::shared_ptr<const SipPayload>& request_payload() const noexcept {
    return request_;
  }

 private:
  friend class TransactionLayer;
  ClientTransaction(TransactionLayer& layer, Message request, net::NodeId dst,
                    ResponseHandler on_response, TimeoutHandler on_timeout);

  [[nodiscard]] const Message& request() const noexcept { return request_->msg; }

  void start();
  void handle_response(const Message& response);
  void retransmit();
  void fire_timeout();
  void ack_non_2xx(const Message& response);
  /// Erases *this from the layer, which destroys it: the caller's last act.
  void terminate();

  TransactionLayer& layer_;
  std::shared_ptr<const SipPayload> request_;  // sent by start() and timers A/E
  net::NodeId dst_;
  std::string_view branch_;  // the top Via branch of *request_
  State state_;
  ResponseHandler on_response_;
  TimeoutHandler on_timeout_;
  Duration retransmit_interval_;
  sim::EventId retransmit_timer_{0};
  sim::EventId timeout_timer_{0};
  std::uint32_t retransmissions_{0};
  telemetry::SpanTracer::SpanId span_{0};  // request -> final response
};

/// Server transaction: absorbs request retransmissions and re-sends the last
/// response until the transaction completes.
class ServerTransaction {
 public:
  enum class State { kTrying, kProceeding, kCompleted, kConfirmed };

  ~ServerTransaction();

  /// Sends a response within this transaction (TU-facing). The response is
  /// moved into the payload that timer G and request retransmissions re-send.
  void respond(Message response);
  /// Sends an already built response payload (a stored 2xx re-sent to a
  /// late INVITE retransmission, say) without copying it.
  void respond(std::shared_ptr<const SipPayload> response);

  [[nodiscard]] std::string_view branch() const noexcept { return branch_; }
  [[nodiscard]] Method method() const noexcept { return method_; }
  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] net::NodeId peer() const noexcept { return peer_; }
  /// The request that opened the transaction, as received. A TU that needs
  /// the request later keeps this, not a copy.
  [[nodiscard]] const std::shared_ptr<const SipPayload>& request_payload() const noexcept {
    return request_;
  }

 private:
  friend class TransactionLayer;
  ServerTransaction(TransactionLayer& layer, std::shared_ptr<const SipPayload> request,
                    net::NodeId peer);

  void handle_retransmission();
  void handle_ack();
  void retransmit_response();
  /// Erases *this from the layer, which destroys it: the caller's last act.
  void terminate();

  TransactionLayer& layer_;
  std::shared_ptr<const SipPayload> request_;
  std::string_view branch_;  // the top Via branch of *request_
  Method method_;
  net::NodeId peer_;
  State state_;
  std::shared_ptr<const SipPayload> last_response_;
  Duration retransmit_interval_;
  sim::EventId retransmit_timer_{0};
  sim::EventId timeout_timer_{0};
  telemetry::SpanTracer::SpanId span_{0};  // request -> final response sent
};

/// Per-endpoint transaction manager.
class TransactionLayer {
 public:
  TransactionLayer(sim::Simulator& simulator, Transport& transport, std::string local_host);

  TransactionLayer(const TransactionLayer&) = delete;
  TransactionLayer& operator=(const TransactionLayer&) = delete;

  // ---- TU-facing API ----

  /// Sends `request` (which must carry a top Via with a fresh branch — use
  /// new_branch()) and runs the matching client state machine.
  ClientTransaction& send_request(Message request, net::NodeId dst,
                                  ClientTransaction::ResponseHandler on_response,
                                  ClientTransaction::TimeoutHandler on_timeout = {});

  /// Sends a message outside any transaction (ACK for a 2xx response).
  void send_stateless(Message msg, net::NodeId dst);

  /// Entry point for every SIP message the endpoint receives. A request
  /// that opens a server transaction is kept by it (request_payload()).
  void on_message(const std::shared_ptr<const SipPayload>& payload, net::NodeId from);

  /// Allocates an RFC 3261 branch token (magic cookie + unique suffix).
  [[nodiscard]] std::string new_branch();

  /// True when `request` matches a live server transaction — i.e. it is a
  /// retransmission the state machine will absorb, not new work. Lets
  /// front-door admission logic (overload gates) wave retransmissions
  /// through instead of answering them out of band.
  [[nodiscard]] bool matches_server_transaction(const Message& request) const;

  /// Destroys every active transaction — the state loss of a process crash.
  /// No timeout/response handlers fire; in-flight responses arriving
  /// afterwards fall through to on_stray_response.
  void reset();

  // ---- TU upcalls ----
  /// New (non-retransmitted) request other than a 2xx ACK.
  std::function<void(const Message& request, ServerTransaction& txn)> on_request;
  /// ACK for a 2xx final (end-to-end, not part of the INVITE transaction).
  std::function<void(const Message& ack)> on_ack;
  /// Response that matched no client transaction (late retransmission, ...).
  std::function<void(const Message& response)> on_stray_response;

  [[nodiscard]] sim::Simulator& simulator() noexcept { return simulator_; }
  [[nodiscard]] const sim::Simulator& simulator() const noexcept { return simulator_; }
  [[nodiscard]] Transport& transport() noexcept { return transport_; }
  [[nodiscard]] const std::string& local_host() const noexcept { return local_host_; }

  [[nodiscard]] std::size_t active_server_transactions() const noexcept { return servers_.size(); }
  [[nodiscard]] std::uint64_t total_retransmissions() const noexcept { return retransmissions_; }
  void note_retransmission() noexcept { ++retransmissions_; }
  [[nodiscard]] std::uint64_t client_transactions_started() const noexcept {
    return client_started_;
  }
  [[nodiscard]] std::uint64_t server_transactions_started() const noexcept {
    return server_started_;
  }
  /// Client transactions abandoned on timer B/F.
  [[nodiscard]] std::uint64_t transaction_timeouts() const noexcept { return timeouts_; }

  /// Wires per-transaction span tracing; nullptr records none.
  void set_telemetry(telemetry::Telemetry* tel);
  /// Registers the transaction counters in `reg` and fills them.
  void publish(telemetry::MetricsRegistry& reg) const;

 private:
  friend class ClientTransaction;
  friend class ServerTransaction;

  /// Matches a message to its transaction (RFC 3261 §17.1.3/§17.2.3): the
  /// top Via branch plus the method, since a CANCEL reuses its INVITE's
  /// branch. A stored key views the top Via of the request its transaction
  /// keeps; a lookup views the message's top Via, so matching builds no
  /// string.
  struct Key {
    std::string_view branch;
    Method method;
    [[nodiscard]] bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const Key& key) const noexcept {
      return std::hash<std::string_view>{}(key.branch) * 31 + static_cast<std::size_t>(key.method);
    }
  };

  /// ACKs for non-2xx responses share the INVITE's client transaction.
  [[nodiscard]] static Key client_key(std::string_view branch, Method method) noexcept {
    return {branch, method == Method::kAck ? Method::kInvite : method};
  }

  sim::Simulator& simulator_;
  Transport& transport_;
  std::string local_host_;
  std::unordered_map<Key, std::unique_ptr<ClientTransaction>, KeyHash> clients_;
  std::unordered_map<Key, std::unique_ptr<ServerTransaction>, KeyHash> servers_;
  std::uint64_t branch_counter_{0};
  std::uint64_t retransmissions_{0};
  std::uint64_t client_started_{0};
  std::uint64_t server_started_{0};
  std::uint64_t timeouts_{0};
  telemetry::SpanTracer* tracer_{nullptr};  // null when tracing is off
};

}  // namespace pbxcap::sip
