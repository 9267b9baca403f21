// SIP call generator — the SIPp UAC host of Fig. 4.
//
// Offers calls to the PBX at rate lambda (Poisson arrivals, or finite-source
// arrivals in Engset mode), runs the Fig. 2 caller-side ladder, streams RTP
// for the drawn hold time, and records every attempt's outcome and heard
// quality in a monitor::CallLog.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "loadgen/media_leg.hpp"
#include "loadgen/scenario.hpp"
#include "monitor/call_log.hpp"
#include "rtp/packet.hpp"
#include "sim/random.hpp"
#include "sip/dialog.hpp"
#include "sip/endpoint.hpp"
#include "telemetry/span.hpp"

namespace pbxcap::dispatch {
class Dispatcher;
}

namespace pbxcap::loadgen {

class SipCaller final : public SippHost {
 public:
  /// Calls are spread round-robin over `pbx_hosts`: one host for the Fig. 4
  /// testbed, several for the paper's "increasing the number of servers"
  /// alternative fronted by DNS-style rotation.
  SipCaller(std::string host, std::vector<std::string> pbx_hosts, sim::Simulator& simulator,
            sip::HostResolver& resolver, rtp::SsrcAllocator& ssrcs, CallScenario scenario,
            sim::Random rng);

  /// Routes calls through a dispatch::Dispatcher instead of blind rotation:
  /// every new call asks the dispatcher for a backend, 503s/timeouts are
  /// reported back (feeding its backoff and circuit-breaker state), and
  /// retries/failovers re-pick so they land on a surviving backend. The
  /// dispatcher is owned by the caller of this method and must outlive the
  /// run. Null restores the DNS-rotation behaviour.
  void set_dispatcher(dispatch::Dispatcher* dispatcher) noexcept { dispatcher_ = dispatcher; }

  /// Begins offering calls at t = now.
  void start();

  /// Adds the call-journey spans to the base endpoint's.
  void set_telemetry(telemetry::Telemetry* tel) override;
  /// Appends the offered and per-outcome call counters, retries, the RTP
  /// send counter and the setup-delay / MOS histograms of answered calls,
  /// walking the call log in finish order.
  void publish(telemetry::MetricsRegistry& reg) const override;

  /// Marks still-open calls as abandoned; call at the experiment horizon.
  void finalize_remaining();

  [[nodiscard]] monitor::CallLog& log() noexcept { return log_; }
  [[nodiscard]] const monitor::CallLog& log() const noexcept { return log_; }
  /// Calls placed so far, whatever their outcome or state.
  [[nodiscard]] std::uint64_t calls_offered() const noexcept { return next_call_index_; }
  /// RTP packets this host's media legs emitted, ended and live.
  [[nodiscard]] std::uint64_t rtp_packets_sent() const noexcept;
  /// 503-triggered INVITE re-attempts (scenario_.retry must be enabled).
  [[nodiscard]] std::uint64_t retries() const noexcept { return retries_; }
  /// Re-attempts that changed backend (dispatcher repick or DNS rotation).
  [[nodiscard]] std::uint64_t retries_rerouted() const noexcept { return retries_rerouted_; }
  /// Timed-out INVITEs rescued onto another backend (dispatcher mode only).
  [[nodiscard]] std::uint64_t failovers() const noexcept { return failovers_; }
  /// Calls the dispatcher could not place anywhere (all backends ejected).
  [[nodiscard]] std::uint64_t dispatch_rejected() const noexcept { return dispatch_rejected_; }

 private:
  struct Call {
    std::uint64_t index{0};
    std::string pbx_host;  // which server carries this call
    net::NodeId pbx_node{net::kInvalidNode};  // pbx_host, resolved per attempt
    TimePoint offered_at{};
    TimePoint answered_at{};
    Duration hold{};
    MediaLeg media{rtp::g711_ulaw(), 0};  // re-made per call codec
    std::shared_ptr<const sip::SipPayload> invite;  // as sent
    sip::Dialog dialog;
    bool answered{false};
    bool acd{false};  // dials "queue-<name>" instead of its paired receiver
    sim::EventId bye_timer{0};
    std::uint32_t attempt{1};        // INVITEs sent for this call so far
    sim::EventId retry_timer{0};     // pending 503 backoff, 0 when none
    std::uint32_t population_user{0};  // finite mode: which user placed it
    std::uint64_t journey{0};        // span track for this call's journey
    telemetry::SpanTracer::SpanId setup_span{0};
  };
  // Measured: at 1 KiB or more, each call's allocation takes glibc's
  // large-bin path and runs malloc_consolidate once per call.
  static_assert(sizeof(Call) < 1000, "a call record must stay under 1 KiB");

  void schedule_next_arrival();
  void place_call();
  void send_invite(Call& call);
  void schedule_retry(std::uint64_t index, Duration delay);
  /// Re-targets `call` for its next attempt (dispatcher repick, or DNS
  /// rotation with several hosts). False = nowhere to go; the call was
  /// finished as blocked and must not be re-sent.
  [[nodiscard]] bool reroute_for_retry(Call& call);
  void on_invite_response(std::uint64_t index, const sip::Message& resp);
  void on_invite_timeout(std::uint64_t index);
  void send_bye(std::uint64_t index);
  void finish(std::uint64_t index, monitor::CallOutcome outcome);
  [[nodiscard]] Call* find(std::uint64_t index);
  /// Draws a call's preferred codec from the scenario mix. No RNG is
  /// consumed when the mix is empty or has a single entry, so classic
  /// single-codec runs keep their exact event sequence.
  [[nodiscard]] rtp::Codec draw_codec();

  // Finite-population bookkeeping (Engset mode).
  void user_became_idle();

  std::vector<std::string> pbx_hosts_;
  dispatch::Dispatcher* dispatcher_{nullptr};
  rtp::SsrcAllocator& ssrcs_;
  CallScenario scenario_;
  sim::Random rng_;
  monitor::CallLog log_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Call>> calls_;  // by index
  std::uint64_t next_call_index_{0};
  std::uint64_t retries_{0};
  std::uint64_t retries_rerouted_{0};
  std::uint64_t failovers_{0};
  std::uint64_t dispatch_rejected_{0};
  std::uint32_t idle_users_{0};  // finite mode
  sim::EventId arrival_timer_{0};
  bool started_{false};
  bool window_closed_{false};

  /// Records an instant on `call`'s journey track; no-op without tracing.
  void journey_instant(Call& call, std::uint32_t name, const std::string* detail = nullptr);

  // Journey span names; interned when tracing is on.
  std::uint32_t jn_pick_{0};
  std::uint32_t jn_repick_{0};
  std::uint32_t jn_reject_{0};
  std::uint32_t jn_bench_{0};
  std::uint32_t jn_timeout_{0};
  std::uint32_t jn_failover_{0};
  std::uint32_t jn_setup_{0};
};

}  // namespace pbxcap::loadgen
