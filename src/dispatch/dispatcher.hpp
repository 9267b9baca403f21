// SIP dispatcher — the cluster's routing front end.
//
// Sits between the caller bank and the PBX fleet (the role a Kamailio/
// OpenSIPS dispatcher or an SRV-priority DNS tier plays in production) and
// owns all per-backend routing state:
//
//   * pluggable balancing policies — static round-robin, least-loaded by
//     live channel occupancy (the dispatcher's own admitted-minus-released
//     accounting), and smooth weighted round-robin for heterogeneous fleets;
//   * 503/Retry-After-aware backoff: a backend that sheds an INVITE with a
//     Retry-After hint is benched for the advertised time instead of being
//     hammered by the very next arrival;
//   * active health checks: periodic SIP OPTIONS probes with a short
//     dispatcher-side timeout (not Timer F) drive a per-backend circuit
//     breaker — closed -> open after 3 consecutive failures, open ->
//     half-open probing after 2 s, half-open -> closed after 2 consecutive
//     successes. INVITE timeouts
//     reported by the caller bank count as failures too, so a crashed
//     backend is ejected even between probe ticks.
//
// Routing is a local function call (pick/release), not a proxied SIP hop:
// the model is a redirect-style front end, so the media path and the
// Fig. 2 message ladder stay exactly as the paper measures them. Everything
// is driven off the simulator clock — same seed, same decisions, byte-
// identical reruns.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sip/endpoint.hpp"
#include "util/time.hpp"

namespace pbxcap::dispatch {

enum class Policy : std::uint8_t {
  kRoundRobin,   // rotate over eligible backends
  kLeastLoaded,  // fewest live calls (dispatcher-tracked occupancy)
  kWeighted,     // smooth weighted round-robin (nginx algorithm)
};

[[nodiscard]] const char* to_string(Policy policy) noexcept;

enum class CircuitState : std::uint8_t { kClosed, kOpen, kHalfOpen };

[[nodiscard]] const char* to_string(CircuitState state) noexcept;

struct DispatcherConfig {
  Policy policy{Policy::kRoundRobin};
};

/// One fleet member as the dispatcher sees it.
struct BackendConfig {
  std::string host;
  std::uint32_t weight{1};  // kWeighted only; e.g. channels_per_server
};

/// Cumulative per-backend routing/health observations.
struct BackendStats {
  std::string host;
  CircuitState circuit{CircuitState::kClosed};
  std::uint32_t occupancy{0};        // live calls currently assigned
  std::uint64_t calls_routed{0};     // picks that landed here
  std::uint64_t probes_sent{0};
  std::uint64_t probe_failures{0};
  std::uint64_t circuit_opens{0};
};

class Dispatcher final : public sip::SipEndpoint {
 public:
  Dispatcher(std::string host, std::vector<BackendConfig> backends, DispatcherConfig config,
             sim::Simulator& simulator, sip::HostResolver& resolver);

  /// Starts the OPTIONS probe loop (requires the node to be attached and
  /// bound).
  void start();

  /// The endpoint's rows, then routing and health per backend and in total.
  void publish(telemetry::MetricsRegistry& reg) const override;

  /// Chooses a backend for a new call and claims one occupancy slot on it.
  /// Returns nullptr when no backend is eligible (every circuit open or
  /// bench non-empty) — the dispatcher's own 503, in effect.
  [[nodiscard]] const std::string* pick() { return pick_excluding(nullptr); }

  /// Failover variant: re-picks for an in-flight call, avoiding the backend
  /// it just failed on (unless that is the only eligible one).
  [[nodiscard]] const std::string* repick(const std::string& exclude) {
    return pick_excluding(&exclude);
  }

  /// Releases the occupancy slot claimed by pick()/repick(). Call exactly
  /// once per claim, when the call leaves the backend (finished, blocked,
  /// or rerouted away).
  void release(const std::string& host);

  // ---- caller-bank feedback ----

  /// The backend answered the INVITE 200 OK (stats only; the slot was
  /// already claimed at pick time).
  void on_call_admitted(const std::string& host);

  /// The backend shed or rejected an INVITE with 503. `retry_after` > 0
  /// benches the backend until now + retry_after (RFC 6357 client duty); a
  /// plain 503 does not bench it (it usually means "this call lost the race
  /// for the last channel", not "the box is down").
  void on_reject_503(const std::string& host, Duration retry_after);

  /// The INVITE transaction timed out — strong evidence the backend is
  /// down; counts toward the circuit breaker like a failed probe.
  void on_invite_timeout(const std::string& host);

  // ---- observations ----

  [[nodiscard]] const DispatcherConfig& config() const noexcept { return config_; }
  [[nodiscard]] BackendStats backend_stats(std::size_t i) const;
  [[nodiscard]] CircuitState circuit(std::size_t i) const { return backends_[i].circuit; }
  [[nodiscard]] std::uint32_t occupancy(std::size_t i) const { return backends_[i].occupancy; }
  /// pick()/repick() calls that claimed a backend slot.
  [[nodiscard]] std::uint64_t picks_total() const noexcept { return picks_total_; }
  /// pick()/repick() calls that found no eligible backend.
  [[nodiscard]] std::uint64_t picks_rejected() const noexcept { return picks_rejected_; }
  /// Backends whose circuit breaker is not closed right now.
  [[nodiscard]] std::uint32_t open_circuits() const noexcept;
  /// Backends sitting out a 503 Retry-After bench at `now`.
  [[nodiscard]] std::uint32_t benched_backends(TimePoint now) const noexcept;
  // Fleet totals: sums of the per-backend counters.
  [[nodiscard]] std::uint64_t probes_sent() const noexcept { return total(&Backend::probes_sent); }
  [[nodiscard]] std::uint64_t probe_failures() const noexcept {
    return total(&Backend::probe_failures);
  }
  [[nodiscard]] std::uint64_t circuit_opens() const noexcept {
    return total(&Backend::circuit_opens);
  }

 private:
  struct Backend {
    BackendConfig cfg;
    CircuitState circuit{CircuitState::kClosed};
    TimePoint benched_until{};       // 503 Retry-After backoff
    TimePoint half_open_at{};        // kOpen: when probing resumes
    std::uint32_t consecutive_failures{0};
    std::uint32_t consecutive_successes{0};
    std::int64_t wrr_current{0};     // smooth-WRR running score
    std::uint32_t occupancy{0};
    std::uint64_t probe_seq{0};      // id of the newest in-flight probe
    bool probe_pending{false};
    // Cumulative stats.
    std::uint64_t calls_routed{0};
    std::uint64_t probes_sent{0};
    std::uint64_t probe_failures{0};
    std::uint64_t circuit_opens{0};
  };

  [[nodiscard]] const std::string* pick_excluding(const std::string* exclude);
  [[nodiscard]] bool eligible(const Backend& backend, TimePoint now) const;
  [[nodiscard]] Backend* by_host(const std::string& host);
  [[nodiscard]] std::uint64_t total(std::uint64_t Backend::*counter) const noexcept;

  void probe_tick();
  void send_probe(std::size_t i);
  void on_probe_result(std::size_t i, std::uint64_t seq, bool ok);
  void record_failure(Backend& backend);
  void record_success(Backend& backend);

  DispatcherConfig config_;
  std::vector<Backend> backends_;
  std::int64_t wrr_total_weight_{0};
  std::uint32_t rr_next_{0};  // rotation cursor (round-robin + tie-breaks)
  bool started_{false};
  std::uint64_t picks_total_{0};
  std::uint64_t picks_rejected_{0};
  std::uint64_t probe_cseq_{0};
};

}  // namespace pbxcap::dispatch
