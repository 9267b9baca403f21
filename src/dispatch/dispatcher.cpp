#include "dispatch/dispatcher.hpp"

#include <stdexcept>

#include "sim/profile.hpp"

#include "util/strings.hpp"

namespace pbxcap::dispatch {

using sip::Message;
using sip::Method;

namespace {

// Active-probe and circuit-breaker parameters. The probe deadline sits far
// below SIP Timer F so a dead backend is detected in seconds, not
// half-minutes.
constexpr Duration kProbePeriod = Duration::seconds(1);
constexpr Duration kProbeTimeout = Duration::millis(500);
constexpr std::uint32_t kFailThreshold = 3;   // consecutive failures -> open
constexpr Duration kOpenCooldown = Duration::seconds(2);  // open -> half-open probing
constexpr std::uint32_t kCloseThreshold = 2;  // consecutive half-open successes -> closed

}  // namespace

const char* to_string(Policy policy) noexcept {
  switch (policy) {
    case Policy::kRoundRobin: return "round_robin";
    case Policy::kLeastLoaded: return "least_loaded";
    case Policy::kWeighted: return "weighted";
  }
  return "?";
}

const char* to_string(CircuitState state) noexcept {
  switch (state) {
    case CircuitState::kClosed: return "closed";
    case CircuitState::kOpen: return "open";
    case CircuitState::kHalfOpen: return "half_open";
  }
  return "?";
}

Dispatcher::Dispatcher(std::string host, std::vector<BackendConfig> backends,
                       DispatcherConfig config, sim::Simulator& simulator,
                       sip::HostResolver& resolver)
    : sip::SipEndpoint{"dispatcher", std::move(host), simulator, resolver}, config_{config} {
  if (backends.empty()) throw std::invalid_argument{"Dispatcher: need at least one backend"};
  backends_.reserve(backends.size());
  for (auto& b : backends) {
    if (b.weight == 0) throw std::invalid_argument{"Dispatcher: backend weight must be > 0"};
    Backend backend;
    backend.cfg = std::move(b);
    wrr_total_weight_ += backend.cfg.weight;
    backends_.push_back(std::move(backend));
  }
  // The dispatcher never receives requests (probes are client transactions).
  transactions().on_request = [](const Message&, sip::ServerTransaction&) {};
  transactions().on_ack = [](const Message&) {};
}

void Dispatcher::start() {
  if (started_) return;
  started_ = true;
  const sim::CategoryScope cat_scope{transactions().simulator(), sim::Category::kDispatch};
  transactions().simulator().schedule_in(kProbePeriod, [this] { probe_tick(); });
}

// ----------------------------------------------------------------- routing --

bool Dispatcher::eligible(const Backend& backend, TimePoint now) const {
  if (backend.circuit != CircuitState::kClosed) return false;
  return now >= backend.benched_until;
}

const std::string* Dispatcher::pick_excluding(const std::string* exclude) {
  const TimePoint now = transactions().simulator().now();
  const std::size_t n = backends_.size();

  // Candidate set: closed circuits off the 503 bench. The excluded backend
  // only drops out if someone else is still eligible — failing over onto the
  // sole survivor beats failing the call.
  std::uint32_t candidates = 0;
  std::uint32_t candidates_excluding = 0;
  for (const Backend& b : backends_) {
    if (!eligible(b, now)) continue;
    ++candidates;
    if (exclude == nullptr || b.cfg.host != *exclude) ++candidates_excluding;
  }
  const bool honour_exclude = candidates_excluding > 0;
  if (candidates == 0) {
    ++picks_rejected_;
    return nullptr;
  }
  const auto allowed = [&](const Backend& b) {
    if (!eligible(b, now)) return false;
    return !honour_exclude || exclude == nullptr || b.cfg.host != *exclude;
  };

  Backend* chosen = nullptr;
  switch (config_.policy) {
    case Policy::kRoundRobin: {
      for (std::size_t step = 0; step < n; ++step) {
        Backend& b = backends_[(rr_next_ + step) % n];
        if (allowed(b)) {
          chosen = &b;
          rr_next_ = static_cast<std::uint32_t>((rr_next_ + step + 1) % n);
          break;
        }
      }
      break;
    }
    case Policy::kLeastLoaded: {
      // Fewest live calls wins; ties resolve round-robin so equal backends
      // share load instead of the lowest index soaking it all up.
      std::uint32_t best = UINT32_MAX;
      for (const Backend& b : backends_) {
        if (allowed(b) && b.occupancy < best) best = b.occupancy;
      }
      for (std::size_t step = 0; step < n; ++step) {
        Backend& b = backends_[(rr_next_ + step) % n];
        if (allowed(b) && b.occupancy == best) {
          chosen = &b;
          rr_next_ = static_cast<std::uint32_t>((rr_next_ + step + 1) % n);
          break;
        }
      }
      break;
    }
    case Policy::kWeighted: {
      // Smooth WRR over the eligible set: add each weight, take the highest
      // running score, subtract the eligible total from the winner. Exact
      // weight proportions over every total-weight-length window, no bursts.
      std::int64_t eligible_weight = 0;
      for (Backend& b : backends_) {
        if (!allowed(b)) continue;
        b.wrr_current += b.cfg.weight;
        eligible_weight += b.cfg.weight;
        if (chosen == nullptr || b.wrr_current > chosen->wrr_current) chosen = &b;
      }
      if (chosen != nullptr) chosen->wrr_current -= eligible_weight;
      break;
    }
  }
  if (chosen == nullptr) {  // unreachable given candidates > 0, but be safe
    ++picks_rejected_;
    return nullptr;
  }
  ++chosen->occupancy;
  ++chosen->calls_routed;
  ++picks_total_;
  return &chosen->cfg.host;
}

std::uint32_t Dispatcher::open_circuits() const noexcept {
  std::uint32_t n = 0;
  for (const Backend& b : backends_) {
    if (b.circuit != CircuitState::kClosed) ++n;
  }
  return n;
}

void Dispatcher::publish(telemetry::MetricsRegistry& reg) const {
  sip::SipEndpoint::publish(reg);
  for (const Backend& b : backends_) {
    const telemetry::LabelSet backend{{"backend", b.cfg.host}};
    reg.counter("pbxcap_cluster_calls_routed_total", backend,
                "Calls the routing tier dispatched to each backend")
        .add(b.calls_routed);
    reg.counter("pbxcap_cluster_circuit_opens_total", backend,
                "Circuit-breaker ejections per backend")
        .add(b.circuit_opens);
    reg.gauge("pbxcap_dispatch_circuit_state", backend,
              "Circuit-breaker state (0 closed, 1 open, 2 half-open)")
        .add(static_cast<double>(b.circuit));
  }
  reg.counter("pbxcap_cluster_dispatch_rejected_total", {},
              "Calls with no eligible backend at pick time")
      .add(picks_rejected_);
  reg.counter("pbxcap_cluster_probes_total", {}, "Health probes sent").add(probes_sent());
  reg.counter("pbxcap_cluster_probe_failures_total", {}, "Health probes failed")
      .add(probe_failures());
  reg.counter("pbxcap_dispatch_picks_total", {},
              "Successful backend picks (initial routes, retries, failovers)")
      .add(picks_total_);
  reg.gauge("pbxcap_dispatch_benched_backends", {},
            "Backends on 503 Retry-After backoff at run end")
      .add(static_cast<double>(benched_backends(transactions().simulator().now())));
}

std::uint32_t Dispatcher::benched_backends(TimePoint now) const noexcept {
  std::uint32_t n = 0;
  for (const Backend& b : backends_) {
    if (now < b.benched_until) ++n;
  }
  return n;
}

Dispatcher::Backend* Dispatcher::by_host(const std::string& host) {
  for (Backend& b : backends_) {
    if (b.cfg.host == host) return &b;
  }
  return nullptr;
}

std::uint64_t Dispatcher::total(std::uint64_t Backend::*counter) const noexcept {
  std::uint64_t sum = 0;
  for (const Backend& b : backends_) sum += b.*counter;
  return sum;
}

void Dispatcher::release(const std::string& host) {
  if (Backend* b = by_host(host); b != nullptr && b->occupancy > 0) --b->occupancy;
}

void Dispatcher::on_call_admitted(const std::string& host) {
  (void)by_host(host);  // occupancy was claimed at pick time; nothing extra yet
}

void Dispatcher::on_reject_503(const std::string& host, Duration retry_after) {
  Backend* b = by_host(host);
  if (b == nullptr) return;
  if (retry_after > Duration::zero()) {
    const TimePoint until = transactions().simulator().now() + retry_after;
    if (until > b->benched_until) b->benched_until = until;
  }
}

void Dispatcher::on_invite_timeout(const std::string& host) {
  Backend* b = by_host(host);
  if (b == nullptr) return;
  record_failure(*b);
}

// ------------------------------------------------------------ health probes --

void Dispatcher::probe_tick() {
  const TimePoint now = transactions().simulator().now();
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    Backend& b = backends_[i];
    if (b.circuit == CircuitState::kOpen) {
      if (now < b.half_open_at) continue;  // still cooling down
      b.circuit = CircuitState::kHalfOpen;
      b.consecutive_successes = 0;
    }
    if (!b.probe_pending) send_probe(i);
  }
  const sim::CategoryScope cat_scope{transactions().simulator(), sim::Category::kDispatch};
  transactions().simulator().schedule_in(kProbePeriod, [this] { probe_tick(); });
}

void Dispatcher::send_probe(std::size_t i) {
  Backend& b = backends_[i];
  b.probe_pending = true;
  const std::uint64_t seq = ++b.probe_seq;
  ++b.probes_sent;

  Message options = Message::request(Method::kOptions, sip::Uri{"ping", b.cfg.host});
  options.from() = sip::NameAddr{sip::Uri{"dispatcher", sip_host()}, new_tag()};
  options.to() = sip::NameAddr{sip::Uri{"ping", b.cfg.host}, ""};
  options.set_call_id(util::format("probe-%llu@%s",
                                   static_cast<unsigned long long>(++probe_cseq_),
                                   sip_host().c_str()));
  options.set_cseq({1, Method::kOptions});

  send_request_to(
      std::move(options), resolver().resolve(b.cfg.host),
      [this, i, seq](const Message& resp) {
        if (sip::is_final(resp.status_code())) on_probe_result(i, seq, true);
      },
      [this, i, seq] { on_probe_result(i, seq, false); });

  // Dispatcher-side deadline, far shorter than SIP Timer F: no answer by
  // now + probe_timeout counts as a failure even though the transaction
  // keeps retransmitting underneath.
  const sim::CategoryScope cat_scope{transactions().simulator(), sim::Category::kDispatch};
  transactions().simulator().schedule_in(kProbeTimeout, [this, i, seq] {
    on_probe_result(i, seq, false);
  });
}

void Dispatcher::on_probe_result(std::size_t i, std::uint64_t seq, bool ok) {
  Backend& b = backends_[i];
  if (!b.probe_pending || seq != b.probe_seq) return;  // stale probe resolved twice
  b.probe_pending = false;
  if (ok) {
    record_success(b);
  } else {
    ++b.probe_failures;
    record_failure(b);
  }
}

void Dispatcher::record_failure(Backend& backend) {
  backend.consecutive_successes = 0;
  if (backend.circuit == CircuitState::kHalfOpen) {
    // A failed trial re-opens immediately and restarts the cooldown.
    backend.circuit = CircuitState::kOpen;
    backend.half_open_at = transactions().simulator().now() + kOpenCooldown;
    return;
  }
  if (backend.circuit == CircuitState::kClosed &&
      ++backend.consecutive_failures >= kFailThreshold) {
    backend.circuit = CircuitState::kOpen;
    backend.half_open_at = transactions().simulator().now() + kOpenCooldown;
    ++backend.circuit_opens;
  }
}

void Dispatcher::record_success(Backend& backend) {
  backend.consecutive_failures = 0;
  if (backend.circuit == CircuitState::kHalfOpen &&
      ++backend.consecutive_successes >= kCloseThreshold) {
    backend.circuit = CircuitState::kClosed;
    backend.consecutive_successes = 0;
  }
}

BackendStats Dispatcher::backend_stats(std::size_t i) const {
  const Backend& b = backends_[i];
  BackendStats out;
  out.host = b.cfg.host;
  out.circuit = b.circuit;
  out.occupancy = b.occupancy;
  out.calls_routed = b.calls_routed;
  out.probes_sent = b.probes_sent;
  out.probe_failures = b.probe_failures;
  out.circuit_opens = b.circuit_opens;
  return out;
}

}  // namespace pbxcap::dispatch
