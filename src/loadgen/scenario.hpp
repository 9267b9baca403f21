// Traffic scenario description — the knobs of the paper's empirical method.
//
// §III-C: "The SIP Client generates calls with an arrival rate of lambda;
// the SIP Server answers the calls; both exchange RTP packets for h seconds."
// Offered traffic A = lambda * h Erlangs. The paper uses a 180 s placement
// window and h = 120 s deterministic hold time.
#pragma once

#include <cstdint>
#include <vector>

#include "rtp/codec.hpp"
#include "sim/random.hpp"
#include "util/time.hpp"

namespace pbxcap::loadgen {

/// Caller reaction to 503 Service Unavailable: exponential backoff with a
/// retry budget of 4 INVITEs per call, first included (the client half of
/// SIP overload control). The server's Retry-After header, when present,
/// replaces `base_backoff` as the first delay; each further attempt doubles
/// up to 16 s, with up to +10 % deterministic jitter so a cohort of callers
/// rejected together does not return as one thundering herd.
struct RetryPolicy {
  bool enabled{false};
  Duration base_backoff{Duration::seconds(2)};
};

struct CallScenario {
  /// Mean call arrival rate (calls per second). For a target offered load A
  /// in Erlangs: lambda = A / h.
  double arrival_rate_per_s{1.0};
  /// Calls are offered during [0, placement_window).
  Duration placement_window{Duration::seconds(180)};
  /// Mean call duration h.
  Duration hold_time{Duration::seconds(120)};
  sim::HoldTimeModel hold_model{sim::HoldTimeModel::kDeterministic};
  /// Voice codec for the media streams (paper: G.711 ulaw). When
  /// `codec_mix` is non-empty this is only the fallback for calls placed
  /// before the mix was configured — see below.
  rtp::Codec codec{rtp::g711_ulaw()};
  /// One entry of the weighted codec mix.
  struct CodecShare {
    rtp::Codec codec;
    double weight{1.0};
  };
  /// Scenario-weighted codec preference mix (e.g. 60% PCMU / 30% G729 /
  /// 10% iLBC). Each offered call draws its *preferred* codec from this
  /// distribution and offers it first, followed by the remaining mix codecs
  /// in declared order (its fallback list) — the SDP offer the PBX filters
  /// and the receiver answers. Empty keeps the classic single-codec
  /// scenario: every call offers `codec` alone and the arrival process
  /// consumes the exact same RNG sequence as before.
  std::vector<CodecShare> codec_mix{};
  /// Payload types the receiver endpoint is willing to answer (its allow
  /// list, matched against the offer via Sdp::negotiate). Empty = every
  /// catalog codec. A no-overlap offer is rejected with 488 Not Acceptable
  /// Here; restricting this set against a caller mix is how a run forces
  /// the PBX into transcoded bridges.
  std::vector<std::uint8_t> receiver_payload_types{};
  /// Callee behaviour: delay between 180 Ringing and 200 OK.
  Duration answer_delay{Duration::millis(200)};
  /// Exchange RTCP sender/receiver reports alongside the media (off by
  /// default to keep Table I's RTP census identical to the paper's).
  bool rtcp{false};
  /// 0 = infinite population (Poisson). Otherwise an Engset-style finite
  /// source model: `finite_population` users, each idle user re-attempting
  /// at `per_user_rate_per_s`; `arrival_rate_per_s` is ignored.
  std::uint32_t finite_population{0};
  double per_user_rate_per_s{0.0};
  /// Hard cap on total attempts (0 = unlimited).
  std::uint64_t max_calls{0};
  /// 503 backoff-and-retry behaviour (off by default: Table-I callers take
  /// the blocking at face value, as the paper's SIPp scenario does).
  RetryPolicy retry{};
  /// Second traffic class: a fraction of calls dial an ACD queue
  /// ("queue-<name>") instead of a plain receiver. 0 keeps the classic
  /// single-class scenario (and draws no extra random numbers).
  struct AcdTraffic {
    double fraction{0.0};          // probability a call targets the queue
    std::string queue{"support"};  // AcdQueueConfig::name to dial
  };
  AcdTraffic acd{};

  [[nodiscard]] double offered_erlangs() const noexcept {
    return arrival_rate_per_s * hold_time.to_seconds();
  }

  /// Scenario for a target offered load (the usual way to build one).
  [[nodiscard]] static CallScenario for_offered_load(double erlangs,
                                                     Duration hold = Duration::seconds(120)) {
    CallScenario s;
    s.hold_time = hold;
    s.arrival_rate_per_s = erlangs / hold.to_seconds();
    return s;
  }
};

}  // namespace pbxcap::loadgen
