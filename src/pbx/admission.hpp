// Call admission control policies.
//
// The paper's Asterisk blocks only on hard channel exhaustion. Its reference
// [8] (Chen, "A new VoIP call admission control based on blocking
// probability calculation") proposes admitting a call only while the
// *measured* offered load keeps the Erlang-B blocking prediction under a
// target — rejecting early, before the pool is full, to hold a grade of
// service. This module implements that predictive CAC: it estimates the
// arrival rate and mean hold time online (EWMA) and evaluates Equation (2)
// per attempt.
#pragma once

#include <cstdint>

#include "util/time.hpp"

namespace pbxcap::pbx {

enum class AdmissionPolicy : std::uint8_t {
  kChannelPool,       // admit while a channel is free (the paper's Asterisk)
  kErlangPredictive,  // admit while predicted Erlang-B blocking <= target
};

struct PredictiveCacConfig {
  double target_blocking{0.01};
  /// EWMA smoothing for the inter-arrival and hold-time estimators.
  double smoothing{0.05};
  /// Attempts to observe before the estimator is trusted; everything is
  /// admitted (capacity permitting) until then.
  std::uint32_t warmup_attempts{20};
  /// Prior mean hold time used until real samples arrive.
  Duration initial_hold{Duration::seconds(120)};
};

class ErlangPredictiveCac {
 public:
  explicit ErlangPredictiveCac(PredictiveCacConfig config = {});

  /// Records an attempt and decides admission given the pool capacity.
  /// Call exactly once per INVITE, before claiming a channel.
  [[nodiscard]] bool admit(TimePoint now, std::uint32_t capacity);

  /// Feeds a completed call's duration into the hold-time estimator.
  void on_call_finished(Duration hold);

  [[nodiscard]] double estimated_arrival_rate() const noexcept { return rate_per_s_; }
  [[nodiscard]] Duration estimated_hold() const noexcept { return hold_; }
  [[nodiscard]] double estimated_offered_erlangs() const noexcept {
    return rate_per_s_ * hold_.to_seconds();
  }
  [[nodiscard]] double last_predicted_blocking() const noexcept { return last_prediction_; }
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }
  [[nodiscard]] std::uint64_t attempts() const noexcept { return attempts_; }

 private:
  PredictiveCacConfig config_;
  std::uint64_t attempts_{0};
  std::uint64_t rejected_{0};
  bool have_arrival_{false};
  TimePoint last_arrival_{};
  double mean_interarrival_s_{0.0};
  double rate_per_s_{0.0};
  Duration hold_;
  bool have_hold_sample_{false};
  double last_prediction_{0.0};
};

}  // namespace pbxcap::pbx
