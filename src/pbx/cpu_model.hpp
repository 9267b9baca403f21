// PBX host CPU utilization model.
//
// The paper observes (§IV) that Asterisk's CPU demand grows proportionally
// to the carried load, that RTP relaying — not SIP signalling — dominates,
// and that error handling at the highest workload "rose a little more". We
// model exactly that structure: every unit of protocol work deposits a
// calibrated cost into per-second buckets, and utilization is work/wall
// per bucket. Default coefficients are calibrated against Table I for the
// paper's 2.67 GHz Xeon (see EXPERIMENTS.md for the fit).
#pragma once

#include <cstdint>
#include <vector>

#include "stats/summary.hpp"
#include "util/time.hpp"

namespace pbxcap::pbx {

/// Work deposited per rejection/error-path event.
inline constexpr Duration kCostPerErrorEvent = Duration::millis(30);

struct CpuModelConfig {
  double base_utilization{0.05};            // OS + Asterisk housekeeping
  Duration cost_per_sip_message{Duration::micros(450)};
  Duration cost_per_rtp_packet{Duration::micros(24)};   // relay: rx + bridge + tx
  /// Degradation mode: once the current bucket's utilization crosses
  /// `overload_threshold`, each further unit of work costs
  /// `overload_multiplier` times as much (cache thrash, lock convoys, paging
  /// — the super-linear regime real servers enter past saturation).
  /// A threshold >= 1.0 disables the mode.
  double overload_threshold{1.0};
  double overload_multiplier{1.0};
};

class CpuModel {
 public:
  explicit CpuModel(CpuModelConfig config = {},
                    Duration bucket_width = Duration::seconds(1));

  void on_sip_message(TimePoint at) { deposit(at, config_.cost_per_sip_message); }
  void on_rtp_packet(TimePoint at) { deposit(at, config_.cost_per_rtp_packet); }
  /// Relay cost plus a per-packet surcharge (per-direction transcoding work
  /// on a codec-mismatched bridge). Zero extra is exactly on_rtp_packet.
  void on_rtp_packet(TimePoint at, Duration extra) {
    deposit(at, config_.cost_per_rtp_packet + extra);
  }
  void on_error_event(TimePoint at) { deposit(at, kCostPerErrorEvent); }

  /// Deposits the relay cost (plus the optional per-packet transcode
  /// surcharge) of `count` RTP packets arriving at `first + i * spacing` in
  /// closed form per bucket — the fluid fast path. Bucket sums are
  /// bit-identical to `count` on_rtp_packet calls while the overload regime
  /// is not engaged (it falls back to per-packet deposits once the current
  /// bucket crosses the overload threshold).
  void on_rtp_packets(TimePoint first, Duration spacing, std::uint32_t count,
                      Duration extra = Duration::zero());

  /// Utilization summary over [from, to): one sample per bucket, each
  /// clamped to 1.0 (a real core cannot exceed 100 %).
  [[nodiscard]] stats::Summary utilization(TimePoint from, TimePoint to) const;

  /// Utilization of the single bucket containing `at`.
  [[nodiscard]] double utilization_at(TimePoint at) const;

  [[nodiscard]] const CpuModelConfig& config() const noexcept { return config_; }
  /// Deposits inflated by the overload multiplier (degradation diagnostics).
  [[nodiscard]] std::uint64_t overload_inflations() const noexcept {
    return overload_inflations_;
  }

 private:
  void deposit(TimePoint at, Duration work);
  [[nodiscard]] std::size_t bucket_of(TimePoint at) const noexcept;

  CpuModelConfig config_;
  Duration bucket_width_;
  std::vector<Duration> buckets_;  // work per bucket, grown on demand
  std::uint64_t overload_inflations_{0};
};

}  // namespace pbxcap::pbx
