// Hybrid fluid/packet media engine.
//
// At Table-I scale the 20 ms RTP pacing tick dominates the event population: a
// relayed packet costs 5 events, its pacing tick and one delivery per link hop
// (sender->switch, switch->PBX, PBX->switch, switch->receiver); the switch's
// delay rides on the hop into it and the PBX relays inline. While a stream's
// path is in steady state — no pending impairment edits, watched links
// loss-free, jitter-free, and far from queue saturation — per-packet
// simulation adds no information:
// every packet departs on the pacing grid, traverses the same fixed latency,
// and lands in the same statistics in closed form. The FluidEngine lets such
// streams *coast*: their pacing ticks are suspended and the accumulated packet
// run is fast-forwarded as a single batch packet at the next boundary (RTCP
// report, telemetry sample, fault edit, BYE, or the max-segment backstop).
// Exact per-packet counts stay bit-identical; EWMA-style estimators (RFC 3550
// jitter) use closed-form decay.
//
// Segment state machine (per stream):
//
//   per-packet --try_enter()--> fluid --flush--> fluid        (stay: RTCP,
//        ^                        |                            backstop)
//        |                        +--suspend/transient--> per-packet
//        +--- dwell + boundary guard hold re-entry (resume_at_)
//
// Flush triggers, one per boundary cause: (1) the engine's own boundary
// timer kBoundaryGuard before each telemetry sampling tick (suspends until
// the boundary so in-flight packets drain exactly and the row reads settled
// state); (2) RtcpSession pre-report hook (per-SSRC, stays fluid); (3) fault
// transients — the FaultInjector pre-apply hook, which covers link edits,
// PBX stalls and crashes (suspend for the dwell); (4) the max-segment
// backstop; (5) sender stop (BYE). The dwell (200 ms) and the backstop
// period (10 s) are constants of fluid.cpp.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/link.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace pbxcap::rtp {

class RtpSender;

struct FluidConfig {
  bool enabled{false};
};

/// Registry and policy for coasting RTP streams. One engine per experiment;
/// senders opt in via RtpSender::set_fluid and consult the engine on every
/// per-packet emission.
class FluidEngine {
 public:
  FluidEngine(sim::Simulator& simulator, FluidConfig config)
      : simulator_{simulator}, config_{config} {}
  FluidEngine(const FluidEngine&) = delete;
  FluidEngine& operator=(const FluidEngine&) = delete;

  /// Adds a link to the steady-state eligibility checks. Edits to it must
  /// reach on_transient() first (FaultInjector::set_pre_apply).
  void watch_link(net::Link& link);

  /// Telemetry sampling period; enables the pre-boundary flush schedule.
  void set_boundary_period(Duration period) { boundary_period_ = period; }

  /// Arms the max-segment backstop and (if a boundary period is set) the
  /// pre-boundary flush timers. Call once, before the run.
  void start();
  /// Flushes everything and cancels the engine's timers.
  void stop();

  /// Steady-state test: engine enabled, past any hold, and every watched
  /// link loss-free, jitter-free, not blacked out, and under the backlog
  /// threshold in both directions.
  [[nodiscard]] bool eligible() const;

  /// Registers `sender` as coasting if the path is eligible. The sender
  /// flips its own state on a true return.
  bool try_enter(RtpSender& sender);

  /// Unregisters a stream (sender stop / BYE path).
  void remove(std::uint32_t ssrc);

  /// Flushes one coasting stream to `now()`; it keeps coasting. Returns the
  /// number of packets materialized. Used by the RTCP pre-report hook —
  /// per-SSRC on purpose: a global flush per report would cost as much as
  /// per-packet mode at scale.
  std::uint64_t flush_stream(std::uint32_t ssrc);

  /// SIP teardown boundary: flushes one coasting stream, returns it to
  /// per-packet pacing, and holds re-entry for the dwell. Called by the BYE
  /// initiator on the *remote* stream — its pending segment must land while
  /// the PBX bridge is still up, and the tail racing the BYE through the
  /// PBX must drain with exact per-packet timing.
  void exit_stream(std::uint32_t ssrc);

  /// A non-steady-state edit is about to land: flush under the current
  /// behaviour, fall back to exact per-packet simulation, dwell.
  void on_transient();

  [[nodiscard]] const FluidConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t active_streams() const noexcept { return streams_.size(); }
  [[nodiscard]] std::uint64_t segments_entered() const noexcept { return segments_; }
  [[nodiscard]] std::uint64_t transients() const noexcept { return transients_; }

 private:
  void arm_boundary();
  void arm_segment();
  /// Flushes every coasting stream to `now()`; all keep coasting.
  void flush_all();
  /// Flushes and exits every coasting stream, and holds re-entry until
  /// `resume` (pre-boundary and transient path).
  void suspend_until(TimePoint resume);

  sim::Simulator& simulator_;
  FluidConfig config_;
  std::vector<net::Link*> links_;
  std::unordered_map<std::uint32_t, RtpSender*> streams_;
  TimePoint resume_at_{};
  Duration boundary_period_{Duration::zero()};
  sim::EventId boundary_event_{0};
  sim::EventId segment_event_{0};
  std::uint64_t segments_{0};
  std::uint64_t transients_{0};
};

}  // namespace pbxcap::rtp
