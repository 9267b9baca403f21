// Replays a FaultPlan against a live testbed.
//
// The injector binds plan targets (client/server/pbx links, the PBX host) to
// concrete objects and schedules one simulator event per plan entry. All
// mutation happens inside the event loop at exact simulated instants, so the
// injected chaos is fully deterministic and replayable.
#pragma once

#include <cstdint>
#include <functional>

#include "fault/plan.hpp"
#include "sim/simulator.hpp"

namespace pbxcap::net {
class Link;
}
namespace pbxcap::pbx {
class AsteriskPbx;
}
namespace pbxcap::telemetry {
class SpanTracer;
}

namespace pbxcap::fault {

/// Concrete objects the plan's symbolic targets resolve to. Null entries are
/// legal: events addressing them are counted as skipped, not errors (a plan
/// written for the wifi topology can run against the wired one).
struct FaultTargets {
  net::Link* client_link{nullptr};
  net::Link* server_link{nullptr};
  net::Link* pbx_link{nullptr};
  pbx::AsteriskPbx* pbx{nullptr};
};

class FaultInjector {
 public:
  FaultInjector(sim::Simulator& simulator, FaultPlan plan, FaultTargets targets);

  /// Schedules every plan event at its absolute simulated time. Call once,
  /// before (or at) t = 0 of the run.
  void arm();

  /// Invoked at the top of apply(), before the event mutates anything. The
  /// fluid media engine hooks in here so fast-forwarded streams are flushed
  /// to exact state under the pre-fault behaviour; this is its only
  /// transient trigger, for link edits, PBX stalls and crashes alike.
  void set_pre_apply(std::function<void()> hook) { pre_apply_ = std::move(hook); }

  /// Optional call-journey tracing: every applied fault lands as an instant
  /// event ("fault.link" / "fault.stall" / "fault.crash") on a shared
  /// "faults" track, so failure causes line up visually with the calls they
  /// disrupt. Set before arm(); nullptr (the default) records nothing.
  void set_tracer(telemetry::SpanTracer* tracer);

  [[nodiscard]] std::uint64_t events_applied() const noexcept { return applied_; }
  [[nodiscard]] std::uint64_t events_skipped() const noexcept { return skipped_; }
  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

 private:
  void apply(const FaultEvent& event);
  /// The link a kLink event edits; nullptr for other kinds or no target.
  [[nodiscard]] net::Link* link_for(const FaultEvent& event) const;

  sim::Simulator& simulator_;
  FaultPlan plan_;
  FaultTargets targets_;
  std::function<void()> pre_apply_;
  telemetry::SpanTracer* tracer_{nullptr};
  std::uint64_t fault_track_{0};
  bool armed_{false};
  std::uint64_t applied_{0};
  std::uint64_t skipped_{0};
};

}  // namespace pbxcap::fault
