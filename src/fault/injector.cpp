#include "fault/injector.hpp"

#include "net/link.hpp"
#include "sim/profile.hpp"
#include "pbx/asterisk_pbx.hpp"
#include "telemetry/span.hpp"

namespace pbxcap::fault {

FaultInjector::FaultInjector(sim::Simulator& simulator, FaultPlan plan, FaultTargets targets)
    : simulator_{simulator}, plan_{std::move(plan)}, targets_{targets} {}

void FaultInjector::set_tracer(telemetry::SpanTracer* tracer) {
  tracer_ = tracer;
  fault_track_ = tracer_ == nullptr ? 0 : tracer_->track_id("faults");
}

net::Link* FaultInjector::link_for(const FaultEvent& event) const {
  if (event.kind != FaultKind::kLink) return nullptr;
  switch (event.target) {
    case LinkTarget::kClient: return targets_.client_link;
    case LinkTarget::kServer: return targets_.server_link;
    case LinkTarget::kPbx: return targets_.pbx_link;
  }
  return nullptr;
}

void FaultInjector::arm() {
  if (armed_) return;
  armed_ = true;
  const sim::CategoryScope cat_scope{simulator_, sim::Category::kFault};
  for (std::size_t i = 0; i < plan_.events().size(); ++i) {
    const auto fire = [this, i] { apply(plan_.events()[i]); };
    static_assert(sim::Callback::stores_inline<decltype(fire)>());
    simulator_.schedule_at(TimePoint::at(plan_.events()[i].at), fire);
  }
}

void FaultInjector::apply(const FaultEvent& event) {
  if (pre_apply_) pre_apply_();
  switch (event.kind) {
    case FaultKind::kLink: {
      net::Link* link = link_for(event);
      if (link == nullptr) {
        ++skipped_;
        return;
      }
      link->apply_impairment(event.change);
      break;
    }
    case FaultKind::kStall:
      if (targets_.pbx == nullptr) {
        ++skipped_;
        return;
      }
      targets_.pbx->stall_for(event.duration);
      break;
    case FaultKind::kCrash:
      if (targets_.pbx == nullptr) {
        ++skipped_;
        return;
      }
      targets_.pbx->crash_restart(event.duration);
      break;
  }
  ++applied_;
  if (tracer_ != nullptr) {
    tracer_->instant(tracer_->name_id(std::string{"fault."} + to_string(event.kind)),
                     fault_track_, simulator_.now());
  }
}

}  // namespace pbxcap::fault
