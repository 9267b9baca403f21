#include "exp/report_util.hpp"

#include <algorithm>

namespace pbxcap::exp {

Duration run_horizon(const loadgen::CallScenario& scenario, Duration drain) {
  // Hold tail: deterministic holds end exactly at window + h; stochastic
  // models need slack for the distribution's tail before the drain cutoff.
  const double hold_tail_factor =
      scenario.hold_model == sim::HoldTimeModel::kDeterministic ? 1.0 : 4.0;
  return scenario.placement_window +
         Duration::from_seconds(scenario.hold_time.to_seconds() * hold_tail_factor) + drain;
}

std::pair<TimePoint, TimePoint> cpu_interval(const loadgen::CallScenario& scenario) {
  Duration from = std::min(scenario.hold_time, scenario.placement_window);
  if (from >= scenario.placement_window) from = Duration::nanos(scenario.placement_window.ns() / 2);
  return {TimePoint::at(from), TimePoint::at(scenario.placement_window)};
}

}  // namespace pbxcap::exp
