// Run-length and steady-interval rules shared by every experiment.
//
// run_testbed and run_cluster must fill the same ExperimentReport the same
// way; historically each path re-derived these by hand and drifted. The
// report itself is built once, by the topology builder (exp/topology.cpp),
// and the intervals it summarizes over live here.
#pragma once

#include <utility>

#include "loadgen/scenario.hpp"
#include "util/time.hpp"

namespace pbxcap::exp {

/// How long to run the simulator for one experiment: placement window, plus
/// the hold time scaled by the distribution-tail slack (deterministic holds
/// end exactly at window + h; stochastic models get 4x for the tail), plus
/// the caller-supplied drain for BYE handshakes and retransmission timers.
[[nodiscard]] Duration run_horizon(const loadgen::CallScenario& scenario, Duration drain);

/// The loaded steady interval CPU utilization is summarized over: after the
/// ramp (one hold time) until the placement window closes. When holds outlast
/// the window (short smoke runs), the second half of the window, so the
/// interval is never empty.
[[nodiscard]] std::pair<TimePoint, TimePoint> cpu_interval(const loadgen::CallScenario& scenario);

}  // namespace pbxcap::exp
