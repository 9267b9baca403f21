#include "exp/testbed.hpp"

#include <algorithm>

#include "exp/topology.hpp"

namespace pbxcap::exp {

monitor::ExperimentReport run_testbed(const TestbedConfig& config, WifiObservations* wifi_out) {
  const Topology topology{.scenario = &config.scenario,
                          .seed = config.seed,
                          .drain = config.drain,
                          .backends = {&config.pbx, 1},
                          .client_link = config.client_link,
                          .server_link = config.server_link,
                          .uplink = config.pbx_link,
                          .wifi_cell = config.wifi_cell ? &*config.wifi_cell : nullptr,
                          .fluid = config.fluid,
                          .faults = config.faults,
                          .telemetry = config.telemetry,
                          .trace = config.trace};
  Experiment experiment{topology};
  Experiment::Backend& backend = experiment.backend(0);
  const pbx::AsteriskPbx& pbx = backend.pbx;
  const monitor::SipCapture& sip_capture = *backend.sip;

  telemetry::Telemetry* tel = experiment.hub().tel;
  if (tel != nullptr) {
    // Per-second series. Probes reference the experiment's objects, which
    // outlive the sampler's run.
    auto& sampler = tel->sampler();
    const Duration period = tel->config().sample_period;
    const loadgen::SipCaller& caller = experiment.caller();
    const monitor::RtpCapture& rtp_capture = *backend.rtp;
    sampler.add_gauge("active_channels",
                      [&pbx] { return static_cast<double>(pbx.channels().in_use()); });
    sampler.add_gauge("cpu_utilization", [&pbx, &simulator = experiment.hub().sim, period] {
      // Utilization over the elapsed part of the last sample period.
      const TimePoint now = simulator.now();
      const Duration back = std::min(period, now - TimePoint::origin());
      return back > Duration::zero() ? pbx.cpu().utilization(now - back, now).mean() : 0.0;
    });
    // Live cumulative P_b = blocked so far / placed so far. The call log's
    // own blocking_probability() only counts *finalized* calls in its
    // denominator — blocked calls finalize instantly but completed ones only
    // at teardown, which would spike the mid-run curve toward 1.0 right when
    // the pool first saturates.
    sampler.add_gauge("blocking_probability", [&caller] {
      const auto placed = static_cast<double>(caller.calls_offered());
      return placed > 0.0 ? static_cast<double>(caller.log().blocked()) / placed : 0.0;
    });
    sampler.add_rate("calls_blocked_per_s",
                     [&caller] { return static_cast<double>(caller.log().blocked()); });
    sampler.add_rate("sip_msgs_per_s",
                     [&sip_capture] { return static_cast<double>(sip_capture.total()); });
    sampler.add_rate("rtp_pkts_per_s",
                     [&rtp_capture] { return static_cast<double>(rtp_capture.packets_in()); });
    if (config.pbx.sip_service.enabled) {
      sampler.add_gauge("sip_queue_depth",
                        [&pbx] { return static_cast<double>(pbx.sip_backlog()); });
    }
    if (config.pbx.acd.enabled) {
      sampler.add_gauge("acd_queue_depth",
                        [&pbx] { return static_cast<double>(pbx.acd().total_depth()); });
    }
  }

  experiment.run();

  monitor::ExperimentReport report = experiment.report();
  if (const net::WifiCell* cell = experiment.wifi_cell(); wifi_out != nullptr && cell != nullptr) {
    wifi_out->medium_utilization = cell->medium_utilization(experiment.hub().sim.now());
    wifi_out->frames_forwarded = cell->frames_forwarded();
    wifi_out->frames_dropped_queue = cell->frames_dropped_queue();
    wifi_out->frames_dropped_radio = cell->frames_dropped_radio();
  }
  return report;
}

monitor::ExperimentReport run_offered_load(double erlangs, std::uint64_t seed,
                                           std::uint32_t max_channels) {
  TestbedConfig config;
  config.scenario = loadgen::CallScenario::for_offered_load(erlangs);
  config.pbx.max_channels = max_channels;
  config.seed = seed;
  return run_testbed(config);
}

}  // namespace pbxcap::exp
