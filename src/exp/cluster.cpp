#include "exp/cluster.hpp"

#include <stdexcept>

#include "exp/report_util.hpp"
#include "exp/topology.hpp"
#include "telemetry/export.hpp"
#include "util/strings.hpp"

namespace pbxcap::exp {

ClusterResult run_cluster(const ClusterConfig& config) {
  // Resolve the fleet: explicit heterogeneous specs, or the homogeneous
  // servers x channels_per_server shorthand.
  std::vector<ServerSpec> fleet = config.fleet;
  if (fleet.empty()) {
    if (config.servers == 0) {
      throw std::invalid_argument{"run_cluster: need at least one server"};
    }
    fleet.assign(config.servers, ServerSpec{config.channels_per_server, 0});
  }
  if (config.fault_backend >= fleet.size()) {
    throw std::invalid_argument{"run_cluster: fault_backend is not in the fleet"};
  }
  std::vector<pbx::PbxConfig> backends(fleet.size());
  std::vector<dispatch::BackendConfig> routes;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    pbx::PbxConfig& cfg = backends[i];
    cfg.host = util::format("pbx%u.unb.br", static_cast<unsigned>(i));
    cfg.max_channels = fleet[i].channels;
    cfg.sip_service = config.sip_service;
    cfg.overload = config.overload;
    if (!config.allowed_payload_types.empty()) {
      cfg.allowed_payload_types = config.allowed_payload_types;
    }
    cfg.acd = config.acd;
    // Independent patience streams per backend, deterministic in i only, so
    // both placements and every worker count draw the same streams.
    cfg.acd.seed = config.acd.seed ^ (0x9E3779B97F4A7C15ULL * (i + 1));
    routes.push_back({cfg.host, fleet[i].weight != 0 ? fleet[i].weight : fleet[i].channels});
  }
  net::LinkConfig uplink;
  uplink.trunk_window = config.trunk_window;
  const bool dispatched = config.routing == ClusterRouting::kDispatcher;
  const Topology topology{.scenario = &config.scenario,
                          .seed = config.seed,
                          .drain = config.drain,
                          .backends = backends,
                          .uplink = uplink,
                          .fluid = config.fluid,
                          .dispatcher = dispatched ? &config.dispatcher : nullptr,
                          .routes = std::move(routes),
                          .faults = config.faults,
                          .fault_backend = config.fault_backend,
                          .telemetry = config.telemetry,
                          .sharded = config.shard.enabled,
                          .exec = {config.shard.threads, config.shard.lookahead}};
  Experiment experiment{topology};
  dispatch::Dispatcher* d = experiment.dispatcher();

  // Per-second series: each backend's occupancy in its own shard's sink, the
  // routing tier's health in the caller's.
  for (std::size_t i = 0; i < backends.size(); ++i) {
    if (telemetry::Telemetry* tel = experiment.backend(i).shard.tel) {
      const pbx::AsteriskPbx* pbx = &experiment.backend(i).pbx;
      tel->sampler().add_gauge(util::format("active_channels_pbx%u", static_cast<unsigned>(i)),
                               [pbx] { return static_cast<double>(pbx->channels().in_use()); });
    }
  }
  telemetry::Telemetry* tel = experiment.hub().tel;
  if (tel != nullptr && d != nullptr) {
    auto& sampler = tel->sampler();
    for (std::size_t i = 0; i < backends.size(); ++i) {
      sampler.add_gauge(util::format("dispatcher_occupancy_pbx%u", static_cast<unsigned>(i)),
                        [d, i] { return static_cast<double>(d->occupancy(i)); });
    }
    // Routing-tier health per second: pick throughput, breaker state, and
    // how much of the fleet is benched on 503 backoff.
    sampler.add_rate("dispatch_picks_per_s",
                     [d] { return static_cast<double>(d->picks_total()); });
    sampler.add_gauge("dispatch_open_circuits",
                      [d] { return static_cast<double>(d->open_circuits()); });
    sampler.add_gauge("dispatch_benched_backends", [d, hub = &experiment.hub().sim] {
      return static_cast<double>(d->benched_backends(hub->now()));
    });
  }

  experiment.run();

  ClusterResult result;
  result.report = experiment.report();
  const auto [cpu_from, cpu_to] = cpu_interval(config.scenario);
  for (std::size_t i = 0; i < backends.size(); ++i) {
    // A sharded uplink is two half-links that each transmit one direction;
    // summing both endpoints of every half counts each direction once.
    const Experiment::Backend& b = experiment.backend(i);
    for (const net::Link* link : {b.uplink, b.pbx_half}) {
      if (link == nullptr) continue;
      for (const net::NodeId end : {link->endpoint_a(), link->endpoint_b()}) {
        result.uplink_bytes += link->stats_from(end).bytes_sent;
        result.uplink_packets += link->stats_from(end).packets_sent;
      }
    }
    const pbx::AsteriskPbx& pbx = b.pbx;
    BackendObservation obs;
    obs.host = pbx.sip_host();
    obs.channels = pbx.channels().capacity();
    obs.peak_channels = pbx.channels().peak();
    obs.congestion = pbx.cdrs().count(pbx::Disposition::kCongestion);
    obs.rtp_relayed = pbx.rtp_relayed();
    obs.crashes = pbx.crashes();
    obs.cpu_utilization = pbx.cpu().utilization(cpu_from, cpu_to);
    if (d != nullptr) {
      const dispatch::BackendStats ds = d->backend_stats(i);
      obs.calls_routed = ds.calls_routed;
      obs.probe_failures = ds.probe_failures;
      obs.circuit_opens = ds.circuit_opens;
      obs.final_circuit = ds.circuit;
    }
    result.backends.push_back(obs);
  }
  if (d != nullptr) {
    result.failovers = experiment.caller().failovers();
    result.dispatch_rejected = d->picks_rejected();
    result.probes_sent = d->probes_sent();
    result.probe_failures = d->probe_failures();
    result.circuit_opens = d->circuit_opens();
  }

  if (config.shard.enabled) {
    // Hub first, then backends in shard order, so the exports do not depend
    // on the worker count. The merged trace has one Perfetto process per
    // shard: a failed-over call reads left to right across the hub's
    // journey track and both backends' transaction tracks.
    if (tel != nullptr && tel->profiler() != nullptr) {
      result.shard_profiles.push_back({"hub", tel->profiler()->snapshot()});
      for (std::size_t i = 0; i < backends.size(); ++i) {
        result.shard_profiles.push_back(
            {backends[i].host, experiment.backend(i).shard.tel->profiler()->snapshot()});
      }
    }
    if (tel != nullptr && tel->tracer() != nullptr) {
      std::vector<telemetry::TraceProcess> processes{{"hub", tel->tracer()}};
      for (std::size_t i = 0; i < backends.size(); ++i) {
        processes.push_back({backends[i].host, experiment.backend(i).shard.tel->tracer()});
      }
      result.merged_trace = telemetry::to_chrome_trace_merged(processes);
    }
    const ShardExecutor& exec = experiment.executor();
    result.shard_threads = exec.workers();
    result.shard_rounds = exec.rounds();
    result.shard_clamped = exec.messages_clamped();
    for (const ShardExecutor::ShardStats& s : exec.stats()) {
      result.shards.push_back({s.events, s.messages_in, s.messages_out, s.windows, s.wall_s});
    }
    result.shard_workers = exec.worker_stats();
    result.shard_drain_s = exec.drain_s();
  }
  return result;
}

}  // namespace pbxcap::exp
