#include "exp/topology.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "exp/report_util.hpp"
#include "net/portal.hpp"
#include "util/strings.hpp"

namespace pbxcap::exp {

namespace {

rtp::FluidConfig fluid_config(const Topology& topology) {
  rtp::FluidConfig config = topology.fluid;
  config.enabled = config.enabled && topology.wifi_cell == nullptr;
  return config;
}

}  // namespace

struct Experiment::Remote {
  Remote(sim::Random impairment, const std::string& host)
      : shard{std::move(impairment)}, portal{"portal-" + host} {}
  Shard shard;
  net::PortalNode portal;                      // P_i: the PBX's stand-in on the hub
  net::PortalNode to_switch{"portal-switch"};  // S_i: the switch's stand-in here
};

Experiment::Experiment(const Topology& topology)
    : topo_{topology},
      master_{topology.seed},
      hub_{master_.fork()},
      backends_(topology.backends.size()),
      fluid_{hub_.sim, fluid_config(topology)} {
  // Fork order: hub impairments, arrivals, then one impairment stream per
  // backend shard, so both placements offer the same arrival stream.
  sim::Random arrivals = master_.fork();
  if (topology.telemetry != nullptr) {
    hub_.tel = topology.telemetry;
  }
  std::vector<std::string> hosts;
  hosts.reserve(topology.backends.size());
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    const pbx::PbxConfig& config = topology.backends[i];
    Shard* shard = &hub_;
    if (topology.sharded) {
      shard = &remotes_.emplace_back(std::make_unique<Remote>(master_.fork(), config.host))->shard;
      if (hub_.tel != nullptr) shard->tel = &shard->own.emplace(hub_.tel->config());
    }
    backends_[i].emplace(config, *shard, resolver_);
    hosts.push_back(config.host);
  }
  caller_.emplace("sipp-client.unb.br", std::move(hosts), hub_.sim, resolver_, ssrcs_,
                  *topology.scenario, arrivals);
  receiver_.emplace("sipp-server.unb.br", hub_.sim, resolver_, ssrcs_, *topology.scenario);
  if (topology.dispatcher != nullptr) {
    // A real node on the LAN, so its OPTIONS probes cross the switch like
    // any other SIP traffic. Routing is redirect-style: the caller asks, then
    // talks to the backend directly, so the Fig. 2 ladder and the media path
    // are unchanged.
    dispatcher_.emplace("dispatcher.unb.br", topology.routes, *topology.dispatcher, hub_.sim,
                        resolver_);
  }

  hub_.net.attach(lan_switch_);
  hub_.net.attach(*caller_);
  hub_.net.attach(*receiver_);
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    hub_.net.attach(remotes_.empty() ? static_cast<net::Node&>(backends_[i]->pbx)
                                     : remotes_[i]->portal);
  }
  if (topology.wifi_cell != nullptr) {
    // VoWiFi access: caller -> AP (radio) -> switch (wired uplink).
    net::WifiCell& cell = wifi_.emplace("ap", *topology.wifi_cell);
    hub_.net.attach(cell);
    client_link_ = &hub_.net.connect(*caller_, cell, topology.client_link);
    net::Link& uplink = hub_.net.connect(cell, lan_switch_, {});
    cell.set_uplink(uplink);
    lan_switch_.add_route(caller_->id(), uplink);
  } else {
    client_link_ = &hub_.net.connect(*caller_, lan_switch_, topology.client_link);
  }
  server_link_ = &hub_.net.connect(*receiver_, lan_switch_, topology.server_link);
  caller_->bind();
  receiver_->bind();
  // Cross-shard links: propagation floored to the lookahead, so every
  // boundary message lands at least one window ahead (the conservative
  // synchronization contract).
  net::LinkConfig cross = topology.uplink;
  cross.propagation = std::max(cross.propagation, topology.exec.lookahead);
  for (std::size_t i = 0; i < backends_.size(); ++i) connect_backend(i, cross);
  if (dispatcher_) {
    hub_.net.attach(*dispatcher_);
    hub_.net.connect(*dispatcher_, lan_switch_, {});
    dispatcher_->bind();
    caller_->set_dispatcher(&*dispatcher_);
  }

  if (fluid_.config().enabled) {
    fluid_.watch_link(*client_link_);
    fluid_.watch_link(*server_link_);
    for (auto& b : backends_) fluid_.watch_link(*b->uplink);
    caller_->set_fluid_engine(&fluid_);
    receiver_->set_fluid_engine(&fluid_);
  }
  if (topology.trace != nullptr) topology.trace->attach(hub_.net);

  if (hub_.tel != nullptr) {
    caller_->set_telemetry(hub_.tel);
    receiver_->set_telemetry(hub_.tel);
  }
  for (auto& b : backends_) {
    if (b->shard.tel != nullptr) b->pbx.set_telemetry(b->shard.tel);
  }

  std::vector<sim::Simulator*> sims{&hub_.sim};
  for (const auto& remote : remotes_) sims.push_back(&remote->shard.sim);
  exec_.emplace(std::move(sims), remotes_.empty() ? ShardExecConfig{.threads = 1} : topology.exec);
  for (std::size_t i = 0; i < remotes_.size(); ++i) wire_boundary(i);
}

Experiment::~Experiment() = default;

void Experiment::connect_backend(std::size_t i, const net::LinkConfig& cross) {
  Backend& b = *backends_[i];
  if (remotes_.empty()) {
    b.uplink = &hub_.net.connect(b.pbx, lan_switch_, topo_.uplink);
  } else {
    // The backend shard knows each host by its hub id: the PBX is P_i and
    // the switch's stand-in is the switch.
    Remote& r = *remotes_[i];
    b.uplink = &hub_.net.connect(r.portal, lan_switch_, cross);
    r.shard.net.attach(r.to_switch, lan_switch_.id());
    r.shard.net.attach(b.pbx, r.portal.id());
    b.pbx_half = &r.shard.net.connect(b.pbx, r.to_switch, cross);
  }
  b.pbx.bind();
  // Every recv-* extension terminates on the SIP server host, and so do the
  // agent legs of ACD calls (the receiver plays every agent).
  b.pbx.dialplan().add("recv-", receiver_->sip_host());
  b.pbx.dialplan().add("queue-", receiver_->sip_host());
  b.pbx.directory().allow_prefix("caller-");
  // Capture taps on the PBX NIC: the Wireshark observation point, once per
  // server.
  b.sip.emplace(b.pbx.id());
  b.rtp.emplace(b.pbx.id());
  b.sip->attach(b.shard.net);
  b.rtp->attach(b.shard.net);
}

void Experiment::wire_boundary(std::size_t i) {
  Remote& r = *remotes_[i];
  ShardExecutor* exec = &*exec_;
  // A packet crosses as it is: every shard knows each host by the same id.
  // It arrives over the far half of the uplink, from the portal's peer, at
  // the host the portal stands for.
  const auto sink = [exec](std::size_t src, std::size_t dst, net::Network* into, net::NodeId to) {
    return [exec, src, dst, into, to](net::Packet&& pkt, net::NodeId from, TimePoint deliver_at) {
      auto deliver = [into, p = std::move(pkt), from, to] { into->deliver(p, from, to); };
      static_assert(sim::Callback::stores_inline<decltype(deliver)>(),
                    "boundary delivery closure must stay on the allocation-free SBO path");
      exec->post(src, dst, deliver_at.ns(), std::move(deliver));
    };
  };
  const std::size_t shard = i + 1;
  // hub -> backend: into the PBX.
  hub_.net.set_remote_sink(r.portal.id(), sink(0, shard, &r.shard.net, r.portal.id()));
  // backend -> hub: into the switch, which re-routes by dst (paying its
  // processing delay) exactly as in the monolithic run.
  r.shard.net.set_remote_sink(r.to_switch.id(), sink(shard, 0, &hub_.net, r.to_switch.id()));
}

void Experiment::arm_faults(Shard& shard, const fault::FaultTargets& targets) {
  fault::FaultInjector& injector = shard.injector.emplace(shard.sim, *topo_.faults, targets);
  if (&shard == &hub_ && fluid_.config().enabled) {
    injector.set_pre_apply([this] { fluid_.on_transient(); });
  }
  if (shard.tel != nullptr) injector.set_tracer(shard.tel->tracer());
  injector.arm();
}

void Experiment::run() {
  const auto start = [this](Shard& shard) {
    if (shard.tel == nullptr) return;
    const Duration period = shard.tel->config().sample_period;
    if (&shard == &hub_ && fluid_.config().enabled) {
      // Streams leave fluid mode a boundary guard before each tick, so the
      // guard window drains per-packet and every row reads settled state.
      fluid_.set_boundary_period(period);
    }
    shard.tel->sampler().start(shard.sim, period);
    if (telemetry::Profiler* profiler = shard.tel->profiler()) {
      profiler->attach(shard.sim);
      // The caller's profiler feeds the Chrome counter track, whatever the
      // placement; backend shards only contribute snapshots.
      if (&shard == &hub_) profiler->start_series(period);
    }
  };
  start(hub_);
  for (const auto& remote : remotes_) start(remote->shard);

  // The plan is armed once per shard that owns a target: link events on a
  // split uplink apply to both halves (each carries one direction).
  if (topo_.faults != nullptr && !topo_.faults->empty()) {
    Backend& b = *backends_[topo_.fault_backend];
    const bool local = &b.shard == &hub_;
    arm_faults(hub_, {client_link_, server_link_, b.uplink, local ? &b.pbx : nullptr});
    if (!local) arm_faults(b.shard, {nullptr, nullptr, b.pbx_half, &b.pbx});
  }

  if (dispatcher_) dispatcher_->start();
  fluid_.start();
  caller_->start();
  exec_->run(TimePoint::at(run_horizon(*topo_.scenario, topo_.drain)));
  caller_->finalize_remaining();

  const auto stop = [](Shard& shard) {
    if (shard.tel == nullptr) return;
    shard.tel->sampler().stop();  // cancel the pending tick before the sim dies
    if (shard.tel->profiler() != nullptr) shard.tel->profiler()->detach();
  };
  stop(hub_);
  for (const auto& remote : remotes_) {
    stop(remote->shard);
    if (hub_.tel != nullptr) {
      hub_.tel->registry().absorb(remote->shard.tel->registry());
      hub_.tel->sampler().merge_columns(remote->shard.tel->sampler());
    }
  }

  // Merge receiver-side heard quality into the caller's per-call records.
  for (auto& record : caller_->log().records_mutable()) {
    if (const auto* q = receiver_->finished(record.call_index)) {
      record.mos_callee_heard = q->mos;
      record.loss_callee_heard = q->effective_loss;
      record.jitter_callee_heard = q->jitter;
      record.rtp_received_callee = q->rtp_received;
    }
  }
}

monitor::ExperimentReport Experiment::report() const {
  const loadgen::CallScenario& scenario = *topo_.scenario;
  const monitor::CallLog& log = caller_->log();
  monitor::ExperimentReport report;
  report.offered_erlangs = scenario.offered_erlangs();
  report.arrival_rate_per_s = scenario.arrival_rate_per_s;
  report.hold_time = scenario.hold_time;
  report.seed = topo_.seed;

  report.calls_attempted = log.attempted();
  report.calls_completed = log.completed();
  report.calls_blocked = log.blocked();
  report.calls_failed = log.failed();
  report.blocking_probability = log.blocking_probability();
  const TimePoint steady_from =
      TimePoint::at(std::min(scenario.hold_time, scenario.placement_window));
  report.blocking_probability_steady = log.blocking_probability_since(steady_from);
  report.calls_attempted_steady = log.attempted_since(steady_from);

  // Per-backend observations, summed or merged over the fleet in backend
  // order, and retransmissions across all three transaction layers.
  const auto [cpu_from, cpu_to] = cpu_interval(scenario);
  report.sip_retransmissions = caller_->transactions().total_retransmissions() +
                               receiver_->transactions().total_retransmissions();
  for (const auto& b : backends_) {
    const pbx::AsteriskPbx& pbx = b->pbx;
    report.channels_configured += pbx.channels().capacity();
    report.channels_peak += pbx.channels().peak();
    report.cpu_utilization.merge(pbx.cpu().utilization(cpu_from, cpu_to));
    report.rtp_relayed += pbx.rtp_relayed();
    report.transcoded_bridges += pbx.transcoded_bridges();
    report.transcoded_rtp += pbx.transcoded_rtp();
    report.sip_retransmissions += pbx.transactions().total_retransmissions();
    report.overload_rejections += pbx.overload_rejections();
    report.sip_queue_dropped += pbx.sip_queue_dropped();
    const pbx::AcdSubsystem& acd = pbx.acd();
    for (std::size_t qi = 0; acd.enabled() && qi < acd.queue_count(); ++qi) {
      const pbx::AcdQueueStats& qs = acd.stats(qi);
      report.acd.offered += qs.offered;
      report.acd.queued += qs.queued;
      report.acd.served += qs.served;
      report.acd.abandoned += qs.abandoned;
      report.acd.timed_out += qs.timed_out;
      report.acd.voicemail += qs.voicemail;
      report.acd.blocked_full += qs.blocked_full;
      report.acd.announcements += qs.announcements;
      report.acd.serve_retries += qs.serve_retries;
      report.acd.serve_failures += qs.serve_failures;
      report.acd.wait_s.merge(qs.wait_s);
      report.acd.wait_served_s.merge(qs.wait_served_s);
      report.acd.busy_agent_s += qs.busy_agent_s;
      report.acd.agents += static_cast<std::uint32_t>(acd.agent_count(qi));
    }
    // The Wireshark-style census at the PBX NIC.
    const monitor::SipCapture& sip = *b->sip;
    report.sip_total += sip.total();
    report.sip_invite += sip.invites();
    report.sip_100 += sip.trying_100();
    report.sip_180 += sip.ringing_180();
    report.sip_200 += sip.ok_200();
    report.sip_ack += sip.acks();
    report.sip_bye += sip.byes();
    report.sip_errors += sip.errors();
    report.rtp_packets_at_pbx += b->rtp->packets_in();
  }

  report.mos = log.mos_summary();
  report.setup_delay_ms = log.setup_delay_summary();
  report.effective_loss = log.loss_summary();
  report.jitter_ms = log.jitter_summary();

  report.calls_retried = caller_->retries();
  report.retries_rerouted = caller_->retries_rerouted();
  report.codec_rejections_488 = receiver_->rejected_488();
  const auto add_link = [&report](const net::Link* link) {
    if (link == nullptr) return;
    for (const net::NodeId end : {link->endpoint_a(), link->endpoint_b()}) {
      const net::LinkDirectionStats& stats = link->stats_from(end);
      report.link_dropped_impairment += stats.dropped_impairment;
      report.trunk_frames += stats.trunk_frames;
      report.trunk_mini_frames += stats.trunk_mini_frames;
    }
  };
  add_link(client_link_);
  add_link(server_link_);
  for (const auto& b : backends_) {
    add_link(b->uplink);
    add_link(b->pbx_half);
  }

  report.events_processed = exec_->total_events();
  return report;
}

std::vector<std::string> Experiment::hop_imbalances() const {
  std::vector<std::string> out;
  const net::NodeId sw = lan_switch_.id();
  std::uint64_t egress = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  bool trunked = false;
  const auto add = [&](const net::Network& net, bool hub) {
    delivered += net.packets_delivered();
    for (const auto& link : net.links()) {
      trunked = trunked || link->config().trunk_window > Duration::zero();
      for (const net::NodeId end : {link->endpoint_a(), link->endpoint_b()}) {
        const net::LinkDirectionStats& stats = link->stats_from(end);
        sent += stats.packets_sent;
        if (hub && end == sw) egress += stats.packets_sent + stats.dropped_total();
      }
    }
  };
  add(hub_.net, true);
  for (const auto& remote : remotes_) add(remote->shard.net, false);
  const auto u = [](std::uint64_t v) { return static_cast<unsigned long long>(v); };
  if (lan_switch_.forwarded() != egress) {
    out.push_back(util::format("switch forwarded %llu packets; its egress sent or dropped %llu",
                               u(lan_switch_.forwarded()), u(egress)));
  }
  if (!trunked && delivered != sent) {
    out.push_back(util::format("links sent %llu packets; the networks delivered %llu", u(sent),
                               u(delivered)));
  }
  return out;
}

}  // namespace pbxcap::exp
