// Multi-server scaling experiment (paper §IV conclusion: "increasing the
// number of servers ... are also a possible alternative").
//
// Builds the Fig. 4 testbed with k Asterisk PBXs behind the switch and a
// caller bank fronted by one of two routing tiers:
//
//   * kDnsRotation — blind round-robin at attempt time (the paper's
//     DNS-rotation front end). With even splitting each server sees A/k
//     Erlangs on its own N channels, so cluster blocking follows
//     Erlang-B(A/k, N) — but a saturated or crashed backend keeps
//     receiving its 1/k share of the traffic.
//   * kDispatcher — a dispatch::Dispatcher node owning per-backend state:
//     pluggable policies (round-robin / least-loaded / weighted),
//     Retry-After-aware backoff, OPTIONS health probes and circuit
//     breaking, and failover rerouting of timed-out INVITEs. This is the
//     configuration that survives a crash_restart fault on one backend.
//
// Either way the run produces a full ExperimentReport (the same fields
// run_testbed fills, aggregated over the fleet) plus per-backend and
// dispatcher observations.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dispatch/dispatcher.hpp"
#include "exp/shard_exec.hpp"
#include "exp/testbed.hpp"
#include "fault/plan.hpp"
#include "monitor/report.hpp"
#include "stats/summary.hpp"
#include "telemetry/telemetry.hpp"

namespace pbxcap::exp {

enum class ClusterRouting : std::uint8_t { kDnsRotation, kDispatcher };

/// One fleet member. Heterogeneous clusters list one spec per server; the
/// homogeneous shorthand (servers x channels_per_server) builds these
/// automatically. weight 0 means "use the channel count" (so the weighted
/// policy splits load proportionally to capacity by default).
struct ServerSpec {
  std::uint32_t channels{165};
  std::uint32_t weight{0};
};

struct ClusterConfig {
  loadgen::CallScenario scenario;
  std::uint32_t servers{2};
  std::uint32_t channels_per_server{165};
  /// Heterogeneous fleet: when non-empty, overrides servers /
  /// channels_per_server (hosts are still named pbx<i>.unb.br).
  std::vector<ServerSpec> fleet;
  std::uint64_t seed{1};
  Duration drain{Duration::seconds(30)};

  /// Routing front end. kDnsRotation reproduces the original blind
  /// rotation; kDispatcher routes through dispatch::Dispatcher below.
  ClusterRouting routing{ClusterRouting::kDnsRotation};
  dispatch::DispatcherConfig dispatcher{};

  /// Applied to every backend (the per-backend knobs the overload bench
  /// uses: single-threaded SIP service model + 503/Retry-After gate).
  pbx::SipServiceConfig sip_service{};
  pbx::OverloadControlConfig overload{};

  /// Codec policy applied to every backend: when non-empty, overrides the
  /// PbxConfig default allowed payload-type set (e.g. {18} for a G.729-only
  /// fleet — the configuration where IAX2-style trunking pays most).
  std::vector<std::uint8_t> allowed_payload_types;

  /// ACD queues, replicated on every backend (each backend runs its own
  /// agent pool; the patience RNG seed is re-mixed per backend so shards
  /// stay deterministic at any worker count). Pair with scenario.acd to
  /// route a fraction of the offered calls at the queues.
  pbx::AcdConfig acd{};

  /// Hybrid fluid/packet media engine (off by default: exact per-packet
  /// simulation). Enables the 100k+ concurrent-call scaling points in
  /// bench_cluster_scaling.
  rtp::FluidConfig fluid;

  /// IAX2-style trunk aggregation window for the inter-PBX uplinks (zero =
  /// off). All concurrent calls' media crossing an uplink within one window
  /// share a single trunk frame (net/trunk.hpp): one meta header plus a
  /// 4-byte mini-frame per packet instead of full per-packet
  /// Ethernet/IP/UDP/RTP encapsulation — the classic IAX2 answer to G.729's
  /// 20-byte payloads drowning in 58 bytes of headers. Applies to the pbx
  /// uplinks in both monolithic and sharded runs; 20 ms (one ptime) is the
  /// natural setting.
  Duration trunk_window{Duration::zero()};

  /// Optional fault schedule. Link targets resolve to: client = the caller
  /// bank's access link, server = the receiver's, pbx = backend
  /// `fault_backend`'s uplink. `pbx stall`/`pbx crash` hit that backend too.
  /// `fault_backend` must index the fleet; run_cluster throws
  /// std::invalid_argument otherwise.
  const fault::FaultPlan* faults{nullptr};
  std::uint32_t fault_backend{0};

  /// Optional telemetry sink (owned by the caller, one per run). Adds
  /// per-backend registry metrics (routed calls, peaks, congestion, circuit
  /// opens, labelled by backend host) on top of the endpoint instrumentation.
  telemetry::Telemetry* telemetry{nullptr};

  /// Sharded parallel execution (off by default: the exact monolithic
  /// single-threaded run). When enabled, the cluster is partitioned into one
  /// shard per backend plus a hub shard (caller bank + switch + routing
  /// tier), each on its own sim::Simulator, synchronized conservatively with
  /// `lookahead` as the barrier window. Per-seed results are byte-identical
  /// for any `threads` value; they differ from the monolithic run because
  /// every pbx uplink's propagation delay is floored to `lookahead`.
  struct ShardConfig {
    bool enabled{false};
    /// Worker threads; 0 = auto (PBXCAP_THREADS / hardware concurrency).
    unsigned threads{0};
    /// Conservative lookahead = minimum cross-shard propagation delay.
    Duration lookahead{Duration::millis(1)};
  };
  ShardConfig shard;
};

/// Per-backend observations of one cluster run.
struct BackendObservation {
  std::string host;
  std::uint32_t channels{0};
  std::uint32_t peak_channels{0};
  std::uint64_t congestion{0};     // CDR CONGESTION count
  std::uint64_t rtp_relayed{0};
  std::uint64_t crashes{0};
  stats::Summary cpu_utilization;  // over the steady interval
  // Dispatcher-mode routing/health state (zero in DNS mode).
  std::uint64_t calls_routed{0};
  std::uint64_t probe_failures{0};
  std::uint64_t circuit_opens{0};
  dispatch::CircuitState final_circuit{dispatch::CircuitState::kClosed};
};

struct ClusterResult {
  monitor::ExperimentReport report;  // aggregate over the whole cluster
  std::vector<BackendObservation> backends;

  /// Wire traffic offered onto the inter-PBX uplinks (all backends, both
  /// directions): the trunk ablation's denominators. With trunking on,
  /// packets count trunk shells, not the media frames inside them.
  std::uint64_t uplink_bytes{0};
  std::uint64_t uplink_packets{0};

  // Dispatcher totals (zero in DNS mode).
  std::uint64_t failovers{0};          // timed-out INVITEs rescued elsewhere
  std::uint64_t dispatch_rejected{0};  // picks with no eligible backend
  std::uint64_t probes_sent{0};
  std::uint64_t probe_failures{0};
  std::uint64_t circuit_opens{0};

  /// Per-shard observations of a sharded run (empty in monolithic mode).
  /// Shard 0 is the hub; shard 1+i is backend i. events / messages /
  /// windows are deterministic per seed; wall_s is host time (imbalance
  /// diagnostics).
  struct ShardObservation {
    std::uint64_t events{0};
    std::uint64_t messages_in{0};
    std::uint64_t messages_out{0};
    std::uint64_t windows{0};  // windows the shard ran; the rest it skipped
    double wall_s{0.0};
  };
  std::vector<ShardObservation> shards;
  /// Host time per executor worker (ShardExecutor::WorkerStats) and of the
  /// barrier completion steps. Never byte-compared.
  std::vector<ShardExecutor::WorkerStats> shard_workers;
  double shard_drain_s{0.0};
  unsigned shard_threads{0};            // worker count actually used
  std::uint64_t shard_rounds{0};        // barrier rounds executed
  std::uint64_t shard_clamped{0};       // messages raised to the causality bound

  /// Per-shard event-attribution profiles of a sharded run with profiling
  /// on (empty otherwise). Entry 0 is "hub"; entry 1+i is backend i's host.
  /// Deterministic per seed for any thread count (wall timing excluded).
  std::vector<telemetry::ShardProfile> shard_profiles;

  /// One merged Chrome/Perfetto trace of a sharded run with tracing on
  /// (empty otherwise): one trace process per shard, in shard order, so a
  /// call's journey reads across processes. Byte-identical per seed for any
  /// thread count.
  std::string merged_trace;
};

[[nodiscard]] ClusterResult run_cluster(const ClusterConfig& config);

}  // namespace pbxcap::exp
