// Extension experiment: health-aware dispatching over a PBX fleet.
//
// The paper's scale-out answer (§IV: "increasing the number of servers") is
// modelled two ways: the blind DNS rotation the campus deploys by default,
// and a dispatcher tier owning per-backend state — balancing policies
// (round-robin / least-loaded / weighted), 503 Retry-After backoff, OPTIONS
// health probes with a circuit breaker, and failover rerouting of timed-out
// INVITEs. Two questions:
//
//  1. Dimensioning (no faults): does measured cluster blocking track the
//     Erlang-B(A/k, N) prediction across policies and loads?
//  2. Chaos (one backend crash_restart mid-run, dead longer than Timer B):
//     how much goodput does each front end sustain? DNS rotation keeps
//     feeding the corpse 1/k of the traffic — every such INVITE burns its
//     full 32 s Timer B and dies; the dispatcher ejects the backend within
//     a few probe periods and rescues in-flight timeouts onto survivors.
//
// Usage: bench_cluster_dispatch [--fast] [--json F] [--trace F]
//   --fast  : smaller sweep + shorter window (CI smoke).
//   --json  : machine-readable results for perf tracking / CI acceptance.
//   --trace : write the sharded crash replay's merged Chrome/Perfetto trace
//             (one process per shard). Open it in ui.perfetto.dev and follow
//             a "call-N" track: dispatch.pick on the hub, the backend's SIP
//             transaction, the fault.crash_restart instant on the dead
//             backend, invite.timeout + dispatch.failover back on the hub,
//             then the rescued call's setup/media on the survivor.
//
// Exit code 0 only if the acceptance criteria hold: least-loaded + failover
// sustains >= 90% of its own fault-free goodput through the crash, while
// blind DNS rotation demonstrably degrades below it.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/erlang_b.hpp"
#include "dispatch/dispatcher.hpp"
#include "exp/cluster.hpp"
#include "exp/parallel.hpp"
#include "fault/plan.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace pbxcap;
using dispatch::Policy;

constexpr std::uint32_t kServers = 3;
constexpr std::uint32_t kChannelsPerServer = 30;
const Duration kHold = Duration::seconds(10);

// One backend dies mid-window and stays dead past SIP Timer B (32 s), so
// INVITEs stuck on it cannot be saved by retransmission — only by failover.
constexpr const char* kCrashPlan = "@15s pbx crash dead=60s\n";

// A routing mode of the sweep: blind DNS rotation, or the dispatcher tier
// running one of its policies.
struct Mode {
  const char* name;
  exp::ClusterRouting routing;
  Policy policy;
};

constexpr Mode kModes[] = {
    {"dns_rotation", exp::ClusterRouting::kDnsRotation, Policy::kRoundRobin},
    {"round_robin", exp::ClusterRouting::kDispatcher, Policy::kRoundRobin},
    {"least_loaded", exp::ClusterRouting::kDispatcher, Policy::kLeastLoaded},
    {"weighted", exp::ClusterRouting::kDispatcher, Policy::kWeighted},
};
constexpr std::size_t kModeCount = sizeof(kModes) / sizeof(kModes[0]);

exp::ClusterConfig make_config(double erlangs, const Mode& mode, Duration window,
                               std::uint64_t seed) {
  exp::ClusterConfig config;
  config.scenario = loadgen::CallScenario::for_offered_load(erlangs, kHold);
  config.scenario.placement_window = window;
  config.scenario.retry.enabled = true;  // both front ends get the retry budget
  config.servers = kServers;
  config.channels_per_server = kChannelsPerServer;
  config.seed = seed;
  config.routing = mode.routing;
  config.dispatcher.policy = mode.policy;
  // Horizon slack: Timer B (32 s) for failovers of the last INVITEs, then
  // the rescued calls' hold time and BYE handshake.
  config.drain = Duration::seconds(45);
  return config;
}

double goodput(const exp::ClusterResult& r, Duration window) {
  return static_cast<double>(r.report.calls_completed) / window.to_seconds();
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  std::string json_out;
  std::string trace_out;
  util::Flags{}
      .flag("--fast", fast)
      .value("--json", json_out)
      .value("--trace", trace_out)
      .parse(argc, argv);

  const Duration window = Duration::seconds(fast ? 60 : 120);
  const std::vector<double> loads =
      fast ? std::vector<double>{45.0} : std::vector<double>{45.0, 72.0, 99.0};
  const double fault_load = 45.0;  // below saturation: failover story is clean
  const std::size_t n_loads = loads.size();

  std::printf("== Cluster dispatch: %u x %u channels, policy x load x fault%s ==\n",
              kServers, kChannelsPerServer, fast ? " (fast mode)" : "");
  std::printf("hold %.0f s, window %.0f s, fault plan: %s\n", kHold.to_seconds(),
              window.to_seconds(), kCrashPlan);

  // Jobs: [0, n_loads*kModeCount) fault-free dimensioning grid, then
  // kModeCount faulted runs at the fault load. Seeds depend only on the grid
  // position, so rerunning the binary is byte-identical.
  const fault::FaultPlan plan = fault::FaultPlan::parse(kCrashPlan);
  const std::size_t grid_jobs = n_loads * kModeCount;
  const std::size_t fault_li = static_cast<std::size_t>(
      std::distance(loads.begin(), std::find(loads.begin(), loads.end(), fault_load)));
  std::vector<exp::ClusterResult> results(grid_jobs + kModeCount);
  exp::parallel_for(results.size(), exp::default_threads(), [&](std::size_t job) {
    if (job < grid_jobs) {
      const std::size_t load_idx = job / kModeCount;
      const Mode& mode = kModes[job % kModeCount];
      results[job] =
          exp::run_cluster(make_config(loads[load_idx], mode, window, 7100 + 13 * job));
    } else {
      // A faulted run reuses its fault-free twin's seed, so each pair sees
      // the same arrival stream and "sustained" compares like with like.
      const std::size_t mode_idx = job - grid_jobs;
      auto config = make_config(fault_load, kModes[mode_idx], window,
                                7100 + 13 * (fault_li * kModeCount + mode_idx));
      config.faults = &plan;
      config.fault_backend = 0;
      results[job] = exp::run_cluster(config);
    }
  });

  // ---- dimensioning table: measured blocking vs Erlang-B(A/k, N) ----
  util::TextTable dim{{"A (E)", "Erlang-B(A/k, N)", "dns_rotation", "round_robin",
                       "least_loaded", "weighted"}};
  for (std::size_t li = 0; li < n_loads; ++li) {
    std::vector<std::string> row{
        util::format("%.0f", loads[li]),
        util::format("%.2f%%",
                     erlang::erlang_b(loads[li] / kServers, kChannelsPerServer) * 100.0)};
    for (std::size_t mi = 0; mi < kModeCount; ++mi) {
      row.push_back(util::format(
          "%.2f%%", results[li * kModeCount + mi].report.blocking_probability * 100.0));
    }
    dim.add_row(row);
  }
  std::printf("\n-- dimensioning (no faults): measured blocking by policy --\n%s\n",
              dim.to_string().c_str());

  // ---- chaos table: goodput through the crash ----
  const auto grid_at = [&](double load, std::size_t mode_idx) -> const exp::ClusterResult& {
    const std::size_t li = static_cast<std::size_t>(
        std::distance(loads.begin(), std::find(loads.begin(), loads.end(), load)));
    return results[li * kModeCount + mode_idx];
  };
  util::TextTable chaos{{"mode", "goodput ok (c/s)", "goodput crash (c/s)", "sustained",
                         "failed", "failovers", "rerouted", "circuit opens", "no-backend"}};
  std::vector<double> sustained(kModeCount);
  for (std::size_t mi = 0; mi < kModeCount; ++mi) {
    const auto& ok = grid_at(fault_load, mi);
    const auto& crash = results[grid_jobs + mi];
    sustained[mi] = goodput(ok, window) > 0.0 ? goodput(crash, window) / goodput(ok, window) : 0.0;
    chaos.add_row(
        {kModes[mi].name, util::format("%.2f", goodput(ok, window)),
         util::format("%.2f", goodput(crash, window)), util::format("%.1f%%", 100.0 * sustained[mi]),
         util::format("%llu", (unsigned long long)crash.report.calls_failed),
         util::format("%llu", (unsigned long long)crash.failovers),
         util::format("%llu", (unsigned long long)crash.report.retries_rerouted),
         util::format("%llu", (unsigned long long)crash.circuit_opens),
         util::format("%llu", (unsigned long long)crash.dispatch_rejected)});
  }
  std::printf("-- chaos (crash_restart on backend 0 at t=15s, dead 60s) --\n%s\n",
              chaos.to_string().c_str());

  const std::size_t dns_idx = 0, least_idx = 2;
  const auto& least_crash = results[grid_jobs + least_idx];

  // ---- sharded replay of the least-loaded crash run: per-shard load map ----
  // Same scenario through the sharded executor (auto worker count). Results
  // differ from the monolithic run only via the lookahead-floored uplinks;
  // the per-shard event/message/wall columns show how the fault skews load
  // across the partition (the crashed backend's shard goes quiet).
  exp::ClusterResult shard_crash;
  bool trace_ok = true;
  {
    auto config = make_config(fault_load, kModes[least_idx], window,
                              7100 + 13 * (fault_li * kModeCount + least_idx));
    config.faults = &plan;
    config.fault_backend = 0;
    config.shard.enabled = true;
    // --trace: span-trace the replay and merge all shards into one file.
    telemetry::Config trace_cfg;
    trace_cfg.tracing = true;
    telemetry::Telemetry trace_tel{trace_cfg};
    if (!trace_out.empty()) config.telemetry = &trace_tel;
    const auto t0 = std::chrono::steady_clock::now();
    shard_crash = exp::run_cluster(config);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    util::TextTable st{{"shard", "events", "msgs in", "msgs out", "wall (s)"}};
    for (std::size_t s = 0; s < shard_crash.shards.size(); ++s) {
      const auto& obs = shard_crash.shards[s];
      st.add_row({s == 0 ? std::string{"hub"} : util::format("pbx%zu", s - 1),
                  util::format("%llu", (unsigned long long)obs.events),
                  util::format("%llu", (unsigned long long)obs.messages_in),
                  util::format("%llu", (unsigned long long)obs.messages_out),
                  util::format("%.3f", obs.wall_s)});
    }
    std::printf(
        "-- sharded replay of the least-loaded crash run (%u workers, %.2f s wall) --\n%s\n",
        shard_crash.shard_threads, wall, st.to_string().c_str());
    if (!trace_out.empty()) {
      // The merged trace must actually show the story: the crash as an
      // instant event and at least one failover hop on a call journey.
      if (shard_crash.merged_trace.find("fault.") == std::string::npos) {
        std::fprintf(stderr, "FAIL: merged trace has no fault instant event\n");
        trace_ok = false;
      }
      if (shard_crash.merged_trace.find("dispatch.failover") == std::string::npos) {
        std::fprintf(stderr, "FAIL: merged trace has no dispatch.failover instant\n");
        trace_ok = false;
      }
      if (!util::write_file(trace_out, shard_crash.merged_trace)) trace_ok = false;
    }
  }
  std::printf(
      "Reading: DNS rotation keeps feeding the dead backend, so every INVITE routed\n"
      "there burns Timer B (32 s) and fails — goodput drops to %.1f%% of fault-free.\n"
      "The dispatcher's probes open the circuit within ~%u s; %llu timed-out INVITEs\n"
      "failed over to survivors, sustaining %.1f%% of fault-free goodput.\n",
      100.0 * sustained[dns_idx], kModes[least_idx].policy == Policy::kLeastLoaded ? 4u : 4u,
      (unsigned long long)least_crash.failovers, 100.0 * sustained[least_idx]);

  if (!json_out.empty()) {
    std::string j = "{\n  \"bench\": \"cluster_dispatch\",\n";
    j += util::format("  \"servers\": %u,\n  \"channels_per_server\": %u,\n", kServers,
                      kChannelsPerServer);
    j += util::format("  \"window_s\": %.0f,\n  \"fault_load_erlangs\": %.0f,\n",
                      window.to_seconds(), fault_load);
    j += "  \"loads_erlangs\": [";
    for (std::size_t li = 0; li < n_loads; ++li) {
      j += util::format("%.0f%s", loads[li], li + 1 < n_loads ? ", " : "");
    }
    j += "],\n  \"modes\": {\n";
    for (std::size_t mi = 0; mi < kModeCount; ++mi) {
      const auto& crash = results[grid_jobs + mi];
      j += util::format("    \"%s\": {\"blocking\": [", kModes[mi].name);
      for (std::size_t li = 0; li < n_loads; ++li) {
        j += util::format("%.4f%s", results[li * kModeCount + mi].report.blocking_probability,
                          li + 1 < n_loads ? ", " : "");
      }
      j += util::format(
          "], \"goodput_ok_cps\": %.4f, \"goodput_crash_cps\": %.4f, "
          "\"sustained_frac\": %.4f, \"failovers\": %llu, \"circuit_opens\": %llu}%s\n",
          goodput(grid_at(fault_load, mi), window), goodput(crash, window), sustained[mi],
          (unsigned long long)crash.failovers, (unsigned long long)crash.circuit_opens,
          mi + 1 < kModeCount ? "," : "");
    }
    j += "  },\n";
    j += util::format("  \"sustained_least_loaded_frac\": %.4f,\n", sustained[least_idx]);
    j += util::format("  \"sustained_dns_rotation_frac\": %.4f,\n", sustained[dns_idx]);
    // Per-shard load map of the sharded crash replay. Every wall_s field
    // sits on its own line: CI byte-compares reruns of this file after
    // `grep -v wall_s` (wall-clock is host noise; the rest is deterministic).
    j += util::format(
        "  \"shard_fault\": {\n    \"threads\": %u, \"rounds\": %llu, \"clamped\": %llu,\n"
        "    \"failovers\": %llu, \"calls_completed\": %llu,\n    \"shards\": [\n",
        shard_crash.shard_threads, (unsigned long long)shard_crash.shard_rounds,
        (unsigned long long)shard_crash.shard_clamped,
        (unsigned long long)shard_crash.failovers,
        (unsigned long long)shard_crash.report.calls_completed);
    for (std::size_t s = 0; s < shard_crash.shards.size(); ++s) {
      const auto& obs = shard_crash.shards[s];
      j += util::format(
          "      {\"shard\": %zu, \"events\": %llu, \"messages_in\": %llu, "
          "\"messages_out\": %llu,\n",
          s, (unsigned long long)obs.events, (unsigned long long)obs.messages_in,
          (unsigned long long)obs.messages_out);
      j += util::format("  \"wall_s\": %.3f}%s\n", obs.wall_s,
                        s + 1 < shard_crash.shards.size() ? "," : "");
    }
    j += "    ]\n  }\n}\n";
    if (!util::write_file(json_out, j)) return 1;
  }

  // ---- acceptance ----
  int rc = 0;
  if (sustained[least_idx] < 0.90) {
    std::fprintf(stderr, "FAIL: least-loaded sustained only %.1f%% of fault-free goodput\n",
                 100.0 * sustained[least_idx]);
    rc = 1;
  }
  if (sustained[dns_idx] >= sustained[least_idx]) {
    std::fprintf(stderr, "FAIL: DNS rotation (%.1f%%) did not degrade below the "
                         "health-aware dispatcher (%.1f%%)\n",
                 100.0 * sustained[dns_idx], 100.0 * sustained[least_idx]);
    rc = 1;
  }
  if (least_crash.failovers == 0) {
    std::fprintf(stderr, "FAIL: no failovers recorded under the crash\n");
    rc = 1;
  }
  if (least_crash.circuit_opens == 0) {
    std::fprintf(stderr, "FAIL: circuit breaker never opened under the crash\n");
    rc = 1;
  }
  if (!trace_ok) rc = 1;
  return rc;
}
