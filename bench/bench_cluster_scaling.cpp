// Extension experiment: scaling out with multiple PBX servers.
//
// The paper closes §IV by noting that serving the full ~50,000-user campus
// needs either call policy or "increasing the number of servers". This
// harness quantifies the second option: offered loads beyond one server's
// capacity, split round-robin over k PBXs of 165 channels each, measured in
// the packet-level testbed and compared with Erlang-B(A/k, 165).
//
// Usage: bench_cluster_scaling [--fast] [--mega] [--shards] [--threads N] [--json F]
//                              [--attr-json F]
//   --mega   : million-call-scale demonstration — 100,000 offered Erlangs over
//              8 x 15,000-channel backends with the hybrid fluid/packet media
//              engine (exact per-packet simulation of this point would need
//              ~2 x 10^10 kernel events; the fluid fast path makes it a
//              single-machine run). Prints peak concurrent calls, kernel
//              events, and wall time.
//   --shards : sharded-executor scaling sweep — the SAME seed run at worker
//              counts {1, 2, 4, 8}, every deterministic output cross-checked
//              (exit 1 on any divergence), wall time and speedup vs the
//              1-thread run recorded; then a 50-backend dispatcher fleet
//              point run with the event-engine profiler at every worker
//              count, proving both that the partition holds at fleet scale
//              and that the per-shard/per-category event-attribution JSON is
//              byte-identical for any worker count. --threads N shrinks the
//              sweep to {1, N}; --json F writes the machine-readable record
//              (wall-clock fields sit on their own lines so CI can filter
//              them before byte-comparing reruns); --attr-json F writes the
//              fleet attribution JSON.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/erlang_b.hpp"
#include "exp/cluster.hpp"
#include "exp/parallel.hpp"
#include "telemetry/profiler.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

void run_mega() {
  using namespace pbxcap;
  std::printf("== Mega point: 100,000 E over 8 x 15,000 channels, hybrid fluid media ==\n");
  exp::ClusterConfig config;
  config.scenario = loadgen::CallScenario::for_offered_load(100'000);
  config.fleet.assign(8, exp::ServerSpec{15'000, 0});
  config.fluid.enabled = true;
  config.seed = 9001;
  const auto t0 = std::chrono::steady_clock::now();
  const exp::ClusterResult r = exp::run_cluster(config);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  std::uint64_t peak_total = 0;
  for (const auto& b : r.backends) peak_total += b.peak_channels;
  std::printf("  calls attempted/completed : %llu / %llu\n",
              (unsigned long long)r.report.calls_attempted,
              (unsigned long long)r.report.calls_completed);
  std::printf("  peak concurrent calls     : %llu (sum of per-server channel peaks)\n",
              (unsigned long long)peak_total);
  std::printf("  blocking                  : %.2f%%\n", r.report.blocking_probability * 100.0);
  std::printf("  RTP packets at backends   : %llu\n",
              (unsigned long long)r.report.rtp_packets_at_pbx);
  std::printf("  kernel events             : %llu (%.0f per completed call)\n",
              (unsigned long long)r.report.events_processed,
              r.report.calls_completed > 0
                  ? static_cast<double>(r.report.events_processed) /
                        static_cast<double>(r.report.calls_completed)
                  : 0.0);
  std::printf("  wall time                 : %.1f s\n\n", wall);
}

double wall_run(const pbxcap::exp::ClusterConfig& config, pbxcap::exp::ClusterResult& out) {
  const auto t0 = std::chrono::steady_clock::now();
  out = pbxcap::exp::run_cluster(config);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Everything a sharded run is contractually required to reproduce for any
// worker count: the aggregate report, per-server peaks, and the per-shard
// event/message/window counts (wall times are excluded — they are host
// noise).
std::string fingerprint(const pbxcap::exp::ClusterResult& r) {
  using pbxcap::util::format;
  std::string f = format(
      "att=%llu comp=%llu fail=%llu pb=%.9f peak=%u rtp=%llu events=%llu "
      "rounds=%llu clamped=%llu",
      (unsigned long long)r.report.calls_attempted,
      (unsigned long long)r.report.calls_completed,
      (unsigned long long)r.report.calls_failed, r.report.blocking_probability,
      r.report.channels_peak, (unsigned long long)r.report.rtp_packets_at_pbx,
      (unsigned long long)r.report.events_processed, (unsigned long long)r.shard_rounds,
      (unsigned long long)r.shard_clamped);
  for (const auto& b : r.backends) f += format(" %u", b.peak_channels);
  for (const auto& s : r.shards) {
    f += format(" [%llu/%llu/%llu/%llu]", (unsigned long long)s.events,
                (unsigned long long)s.messages_in, (unsigned long long)s.messages_out,
                (unsigned long long)s.windows);
  }
  return f;
}

int run_shards(bool fast, unsigned threads_override, const std::string& json_out,
               const std::string& attr_json_out) {
  using namespace pbxcap;

  const std::uint32_t backends = 8;
  const std::uint32_t channels = fast ? 20u : 40u;
  const double erlangs = fast ? 120.0 : 240.0;
  const Duration hold = Duration::seconds(20);
  const Duration window = Duration::seconds(fast ? 30 : 60);

  exp::ClusterConfig config;
  config.scenario = loadgen::CallScenario::for_offered_load(erlangs, hold);
  config.scenario.placement_window = window;
  config.servers = backends;
  config.channels_per_server = channels;
  config.seed = 7777;
  config.shard.enabled = true;

  std::vector<unsigned> counts{1, 2, 4, 8};
  if (threads_override > 0) {
    counts = {1};
    if (threads_override != 1) counts.push_back(threads_override);
  }

  std::printf("== Shard scaling: %u backends x %u ch, %.0f E, window %.0f s, seed %llu ==\n",
              backends, channels, erlangs, window.to_seconds(),
              (unsigned long long)config.seed);
  std::printf("host threads: %u (PBXCAP_THREADS honoured), lookahead %.1f ms\n\n",
              exp::default_threads(), config.shard.lookahead.to_seconds() * 1e3);

  std::vector<exp::ClusterResult> results(counts.size());
  std::vector<double> walls(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    config.shard.threads = counts[i];
    walls[i] = wall_run(config, results[i]);
  }

  // Determinism gate: every worker count must reproduce the 1-thread run.
  const std::string reference = fingerprint(results[0]);
  bool deterministic = true;
  for (std::size_t i = 1; i < counts.size(); ++i) {
    if (fingerprint(results[i]) != reference) {
      deterministic = false;
      std::fprintf(stderr, "FAIL: %u-thread run diverged from 1-thread run\n  1: %s\n  %u: %s\n",
                   counts[i], reference.c_str(), counts[i], fingerprint(results[i]).c_str());
    }
  }

  util::TextTable table{{"threads", "workers", "wall (s)", "speedup", "rounds", "events"}};
  for (std::size_t i = 0; i < counts.size(); ++i) {
    table.add_row({util::format("%u", counts[i]),
                   util::format("%u", results[i].shard_threads),
                   util::format("%.2f", walls[i]),
                   util::format("%.2fx", walls[i] > 0.0 ? walls[0] / walls[i] : 0.0),
                   util::format("%llu", (unsigned long long)results[i].shard_rounds),
                   util::format("%llu", (unsigned long long)results[i].report.events_processed)});
  }
  std::printf("%s\n", table.to_string().c_str());

  const auto& ref = results[0];
  std::uint64_t messages = 0;
  for (const auto& s : ref.shards) messages += s.messages_in;
  std::printf("determinism: %s (%zu worker counts, identical reports/peaks/shard stats)\n",
              deterministic ? "ok" : "FAILED", counts.size());
  std::printf("cross-shard messages: %llu (%llu clamped to the causality bound)\n\n",
              (unsigned long long)messages, (unsigned long long)ref.shard_clamped);

  // Fleet feasibility + event attribution: 50 backends behind the
  // least-loaded dispatcher, one shard each, 60 s placement window, run with
  // the event-engine profiler at EVERY worker count in the sweep. The
  // per-shard/per-category attribution JSON is count-only, so it must come
  // out byte-identical no matter how many workers executed the shards.
  exp::ClusterConfig fleet;
  fleet.scenario = loadgen::CallScenario::for_offered_load(300.0, hold);
  fleet.scenario.placement_window = Duration::seconds(60);
  fleet.fleet.assign(50, exp::ServerSpec{12, 0});
  fleet.seed = 4242;
  fleet.routing = exp::ClusterRouting::kDispatcher;
  fleet.dispatcher.policy = dispatch::Policy::kLeastLoaded;
  fleet.shard.enabled = true;
  telemetry::Config prof_cfg;
  prof_cfg.tracing = false;
  prof_cfg.profiling = true;
  std::string attr_ref;
  bool attr_identical = true;
  exp::ClusterResult fr;
  double fleet_wall = 0.0;
  for (const unsigned c : counts) {
    telemetry::Telemetry ptel{prof_cfg};
    fleet.telemetry = &ptel;
    fleet.shard.threads = c;
    exp::ClusterResult r;
    const double w = wall_run(fleet, r);
    const std::string attr = telemetry::attribution_json(r.shard_profiles);
    if (attr_ref.empty()) {
      attr_ref = attr;
    } else if (attr != attr_ref) {
      attr_identical = false;
      std::fprintf(stderr, "FAIL: %u-worker fleet attribution diverged from reference\n", c);
    }
    if (c == counts.back()) {
      fr = std::move(r);
      fleet_wall = w;
    }
  }
  fleet.telemetry = nullptr;
  const std::uint64_t attr_total = [&fr] {
    std::uint64_t t = 0;
    for (const auto& s : fr.shard_profiles) t += s.data.total_events();
    return t;
  }();
  const double hub_share =
      attr_total == 0 || fr.shard_profiles.empty()
          ? 0.0
          : static_cast<double>(fr.shard_profiles.front().data.total_events()) /
                static_cast<double>(attr_total);
  std::printf("== Fleet point: 50 backends x 12 ch, 300 E, least-loaded dispatcher ==\n");
  std::printf("  shards                : %zu (%u workers, %llu rounds)\n", fr.shards.size(),
              fr.shard_threads, (unsigned long long)fr.shard_rounds);
  std::printf("  calls attempted/completed : %llu / %llu (blocking %.2f%%)\n",
              (unsigned long long)fr.report.calls_attempted,
              (unsigned long long)fr.report.calls_completed,
              fr.report.blocking_probability * 100.0);
  std::printf("  kernel events         : %llu\n",
              (unsigned long long)fr.report.events_processed);
  std::printf("  hub shard share       : %.1f%% of attributed events (%s across %zu "
              "worker counts)\n",
              hub_share * 100.0, attr_identical ? "byte-identical" : "DIVERGED",
              counts.size());
  std::printf("  wall time             : %.2f s\n", fleet_wall);
  const bool fleet_ok = fr.report.calls_completed > 0 && fr.shards.size() == 51 &&
                        fr.shard_profiles.size() == 51;
  if (!attr_json_out.empty() && !util::write_file(attr_json_out, attr_ref)) return 1;

  if (!json_out.empty()) {
    std::string j = "{\n  \"bench\": \"shard_scaling\",\n";
    j += util::format("  \"backends\": %u,\n  \"channels_per_server\": %u,\n", backends,
                      channels);
    j += util::format("  \"offered_erlangs\": %.0f,\n  \"window_s\": %.0f,\n", erlangs,
                      window.to_seconds());
    j += util::format("  \"lookahead_ms\": %.3f,\n",
                      config.shard.lookahead.to_seconds() * 1e3);
    j += util::format("  \"host_threads\": %u,\n", exp::default_threads());
    j += util::format("  \"deterministic\": %s,\n", deterministic ? "true" : "false");
    j += util::format("  \"events_processed\": %llu,\n  \"rounds\": %llu,\n",
                      (unsigned long long)ref.report.events_processed,
                      (unsigned long long)ref.shard_rounds);
    j += util::format("  \"messages\": %llu,\n  \"clamped\": %llu,\n",
                      (unsigned long long)messages, (unsigned long long)ref.shard_clamped);
    j += "  \"sweep\": [\n";
    for (std::size_t i = 0; i < counts.size(); ++i) {
      std::uint64_t windows = 0;
      for (const auto& s : results[i].shards) windows += s.windows;
      j += util::format("    {\"threads\": %u, \"workers\": %u, \"windows\": %llu,\n",
                        counts[i], results[i].shard_threads, (unsigned long long)windows);
      j += util::format("  \"wall_s\": %.3f,\n", walls[i]);
      // Per-worker host time, one value per worker, each key on its own line.
      std::string busy;
      std::string wait;
      for (const auto& w : results[i].shard_workers) {
        busy += util::format("%s%.3f", busy.empty() ? "" : ", ", w.busy_s);
        wait += util::format("%s%.3f", wait.empty() ? "" : ", ", w.wait_s);
      }
      j += util::format("  \"wall_busy_s\": [%s],\n", busy.c_str());
      j += util::format("  \"wall_wait_s\": [%s],\n", wait.c_str());
      j += util::format("  \"wall_drain_s\": %.3f,\n", results[i].shard_drain_s);
      j += util::format("  \"speedup\": %.3f}%s\n",
                        walls[i] > 0.0 ? walls[0] / walls[i] : 0.0,
                        i + 1 < counts.size() ? "," : "");
    }
    j += "  ],\n  \"shards\": [\n";
    for (std::size_t s = 0; s < ref.shards.size(); ++s) {
      j += util::format(
          "    {\"shard\": %zu, \"events\": %llu, \"messages_in\": %llu, "
          "\"messages_out\": %llu, \"windows\": %llu}%s\n",
          s, (unsigned long long)ref.shards[s].events,
          (unsigned long long)ref.shards[s].messages_in,
          (unsigned long long)ref.shards[s].messages_out,
          (unsigned long long)ref.shards[s].windows,
          s + 1 < ref.shards.size() ? "," : "");
    }
    j += "  ],\n  \"fleet\": {\n";
    j += util::format("    \"backends\": %zu, \"offered_erlangs\": 300, \"window_s\": 60,\n",
                      fleet.fleet.size());
    j += util::format("    \"threads\": %u, \"calls_attempted\": %llu, "
                      "\"calls_completed\": %llu,\n",
                      fr.shard_threads, (unsigned long long)fr.report.calls_attempted,
                      (unsigned long long)fr.report.calls_completed);
    j += util::format("    \"blocking\": %.4f, \"events_processed\": %llu,\n",
                      fr.report.blocking_probability,
                      (unsigned long long)fr.report.events_processed);
    j += util::format("    \"hub_event_share\": %.6f, \"attribution_deterministic\": %s,\n",
                      hub_share, attr_identical ? "true" : "false");
    j += util::format("  \"fleet_wall_s\": %.3f\n  }\n}\n", fleet_wall);
    if (!util::write_file(json_out, j)) return 1;
  }

  if (!fleet_ok) {
    std::fprintf(stderr, "FAIL: 50-backend fleet point produced no completed calls\n");
  }
  return (deterministic && fleet_ok && attr_identical) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pbxcap;

  bool fast = false;
  bool mega = false;
  bool shards = false;
  unsigned threads_override = 0;
  std::string json_out;
  std::string attr_json_out;
  util::Flags{}
      .flag("--fast", fast)
      .flag("--mega", mega)
      .flag("--shards", shards)
      .value("--threads", threads_override)
      .value("--json", json_out)
      .value("--attr-json", attr_json_out)
      .parse(argc, argv);
  if (shards) return run_shards(fast, threads_override, json_out, attr_json_out);
  if (mega) {
    run_mega();
    return 0;
  }

  std::printf("== Cluster scaling: k Asterisk servers, round-robin calls%s ==\n\n",
              fast ? " (fast mode)" : "");

  struct Job {
    double erlangs;
    std::uint32_t servers;
  };
  std::vector<Job> jobs;
  const std::vector<double> loads = fast ? std::vector<double>{240} : std::vector<double>{240, 400};
  for (const double a : loads) {
    for (const std::uint32_t k : {1u, 2u, 3u}) jobs.push_back({a, k});
  }

  std::vector<exp::ClusterResult> results(jobs.size());
  exp::parallel_for(jobs.size(), exp::default_threads(), [&](std::size_t i) {
    exp::ClusterConfig config;
    config.scenario = loadgen::CallScenario::for_offered_load(jobs[i].erlangs);
    if (fast) config.scenario.placement_window = Duration::seconds(45);
    config.servers = jobs[i].servers;
    config.seed = 7000 + i;
    results[i] = exp::run_cluster(config);
  });

  util::TextTable table{{"A (E)", "servers", "measured Pb", "Erlang-B(A/k, 165)",
                         "peak ch (total)", "completed"}};
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& r = results[i];
    const double per_server = jobs[i].erlangs / jobs[i].servers;
    table.add_row(
        {util::format("%.0f", jobs[i].erlangs), util::format("%u", jobs[i].servers),
         util::format("%.1f%%", r.report.blocking_probability * 100.0),
         util::format("%.1f%%",
                      erlang::erlang_b(erlang::Erlangs{per_server}, 165) * 100.0),
         util::format("%u", r.report.channels_peak),
         util::format("%llu", (unsigned long long)r.report.calls_completed)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Reading: two servers absorb the paper's worst case (240 E -> ~0%% blocking);\n"
              "the 50k-user scenario (400+ E) needs three. Measured blocking tracks the\n"
              "per-server Erlang-B prediction, validating simple DNS-rotation scale-out.\n");
  return 0;
}
