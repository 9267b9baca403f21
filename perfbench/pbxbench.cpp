// pbxcap benchmark driver: one workload run per process.
//
// Usage:
//   pbxbench manifest
//   pbxbench run <workload> <seed> [--traced] [--fluid-off]
//   pbxbench setup <workload> <seed> <min_reps> <min_seconds>
//
// Every mode prints exactly one JSON object on stdout.
//
//   manifest  how this binary was compiled (compiler, __OPTIMIZE__, NDEBUG).
//   run       times one call into the workload's public entry point
//             (exp::run_testbed or exp::run_cluster) and reports its wall and
//             CPU time, the process's peak resident memory, the outcome
//             fingerprint, the report's work counts and the shard executor's
//             statistics. With --traced the call runs with the event-engine
//             profiler on and the output adds its per-category event counts
//             and sampled latency. --fluid-off runs the per-packet twin of a
//             fluid workload.
//   setup     times the same config with no arrivals (placement window 0),
//             repeatedly, and lists the per-repetition seconds.
//
// perfbench/run.py turns these raw facts into metrics and checks them.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/cluster.hpp"
#include "exp/testbed.hpp"
#include "telemetry/telemetry.hpp"
#include "util/strings.hpp"

namespace {

using namespace pbxcap;
using util::format;

using ull = unsigned long long;

struct Workload {
  bool cluster{false};
  exp::TestbedConfig testbed;
  exp::ClusterConfig cc;
};

// The three named workloads. Only the seed comes from the caller; every other
// knob is fixed here and echoed in the run's "config" object.
Workload make_workload(const std::string& name, std::uint64_t seed, bool fluid_off) {
  Workload w;
  if (name == "table1-packet") {
    // Paper Table I, saturated column: 240 E onto 165 channels, h = 120 s,
    // 180 s placement window, G.711, exact per-packet media.
    w.testbed.scenario = loadgen::CallScenario::for_offered_load(240.0);
    w.testbed.pbx.max_channels = 165;
    w.testbed.seed = seed;
  } else if (name == "campus-fluid") {
    // Signalling-bound campus: 8 x 80 channels behind the least-loaded
    // dispatcher, 600 E of short calls, fluid media.
    w.cluster = true;
    w.cc.scenario = loadgen::CallScenario::for_offered_load(600.0, Duration::seconds(15));
    w.cc.scenario.placement_window = Duration::seconds(600);
    w.cc.servers = 8;
    w.cc.channels_per_server = 80;
    w.cc.routing = exp::ClusterRouting::kDispatcher;
    w.cc.dispatcher.policy = dispatch::Policy::kLeastLoaded;
    w.cc.fluid.enabled = !fluid_off;
    w.cc.seed = seed;
  } else if (name == "fleet-sharded") {
    // The 50-backend dispatcher fleet on the sharded executor. One worker:
    // every window, mailbox drain and barrier round still runs, but without
    // the cross-thread wake-ups whose latency on a shared host swings wall
    // time by a quarter from run to run (see README.md).
    w.cluster = true;
    w.cc.scenario = loadgen::CallScenario::for_offered_load(300.0, Duration::seconds(20));
    w.cc.scenario.placement_window = Duration::seconds(60);
    w.cc.fleet.assign(50, exp::ServerSpec{12, 0});
    w.cc.routing = exp::ClusterRouting::kDispatcher;
    w.cc.dispatcher.policy = dispatch::Policy::kLeastLoaded;
    w.cc.shard.enabled = true;
    w.cc.shard.threads = 1;
    w.cc.seed = seed;
  } else {
    throw std::invalid_argument{"unknown workload: " + name};
  }
  return w;
}

const loadgen::CallScenario& scenario_of(const Workload& w) {
  return w.cluster ? w.cc.scenario : w.testbed.scenario;
}

Duration horizon_of(const Workload& w) {
  const loadgen::CallScenario& s = scenario_of(w);
  return s.placement_window + s.hold_time + (w.cluster ? w.cc.drain : w.testbed.drain);
}

std::string config_json(const Workload& w) {
  const loadgen::CallScenario& s = scenario_of(w);
  std::string j = format(
      "{\"entry\":\"%s\",\"seed\":%llu,\"offered_erlangs\":%.3f,\"hold_s\":%.3f,"
      "\"window_s\":%.3f,\"drain_s\":%.3f,\"codec\":\"%s\"",
      w.cluster ? "exp::run_cluster" : "exp::run_testbed",
      static_cast<ull>(w.cluster ? w.cc.seed : w.testbed.seed), s.offered_erlangs(),
      s.hold_time.to_seconds(), s.placement_window.to_seconds(),
      (w.cluster ? w.cc.drain : w.testbed.drain).to_seconds(), std::string{s.codec.name}.c_str());
  if (w.cluster) {
    const bool fleet = !w.cc.fleet.empty();
    j += format(
        ",\"servers\":%zu,\"channels_per_server\":%u,\"routing\":\"%s\",\"policy\":%u,"
        "\"fluid\":%s,\"sharded\":%s,\"shard_threads\":%u,\"lookahead_ms\":%.3f}",
        fleet ? w.cc.fleet.size() : static_cast<std::size_t>(w.cc.servers),
        fleet ? w.cc.fleet.front().channels : w.cc.channels_per_server,
        w.cc.routing == exp::ClusterRouting::kDispatcher ? "dispatcher" : "dns",
        static_cast<unsigned>(w.cc.dispatcher.policy), w.cc.fluid.enabled ? "true" : "false",
        w.cc.shard.enabled ? "true" : "false", w.cc.shard.threads,
        w.cc.shard.lookahead.to_seconds() * 1e3);
  } else {
    j += format(",\"channels\":%u,\"fluid\":%s}", w.testbed.pbx.max_channels,
                w.testbed.fluid.enabled ? "true" : "false");
  }
  return j;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

// Peak resident set of this process image. VmHWM starts afresh at exec,
// unlike getrusage's ru_maxrss, which keeps the forking parent's peak.
long peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Everything one run produces, as the entry point returned it.
struct Outcome {
  exp::ClusterResult result;  // testbed runs fill only `report`
  double wall_s{0.0};
  double cpu_s{0.0};
};

Outcome execute(Workload& w, telemetry::Telemetry* tel) {
  Outcome out;
  if (w.cluster) {
    w.cc.telemetry = tel;
  } else {
    w.testbed.telemetry = tel;
  }
  const double cpu0 = cpu_seconds();
  const auto t0 = std::chrono::steady_clock::now();
  if (w.cluster) {
    out.result = exp::run_cluster(w.cc);
  } else {
    out.result.report = exp::run_testbed(w.testbed);
  }
  out.wall_s = since(t0);
  out.cpu_s = cpu_seconds() - cpu0;
  return out;
}

// The outcome fingerprint: call outcomes, channel peak, the SIP census by
// method and the media census. Kernel event counts stay out of it — a correct
// speed-up may change them.
std::string fingerprint_json(const monitor::ExperimentReport& r) {
  return format(
      "{\"attempted\":%llu,\"completed\":%llu,\"blocked\":%llu,\"failed\":%llu,"
      "\"rejected_488\":%llu,\"blocking\":\"%.9f\",\"channels_peak\":%u,"
      "\"sip_total\":%llu,\"sip_invite\":%llu,\"sip_100\":%llu,\"sip_180\":%llu,"
      "\"sip_200\":%llu,\"sip_ack\":%llu,\"sip_bye\":%llu,\"sip_errors\":%llu,"
      "\"sip_retransmissions\":%llu,\"rtp_packets_at_pbx\":%llu,\"rtp_relayed\":%llu}",
      static_cast<ull>(r.calls_attempted), static_cast<ull>(r.calls_completed),
      static_cast<ull>(r.calls_blocked), static_cast<ull>(r.calls_failed),
      static_cast<ull>(r.codec_rejections_488), r.blocking_probability, r.channels_peak,
      static_cast<ull>(r.sip_total), static_cast<ull>(r.sip_invite), static_cast<ull>(r.sip_100),
      static_cast<ull>(r.sip_180), static_cast<ull>(r.sip_200), static_cast<ull>(r.sip_ack),
      static_cast<ull>(r.sip_bye), static_cast<ull>(r.sip_errors),
      static_cast<ull>(r.sip_retransmissions), static_cast<ull>(r.rtp_packets_at_pbx),
      static_cast<ull>(r.rtp_relayed));
}

std::string profile_json(const telemetry::ProfileData& data) {
  std::string j = format("{\"events_processed\":%llu,\"categories\":{",
                         static_cast<ull>(data.events_processed));
  for (std::size_t i = 0; i < data.categories.size(); ++i) {
    const auto& cat = data.categories[i];
    j += format("%s\"%s\":{\"events\":%llu,\"samples\":%llu,\"timed_ns\":%llu}", i ? "," : "",
                cat.name.c_str(), static_cast<ull>(cat.stats.events),
                static_cast<ull>(cat.stats.timed_samples), static_cast<ull>(cat.stats.timed_ns));
  }
  return j + "}}";
}

int cmd_run(const std::string& name, std::uint64_t seed, bool traced, bool fluid_off) {
  Workload w = make_workload(name, seed, fluid_off);
  std::optional<telemetry::Telemetry> tel;
  if (traced) {
    // Profiling only, and a sampler period longer than the horizon: the
    // sampler's per-period tick (and the fluid flush it triggers) never
    // fires, so the traced run executes the untraced run's events exactly.
    telemetry::Config cfg;
    cfg.tracing = false;
    cfg.profiling = true;
    cfg.sample_period = Duration::hours(24);
    if (horizon_of(w) >= cfg.sample_period) {
      throw std::logic_error{"workload horizon exceeds the traced sample period"};
    }
    tel.emplace(cfg);
  }
  const Outcome out = execute(w, tel ? &*tel : nullptr);
  const exp::ClusterResult& res = out.result;
  const monitor::ExperimentReport& r = res.report;

  std::string j = format("{\"workload\":\"%s\",\"seed\":%llu,\"traced\":%s,\"config\":%s,",
                         name.c_str(), static_cast<ull>(seed), traced ? "true" : "false",
                         config_json(w).c_str());
  j += format("\"wall_s\":%.9f,\"cpu_s\":%.6f,\"peak_rss_kb\":%ld,", out.wall_s, out.cpu_s,
              peak_rss_kb());
  j += "\"fingerprint\":" + fingerprint_json(r) + ",";
  j += format(
      "\"counts\":{\"events\":%llu,\"uplink_packets\":%llu,"
      "\"uplink_bytes\":%llu,\"failovers\":%llu,\"dispatch_rejected\":%llu},",
      static_cast<ull>(r.events_processed), static_cast<ull>(res.uplink_packets),
      static_cast<ull>(res.uplink_bytes), static_cast<ull>(res.failovers),
      static_cast<ull>(res.dispatch_rejected));
  j += format("\"shard_threads\":%u,\"shard_rounds\":%llu,\"shard_clamped\":%llu,\"shards\":[",
              res.shard_threads, static_cast<ull>(res.shard_rounds),
              static_cast<ull>(res.shard_clamped));
  for (std::size_t s = 0; s < res.shards.size(); ++s) {
    const auto& sh = res.shards[s];
    j += format("%s{\"events\":%llu,\"messages_in\":%llu,\"messages_out\":%llu,\"wall_s\":%.9f}",
                s ? "," : "", static_cast<ull>(sh.events), static_cast<ull>(sh.messages_in),
                static_cast<ull>(sh.messages_out), sh.wall_s);
  }
  j += "]";
  if (tel) {
    telemetry::ProfileData merged;
    if (!res.shard_profiles.empty()) {
      merged = res.shard_profiles.front().data;
      for (std::size_t s = 1; s < res.shard_profiles.size(); ++s) {
        merged.merge(res.shard_profiles[s].data);
      }
    } else if (tel->profiler() != nullptr) {
      merged = tel->profiler()->snapshot();
    }
    j += ",\"profile\":" + profile_json(merged);
  }
  std::printf("%s}\n", j.c_str());
  return 0;
}

int cmd_setup(const std::string& name, std::uint64_t seed, unsigned min_reps,
              double min_seconds) {
  std::string list;
  const auto t0 = std::chrono::steady_clock::now();
  unsigned reps = 0;
  while (reps < min_reps || since(t0) < min_seconds) {
    Workload w = make_workload(name, seed, false);
    (w.cluster ? w.cc.scenario : w.testbed.scenario).placement_window = Duration::zero();
    const Outcome out = execute(w, nullptr);
    if (out.result.report.calls_attempted != 0) {
      throw std::logic_error{"setup run placed calls"};
    }
    list += format("%s%.9f", reps ? "," : "", out.wall_s);
    ++reps;
  }
  std::printf("{\"workload\":\"%s\",\"setup_s\":[%s]}\n", name.c_str(), list.c_str());
  return 0;
}

int cmd_manifest() {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::printf("{\"compiler\":\"%s %s\",\"optimize\":%s,\"ndebug\":%s,\"cplusplus\":%ld}\n",
#ifdef __clang__
              "clang",
#else
              "gcc",
#endif
              __VERSION__, optimized ? "true" : "false", ndebug ? "true" : "false",
              static_cast<long>(__cplusplus));
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: pbxbench manifest\n"
               "       pbxbench run <workload> <seed> [--traced] [--fluid-off]\n"
               "       pbxbench setup <workload> <seed> <min_reps> <min_seconds>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 1 && args[0] == "manifest") return cmd_manifest();
    if (args.size() >= 3 && args[0] == "run") {
      bool traced = false;
      bool fluid_off = false;
      for (std::size_t i = 3; i < args.size(); ++i) {
        if (args[i] == "--traced") {
          traced = true;
        } else if (args[i] == "--fluid-off") {
          fluid_off = true;
        } else {
          return usage();
        }
      }
      return cmd_run(args[1], std::stoull(args[2]), traced, fluid_off);
    }
    if (args.size() == 5 && args[0] == "setup") {
      return cmd_setup(args[1], std::stoull(args[2]),
                       static_cast<unsigned>(std::stoul(args[3])), std::stod(args[4]));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pbxbench: %s\n", e.what());
    return 1;
  }
  return usage();
}
