// pbxcap command-line toolkit.
//
// Every analytical and empirical capability of the library behind one
// binary, for interactive dimensioning work:
//
//   pbxcap erlang-b <A> <N>                    blocking probability
//   pbxcap erlang-b --channels <A> <Pb>        channels for a target
//   pbxcap erlang-b --load <N> <Pb>            max offered load
//   pbxcap erlang-c <A> <N> [hold_s]           wait probability / mean wait
//   pbxcap engset <A> <M> <N>                  finite-population blocking
//   pbxcap dimension <calls/h> <min> <Pb>      busy-hour channel plan
//   pbxcap mos <loss%> <delay_ms> [codec]      E-model MOS estimate
//   pbxcap simulate <A> [options]              packet-level testbed run
//   pbxcap profile [A] [options]               event-engine profile of a run
//
// simulate options: --channels N, --seed S, --window S, --hold S, --wifi,
//                   --codec NAME, --rtcp, --metrics-out F, --series-out F,
//                   --trace-out F
// profile options:  --channels N, --seed S, --window S, --top N, --timing,
//                   --json-out F, --counters-out F
//
// A malformed or out-of-range number, an unknown option or a missing value
// prints usage and exits 2.

#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/dimensioning.hpp"
#include "core/engset.hpp"
#include "core/erlang_b.hpp"
#include "core/erlang_c.hpp"
#include "exp/testbed.hpp"
#include "media/emodel.hpp"
#include "rtp/codec.hpp"
#include "telemetry/export.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/telemetry.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

namespace {

using namespace pbxcap;
using erlang::Erlangs;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  pbxcap erlang-b <A> <N>\n"
               "  pbxcap erlang-b --channels <A> <Pb>\n"
               "  pbxcap erlang-b --load <N> <Pb>\n"
               "  pbxcap erlang-c <A> <N> [hold_s]\n"
               "  pbxcap engset <A> <M> <N>\n"
               "  pbxcap dimension <calls_per_hour> <duration_min> <target_Pb>\n"
               "  pbxcap mos <loss_percent> <delay_ms> [codec]\n"
               "  pbxcap simulate <A> [--channels N] [--seed S] [--window S] "
               "[--hold S] [--codec NAME] [--wifi] [--rtcp]\n"
               "                      [--metrics-out F(.prom|.json)] [--series-out F.csv] "
               "[--trace-out F.json]\n"
               "  pbxcap profile [A] [--channels N] [--seed S] [--window S] [--top N] "
               "[--timing]\n"
               "                     [--json-out F.json] [--counters-out F.json]\n");
  return 2;
}

/// A malformed or out-of-range command-line number; main prints usage.
struct BadArgument {
  const char* arg;
};

/// A finite number in [lo, hi] (loads, rates, durations, percentages).
double number(const char* arg, double lo = 0.0,
              double hi = std::numeric_limits<double>::max()) {
  double v = 0.0;
  if (!util::parse_double(arg, v) || v < lo || v > hi) throw BadArgument{arg};
  return v;
}

/// An offered load the simulator can run: A > 0.
double load(const char* arg) {
  const double a = number(arg);
  if (a == 0.0) throw BadArgument{arg};
  return a;
}

/// A count >= 1 (channels, sources).
std::uint32_t count(const char* arg) {
  std::uint64_t v = 0;
  if (!util::parse_u64(arg, v) || v < 1 || v > UINT32_MAX) throw BadArgument{arg};
  return static_cast<std::uint32_t>(v);
}

/// A blocking target strictly inside (0, 1).
double probability(const char* arg) {
  const double p = number(arg, 0.0, 1.0);
  if (p == 0.0 || p == 1.0) throw BadArgument{arg};
  return p;
}

/// Runs `flags` over argv[1..argc); prints the error and returns false.
bool parse_flags(const util::Flags& flags, int argc, char** argv) {
  const std::string error = flags.try_parse(argc, argv);
  if (!error.empty()) std::fprintf(stderr, "%s\n", error.c_str());
  return error.empty();
}

/// The run flags `simulate` and `profile` share.
util::Flags run_flags(exp::TestbedConfig& config, double& window_s) {
  util::Flags flags;
  flags.value("--channels", config.pbx.max_channels)
      .value("--seed", config.seed)
      .value("--window", window_s);
  return flags;
}

// Each subcommand sees its own name as argv[0], so argv[1] is its first
// argument.

int cmd_erlang_b(int argc, char** argv) {
  if (argc == 4 && std::string_view{argv[1]} == "--channels") {
    const double a = number(argv[2]);
    const double pb = probability(argv[3]);
    std::printf("A = %g E at P_b <= %g  =>  N = %u channels\n", a, pb,
                erlang::channels_for_blocking(Erlangs{a}, pb));
    return 0;
  }
  if (argc == 4 && std::string_view{argv[1]} == "--load") {
    const std::uint32_t n = count(argv[2]);
    const double pb = probability(argv[3]);
    std::printf("N = %u at P_b <= %g  =>  A_max = %.3f Erlangs\n", n, pb,
                erlang::offered_load_for_blocking(n, pb).value());
    return 0;
  }
  if (argc == 3) {
    const double a = number(argv[1]);
    const std::uint32_t n = count(argv[2]);
    std::printf("Erlang-B: A = %g E, N = %u  =>  P_b = %.4f%%, carried = %.2f E\n", a, n,
                erlang::erlang_b(Erlangs{a}, n) * 100.0, erlang::carried_traffic(Erlangs{a}, n));
    return 0;
  }
  return usage();
}

int cmd_erlang_c(int argc, char** argv) {
  if (argc != 3 && argc != 4) return usage();
  const double a = number(argv[1]);
  const std::uint32_t n = count(argv[2]);
  const double hold_s = argc == 4 ? number(argv[3]) : 180.0;
  const double pw = erlang::erlang_c(Erlangs{a}, n);
  std::printf("Erlang-C: A = %g E, N = %u  =>  P(wait) = %.4f%%\n", a, n, pw * 100.0);
  if (static_cast<double>(n) > a) {
    const auto wait = erlang::erlang_c_mean_wait(Erlangs{a}, n, Duration::from_seconds(hold_s));
    const double sl20 = erlang::erlang_c_service_level(
        Erlangs{a}, n, Duration::from_seconds(hold_s), Duration::seconds(20));
    std::printf("mean wait = %.2f s (hold %.0f s), service level (20 s) = %.1f%%\n",
                wait.to_seconds(), hold_s, sl20 * 100.0);
  } else {
    std::printf("queue unstable (A >= N)\n");
  }
  return 0;
}

int cmd_engset(int argc, char** argv) {
  if (argc != 4) return usage();
  const double a = number(argv[1]);
  const std::uint32_t m = count(argv[2]);
  const std::uint32_t n = count(argv[3]);
  std::printf("Engset: A = %g E over M = %u sources, N = %u  =>  P_b = %.4f%%  "
              "(Erlang-B: %.4f%%)\n",
              a, m, n, erlang::engset_blocking_total(Erlangs{a}, m, n) * 100.0,
              erlang::erlang_b(Erlangs{a}, n) * 100.0);
  return 0;
}

int cmd_dimension(int argc, char** argv) {
  if (argc != 4) return usage();
  const double calls = number(argv[1]);
  const double minutes = number(argv[2]);
  const double pb = probability(argv[3]);
  const erlang::Workload w{calls, Duration::from_seconds(minutes * 60.0)};
  const std::uint32_t n = erlang::dimension_channels(w, pb);
  const auto point = erlang::evaluate_capacity(w, n);
  std::printf("%.0f calls/h x %.1f min = %.1f Erlangs offered\n", calls, minutes,
              point.offered.value());
  std::printf("P_b <= %g  =>  N = %u channels (actual P_b %.3f%%, carried %.1f E)\n", pb, n,
              point.blocking_probability * 100.0, point.carried_erlangs);
  return 0;
}

int cmd_mos(int argc, char** argv) {
  if (argc != 3 && argc != 4) return usage();
  const double loss = number(argv[1], 0.0, 100.0) / 100.0;
  const double delay_ms = number(argv[2]);
  const auto codec = rtp::codec_by_name(argc == 4 ? argv[3] : "PCMU");
  if (!codec) {
    std::fprintf(stderr, "unknown codec; catalog:");
    for (const auto& c : rtp::codec_catalog()) std::fprintf(stderr, " %s", std::string{c.name}.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  const auto inputs = media::inputs_for_codec(*codec, Duration::from_millis(delay_ms),
                                              Duration::millis(60), loss);
  const double r = media::r_factor(inputs);
  std::printf("%s @ %.1f%% loss, %.0f ms one-way  =>  R = %.1f (%s), MOS = %.2f\n",
              std::string{codec->name}.c_str(), loss * 100.0, delay_ms, r,
              std::string{media::to_string(media::quality_band(r))}.c_str(),
              media::estimate_mos(inputs));
  return 0;
}

int cmd_simulate(int argc, char** argv) {
  if (argc < 2) return usage();
  const double offered = load(argv[1]);
  exp::TestbedConfig config;
  const loadgen::CallScenario defaults;
  double window_s = defaults.placement_window.to_seconds();
  double hold_s = defaults.hold_time.to_seconds();
  bool use_wifi = false;
  bool rtcp = false;
  std::string codec_name, metrics_out, series_out, trace_out;
  util::Flags flags = run_flags(config, window_s);
  flags.value("--hold", hold_s)
      .value("--codec", codec_name)
      .flag("--wifi", use_wifi)
      .flag("--rtcp", rtcp)
      .value("--metrics-out", metrics_out)
      .value("--series-out", series_out)
      .value("--trace-out", trace_out);
  // Flags start after <A>, so A stands in for the program name.
  if (!parse_flags(flags, argc - 1, argv + 1) || window_s < 0.0 || hold_s <= 0.0) {
    return usage();
  }
  config.scenario = loadgen::CallScenario::for_offered_load(offered, Duration::from_seconds(hold_s));
  config.scenario.placement_window = Duration::from_seconds(window_s);
  config.scenario.rtcp = rtcp;
  if (!codec_name.empty()) {
    const auto codec = rtp::codec_by_name(codec_name);
    if (!codec) {
      std::fprintf(stderr, "unknown codec\n");
      return 2;
    }
    config.scenario.codec = *codec;
    config.pbx.allowed_payload_types = {codec->payload_type};
  }
  if (use_wifi) config.wifi_cell = net::WifiCellConfig{};

  // Any export flag turns the telemetry subsystem on for this run; span
  // tracing only when a trace sink was actually requested (the ring costs
  // memory).
  const bool want_telemetry = !metrics_out.empty() || !series_out.empty() || !trace_out.empty();
  telemetry::Config tel_config;
  tel_config.tracing = !trace_out.empty();
  telemetry::Telemetry tel{tel_config};
  if (want_telemetry) config.telemetry = &tel;

  std::printf("simulating A = %.1f E (lambda %.3f/s, h %.0f s, window %.0f s, N = %u)...\n",
              config.scenario.offered_erlangs(), config.scenario.arrival_rate_per_s,
              config.scenario.hold_time.to_seconds(),
              config.scenario.placement_window.to_seconds(), config.pbx.max_channels);
  exp::WifiObservations wifi;
  const auto r = exp::run_testbed(config, &wifi);

  bool exports_ok = true;
  if (!metrics_out.empty()) {
    const std::string text = std::string_view{metrics_out}.ends_with(".json")
                                 ? telemetry::to_json(tel.registry())
                                 : telemetry::to_prometheus(tel.registry());
    exports_ok = util::write_file(metrics_out, text) && exports_ok;
  }
  if (!series_out.empty()) {
    exports_ok = util::write_file(series_out, tel.sampler().to_csv()) && exports_ok;
  }
  if (!trace_out.empty() && tel.tracer() != nullptr) {
    exports_ok =
        util::write_file(trace_out, telemetry::to_chrome_trace(*tel.tracer())) && exports_ok;
  }
  if (!exports_ok) return 1;
  std::printf("attempted %llu | completed %llu | blocked %llu (%.1f%%) | failed %llu\n",
              (unsigned long long)r.calls_attempted, (unsigned long long)r.calls_completed,
              (unsigned long long)r.calls_blocked, r.blocking_probability * 100.0,
              (unsigned long long)r.calls_failed);
  std::printf("peak channels %u/%u | CPU %s | MOS %.2f | loss %.2f%% | jitter %.2f ms\n",
              r.channels_peak, r.channels_configured, r.cpu_range_string().c_str(),
              r.mos.mean(), r.effective_loss.mean() * 100.0, r.jitter_ms.mean());
  std::printf("SIP %llu msgs (%llu errors) | RTP %llu pkts @ PBX\n",
              (unsigned long long)r.sip_total, (unsigned long long)r.sip_errors,
              (unsigned long long)r.rtp_packets_at_pbx);
  if (config.wifi_cell) {
    std::printf("wifi: medium %.0f%% busy, %llu frames, %llu queue drops, %llu radio drops\n",
                wifi.medium_utilization * 100.0, (unsigned long long)wifi.frames_forwarded,
                (unsigned long long)wifi.frames_dropped_queue,
                (unsigned long long)wifi.frames_dropped_radio);
  }
  std::printf("Erlang-B reference at N = %u: %.2f%%\n", r.channels_configured,
              erlang::erlang_b(Erlangs{r.offered_erlangs}, r.channels_configured) * 100.0);
  return 0;
}

int cmd_profile(int argc, char** argv) {
  const bool has_load = argc > 1 && argv[1][0] != '-';
  const double offered = has_load ? load(argv[1]) : 100.0;
  exp::TestbedConfig config;
  double window_s = loadgen::CallScenario{}.placement_window.to_seconds();
  unsigned top_n = 10;
  bool timing = false;
  std::string json_out, counters_out;
  util::Flags flags = run_flags(config, window_s);
  flags.value("--top", top_n)
      .flag("--timing", timing)
      .value("--json-out", json_out)
      .value("--counters-out", counters_out);
  if (!parse_flags(flags, has_load ? argc - 1 : argc, has_load ? argv + 1 : argv) ||
      window_s < 0.0) {
    return usage();
  }
  config.scenario = loadgen::CallScenario::for_offered_load(offered);
  config.scenario.placement_window = Duration::from_seconds(window_s);

  telemetry::Config tel_config;
  tel_config.tracing = false;
  tel_config.profiling = true;
  telemetry::Telemetry tel{tel_config};
  config.telemetry = &tel;

  std::printf("profiling A = %.1f E (window %.0f s, N = %u, seed %llu)...\n",
              config.scenario.offered_erlangs(),
              config.scenario.placement_window.to_seconds(), config.pbx.max_channels,
              (unsigned long long)config.seed);
  (void)exp::run_testbed(config);

  const telemetry::ProfileData data = tel.profiler()->snapshot();
  std::printf("%s", telemetry::top_table(data, top_n).c_str());
  bool exports_ok = true;
  if (!json_out.empty()) {
    exports_ok = util::write_file(json_out, telemetry::to_json(data, timing)) && exports_ok;
  }
  if (!counters_out.empty()) {
    exports_ok =
        util::write_file(counters_out, telemetry::to_chrome_counter_trace(*tel.profiler())) &&
        exports_ok;
  }
  return exports_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string_view cmd = argv[1];
  try {
    if (cmd == "erlang-b") return cmd_erlang_b(argc - 1, argv + 1);
    if (cmd == "erlang-c") return cmd_erlang_c(argc - 1, argv + 1);
    if (cmd == "engset") return cmd_engset(argc - 1, argv + 1);
    if (cmd == "dimension") return cmd_dimension(argc - 1, argv + 1);
    if (cmd == "mos") return cmd_mos(argc - 1, argv + 1);
    if (cmd == "simulate") return cmd_simulate(argc - 1, argv + 1);
    if (cmd == "profile") return cmd_profile(argc - 1, argv + 1);
  } catch (const BadArgument& bad) {
    std::fprintf(stderr, "bad number '%s'\n", bad.arg);
  } catch (const std::invalid_argument& e) {
    // A combination the model rejects, e.g. Engset with M <= A.
    std::fprintf(stderr, "%s\n", e.what());
  }
  return usage();
}
