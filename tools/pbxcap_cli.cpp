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

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

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

int cmd_erlang_b(const std::vector<std::string>& args) {
  if (args.size() == 3 && args[0] == "--channels") {
    const double a = std::atof(args[1].c_str());
    const double pb = std::atof(args[2].c_str());
    std::printf("A = %g E at P_b <= %g  =>  N = %u channels\n", a, pb,
                erlang::channels_for_blocking(Erlangs{a}, pb));
    return 0;
  }
  if (args.size() == 3 && args[0] == "--load") {
    const auto n = static_cast<std::uint32_t>(std::atoi(args[1].c_str()));
    const double pb = std::atof(args[2].c_str());
    std::printf("N = %u at P_b <= %g  =>  A_max = %.3f Erlangs\n", n, pb,
                erlang::offered_load_for_blocking(n, pb).value());
    return 0;
  }
  if (args.size() == 2) {
    const double a = std::atof(args[0].c_str());
    const auto n = static_cast<std::uint32_t>(std::atoi(args[1].c_str()));
    std::printf("Erlang-B: A = %g E, N = %u  =>  P_b = %.4f%%, carried = %.2f E\n", a, n,
                erlang::erlang_b(Erlangs{a}, n) * 100.0, erlang::carried_traffic(Erlangs{a}, n));
    return 0;
  }
  return usage();
}

int cmd_erlang_c(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  const double a = std::atof(args[0].c_str());
  const auto n = static_cast<std::uint32_t>(std::atoi(args[1].c_str()));
  const double hold_s = args.size() > 2 ? std::atof(args[2].c_str()) : 180.0;
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

int cmd_engset(const std::vector<std::string>& args) {
  if (args.size() != 3) return usage();
  const double a = std::atof(args[0].c_str());
  const auto m = static_cast<std::uint32_t>(std::atoi(args[1].c_str()));
  const auto n = static_cast<std::uint32_t>(std::atoi(args[2].c_str()));
  std::printf("Engset: A = %g E over M = %u sources, N = %u  =>  P_b = %.4f%%  "
              "(Erlang-B: %.4f%%)\n",
              a, m, n, erlang::engset_blocking_total(Erlangs{a}, m, n) * 100.0,
              erlang::erlang_b(Erlangs{a}, n) * 100.0);
  return 0;
}

int cmd_dimension(const std::vector<std::string>& args) {
  if (args.size() != 3) return usage();
  const double calls = std::atof(args[0].c_str());
  const double minutes = std::atof(args[1].c_str());
  const double pb = std::atof(args[2].c_str());
  const erlang::Workload w{calls, Duration::from_seconds(minutes * 60.0)};
  const std::uint32_t n = erlang::dimension_channels(w, pb);
  const auto point = erlang::evaluate_capacity(w, n);
  std::printf("%.0f calls/h x %.1f min = %.1f Erlangs offered\n", calls, minutes,
              point.offered.value());
  std::printf("P_b <= %g  =>  N = %u channels (actual P_b %.3f%%, carried %.1f E)\n", pb, n,
              point.blocking_probability * 100.0, point.carried_erlangs);
  return 0;
}

int cmd_mos(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  const double loss = std::atof(args[0].c_str()) / 100.0;
  const double delay_ms = std::atof(args[1].c_str());
  const auto codec = rtp::codec_by_name(args.size() > 2 ? args[2] : "PCMU");
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

int cmd_simulate(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  exp::TestbedConfig config;
  config.scenario = loadgen::CallScenario::for_offered_load(std::atof(args[0].c_str()));
  std::string metrics_out, series_out, trace_out;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return args[++i];
    };
    if (args[i] == "--channels") {
      config.pbx.max_channels = static_cast<std::uint32_t>(std::atoi(next("--channels").c_str()));
    } else if (args[i] == "--seed") {
      config.seed = static_cast<std::uint64_t>(std::atoll(next("--seed").c_str()));
    } else if (args[i] == "--window") {
      config.scenario.placement_window =
          Duration::from_seconds(std::atof(next("--window").c_str()));
    } else if (args[i] == "--hold") {
      const double hold_s = std::atof(next("--hold").c_str());
      const double a = config.scenario.offered_erlangs();
      config.scenario.hold_time = Duration::from_seconds(hold_s);
      config.scenario.arrival_rate_per_s = a / hold_s;
    } else if (args[i] == "--codec") {
      const auto codec = rtp::codec_by_name(next("--codec"));
      if (!codec) {
        std::fprintf(stderr, "unknown codec\n");
        return 2;
      }
      config.scenario.codec = *codec;
      config.pbx.allowed_payload_types = {codec->payload_type};
    } else if (args[i] == "--wifi") {
      config.wifi_cell = net::WifiCellConfig{};
    } else if (args[i] == "--rtcp") {
      config.scenario.rtcp = true;
    } else if (args[i] == "--metrics-out") {
      metrics_out = next("--metrics-out");
    } else if (args[i] == "--series-out") {
      series_out = next("--series-out");
    } else if (args[i] == "--trace-out") {
      trace_out = next("--trace-out");
    } else {
      std::fprintf(stderr, "unknown option %s\n", args[i].c_str());
      return 2;
    }
  }

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

int cmd_profile(const std::vector<std::string>& args) {
  exp::TestbedConfig config;
  std::size_t first_flag = 0;
  double offered = 100.0;
  if (!args.empty() && args[0][0] != '-') {
    offered = std::atof(args[0].c_str());
    first_flag = 1;
  }
  config.scenario = loadgen::CallScenario::for_offered_load(offered);
  std::size_t top_n = 10;
  bool timing = false;
  std::string json_out, counters_out;
  for (std::size_t i = first_flag; i < args.size(); ++i) {
    const auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return args[++i];
    };
    if (args[i] == "--channels") {
      config.pbx.max_channels = static_cast<std::uint32_t>(std::atoi(next("--channels").c_str()));
    } else if (args[i] == "--seed") {
      config.seed = static_cast<std::uint64_t>(std::atoll(next("--seed").c_str()));
    } else if (args[i] == "--window") {
      config.scenario.placement_window =
          Duration::from_seconds(std::atof(next("--window").c_str()));
    } else if (args[i] == "--top") {
      top_n = static_cast<std::size_t>(std::atoi(next("--top").c_str()));
    } else if (args[i] == "--timing") {
      timing = true;
    } else if (args[i] == "--json-out") {
      json_out = next("--json-out");
    } else if (args[i] == "--counters-out") {
      counters_out = next("--counters-out");
    } else {
      std::fprintf(stderr, "unknown option %s\n", args[i].c_str());
      return 2;
    }
  }

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
  const std::string cmd = argv[1];
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);
  if (cmd == "erlang-b") return cmd_erlang_b(args);
  if (cmd == "erlang-c") return cmd_erlang_c(args);
  if (cmd == "engset") return cmd_engset(args);
  if (cmd == "dimension") return cmd_dimension(args);
  if (cmd == "mos") return cmd_mos(args);
  if (cmd == "simulate") return cmd_simulate(args);
  if (cmd == "profile") return cmd_profile(args);
  return usage();
}
