// Table I reproduction: the empirical method (Fig. 5) at offered loads
// A = 40..240 Erlangs, h = 120 s, 180 s placement window, G.711, through the
// full packet-level testbed.
//
// Paper reference (Table I):
//   A (E)        : 40      80      120     160     200     240
//   N used       : 42      ~82     ~123    ~160    ~165    ~165
//   CPU          : 15-20%  25-30%  30-35%  35-40%  45-50%  55-60%
//   MOS          : >4 everywhere
//   blocked      : 0%      0%      0%      6%      21%     29%
//   RTP msgs     : ~12,037 per 120 s call (100 pkt/s)
//
// Usage: bench_table1_empirical [--fast] [--metrics-out F] [--series-out F]
//                               [--trace-out F]
//   --fast        : quarter-scale placement window (45 s) for quick smoke runs.
//   --metrics-out : Prometheus text (or JSON when F ends in .json) snapshot of
//                   the A = 200 E replication-0 run.
//   --series-out  : per-second CSV series of the same run.
//   --trace-out   : Chrome trace-event JSON (Perfetto-loadable) of the same run.
//
// Telemetry is attached to exactly one job (A = 200 E, replication 0): the
// Telemetry object, like the Simulator, is per-run state and the jobs run on
// a thread pool.

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "core/erlang_b.hpp"
#include "exp/parallel.hpp"
#include "exp/testbed.hpp"
#include "monitor/report.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace pbxcap;

  bool fast = false;
  std::string metrics_out, series_out, trace_out;
  util::Flags{}
      .flag("--fast", fast)
      .value("--metrics-out", metrics_out)
      .value("--series-out", series_out)
      .value("--trace-out", trace_out)
      .parse(argc, argv);

  const std::vector<double> workloads{40, 80, 120, 160, 200, 240};
  const std::size_t replications = fast ? 1 : 3;
  std::vector<monitor::ExperimentReport> raw(workloads.size() * replications);

  const bool want_telemetry = !metrics_out.empty() || !series_out.empty() || !trace_out.empty();
  telemetry::Config tel_config;
  tel_config.tracing = !trace_out.empty();
  telemetry::Telemetry tel{tel_config};
  // A = 200 E is the paper's saturation point (21% blocked): the most
  // interesting load to put under the microscope.
  const std::size_t telemetry_job = 4 * replications;  // A = 200, replication 0

  std::printf("== Table I: empirical method, packet-level testbed%s ==\n",
              fast ? " (fast mode)" : "");
  std::printf("placing calls for %d s, h = 120 s, G.711 20 ms, PBX capacity 165 channels, "
              "%zu replication(s) per load\n\n",
              fast ? 45 : 180, replications);

  exp::parallel_for(raw.size(), exp::default_threads(), [&](std::size_t job) {
    exp::TestbedConfig config;
    config.scenario = loadgen::CallScenario::for_offered_load(workloads[job / replications]);
    if (fast) config.scenario.placement_window = Duration::seconds(45);
    config.seed = 1000 + 17 * job;
    if (want_telemetry && job == telemetry_job) config.telemetry = &tel;
    raw[job] = exp::run_testbed(config);
  });

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

  std::vector<monitor::ExperimentReport> reports(workloads.size());
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const std::vector<monitor::ExperimentReport> runs(
        raw.begin() + static_cast<std::ptrdiff_t>(i * replications),
        raw.begin() + static_cast<std::ptrdiff_t>((i + 1) * replications));
    reports[i] = monitor::merge_replications(runs);
  }

  std::printf("%s\n", monitor::make_table1(reports).to_string().c_str());

  std::printf("Blocking vs the Erlang-B prediction at the configured capacity:\n");
  for (const auto& r : reports) {
    std::printf("  A = %3.0f E : measured %5.1f%%   Erlang-B(N=%u) %5.1f%%\n",
                r.offered_erlangs, r.blocking_probability * 100.0, r.channels_configured,
                erlang::erlang_b(erlang::Erlangs{r.offered_erlangs}, r.channels_configured) *
                    100.0);
  }

  std::printf("\nRTP per completed call (paper: ~12,037 packets, 100 pkt/s):\n");
  for (const auto& r : reports) {
    if (r.calls_completed == 0) continue;
    // rtp_packets_at_pbx is a per-replication mean; calls_completed pooled.
    const double completed_per_rep =
        static_cast<double>(r.calls_completed) / static_cast<double>(replications);
    std::printf("  A = %3.0f E : %.0f packets/call\n", r.offered_erlangs,
                static_cast<double>(r.rtp_packets_at_pbx) / completed_per_rep);
  }
  return 0;
}
