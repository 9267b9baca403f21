// Extension experiment: SIP overload collapse and RFC 6357-style control.
//
// The paper measures capacity up to saturation; this harness pushes past it.
// With the single-threaded SIP service model enabled, offered load is swept
// beyond the PBX's call-carrying capacity. Without control, the classic SIP
// congestion collapse appears: queueing delay crosses Timer A (500 ms), the
// caller's retransmissions multiply the arrival stream, the full-rejection
// path (reject_penalty) eats the worker, the service queue overflows, and
// goodput heads toward zero. With the 503 + Retry-After gate (PBX side) and
// exponential backoff (caller side), excess INVITEs are shed statelessly
// before they cost anything, and goodput stays pinned near capacity.
//
// Usage: bench_overload_collapse [--fast] [--json F] [--chaos F]
//   --fast  : two-point sweep, short window (CI smoke).
//   --json  : machine-readable goodput curve for perf tracking.
//   --chaos : instead of the sweep, run one short lossy + crash/restart
//             scenario (fault plan below) with telemetry, and write the
//             Prometheus snapshot + run summary to F. Byte-identical across
//             re-runs — CI runs it twice and cmp's the files.

#include <cstdio>
#include <string>
#include <vector>

#include "exp/parallel.hpp"
#include "exp/testbed.hpp"
#include "fault/plan.hpp"
#include "monitor/report.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace pbxcap;

// Small deterministic system so the sweep stays fast: 50 channels holding
// 10 s each carry at most 5 calls/s.
constexpr std::uint32_t kChannels = 50;
const Duration kHold = Duration::seconds(10);
constexpr double kCapacityCps = 5.0;  // kChannels / kHold

exp::TestbedConfig make_config(double load_cps, bool control, Duration window,
                               std::uint64_t seed) {
  exp::TestbedConfig config;
  config.scenario = loadgen::CallScenario::for_offered_load(
      load_cps * kHold.to_seconds(), kHold);
  config.scenario.placement_window = window;
  config.pbx.max_channels = kChannels;
  // Costs chosen so the worker saturates past ~2x offered load: the carried
  // stream alone costs ~0.6 s/s (5 c/s x 6 messages x 20 ms) and every full
  // rejection burns a further 80 ms — the paper's expensive error path.
  config.pbx.sip_service.enabled = true;
  config.pbx.sip_service.service_time = Duration::millis(20);
  config.pbx.sip_service.reject_penalty = Duration::millis(60);
  config.pbx.sip_service.queue_limit = 200;
  if (control) {
    config.pbx.overload.enabled = true;
    config.pbx.overload.queue_threshold = 8;
    config.pbx.overload.retry_after = Duration::seconds(2);
    config.scenario.retry.enabled = true;
  }
  // Horizon slack: Timer B (32 s) for the last INVITEs + BYE handshakes.
  config.drain = Duration::seconds(40);
  config.seed = seed;
  return config;
}

// The CI chaos scenario (the `chaos` gate row): a lossy access link, a
// momentary uplink blackout, a processing stall, and a crash/restart — all
// mid-overload.
constexpr const char* kChaosPlan =
    "# chaos smoke: lossy access + uplink blackout + stall + crash\n"
    "@5s  link client loss=0.05 jitter_mean=3ms jitter_stddev=1ms\n"
    "@12s link pbx blackout=on\n"
    "@13s link pbx blackout=off\n"
    "@18s pbx stall 500ms\n"
    "@24s pbx crash dead=4s\n"
    "@32s link client loss=0 jitter_mean=0ms jitter_stddev=0ms\n";

int run_chaos(const std::string& out_path) {
  const fault::FaultPlan plan = fault::FaultPlan::parse(kChaosPlan);
  telemetry::Telemetry tel{{}};

  exp::TestbedConfig config =
      make_config(2.0 * kCapacityCps, /*control=*/true, Duration::seconds(40), 4242);
  config.faults = &plan;
  config.telemetry = &tel;
  const monitor::ExperimentReport report = exp::run_testbed(config);

  std::string out = telemetry::to_prometheus(tel.registry());
  out += "# ---- chaos run summary ----\n";
  const auto line = [&out](const char* key, std::uint64_t v) {
    out += util::format("# %s %llu\n", key, static_cast<unsigned long long>(v));
  };
  line("calls_attempted", report.calls_attempted);
  line("calls_completed", report.calls_completed);
  line("calls_blocked", report.calls_blocked);
  line("calls_failed", report.calls_failed);
  line("calls_retried", report.calls_retried);
  line("overload_rejections", report.overload_rejections);
  line("sip_queue_dropped", report.sip_queue_dropped);
  line("sip_retransmissions", report.sip_retransmissions);
  line("link_dropped_impairment", report.link_dropped_impairment);

  std::printf("chaos: %llu attempted, %llu completed, %llu blocked, %llu failed, "
              "%llu 503-shed, %llu blackout drops\n",
              static_cast<unsigned long long>(report.calls_attempted),
              static_cast<unsigned long long>(report.calls_completed),
              static_cast<unsigned long long>(report.calls_blocked),
              static_cast<unsigned long long>(report.calls_failed),
              static_cast<unsigned long long>(report.overload_rejections),
              static_cast<unsigned long long>(report.link_dropped_impairment));
  if (report.link_dropped_impairment == 0) {
    std::fprintf(stderr, "chaos: expected the blackout to eat packets\n");
    return 1;
  }
  if (report.calls_attempted == 0 || report.calls_completed == 0) {
    std::fprintf(stderr, "chaos: degenerate run\n");
    return 1;
  }
  return util::write_file(out_path, out) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  std::string json_out, chaos_out;
  util::Flags{}
      .flag("--fast", fast)
      .value("--json", json_out)
      .value("--chaos", chaos_out)
      .parse(argc, argv);

  if (!chaos_out.empty()) return run_chaos(chaos_out);

  const Duration window = Duration::seconds(fast ? 60 : 120);
  const std::vector<double> factors =
      fast ? std::vector<double>{0.8, 3.0} : std::vector<double>{0.8, 1.5, 2.0, 3.0, 4.0};

  std::printf("== SIP overload collapse: goodput past capacity, control off vs on%s ==\n",
              fast ? " (fast mode)" : "");
  std::printf("capacity %.0f calls/s (%u channels, h = %.0f s), window %.0f s, "
              "SIP service 20 ms/msg + 60 ms reject penalty\n\n",
              kCapacityCps, kChannels, kHold.to_seconds(), window.to_seconds());

  // Jobs: [0, n) control off, [n, 2n) control on. Same seed per load so the
  // off/on pair sees the same arrival sequence.
  const std::size_t n = factors.size();
  std::vector<monitor::ExperimentReport> reports(2 * n);
  exp::parallel_for(reports.size(), exp::default_threads(), [&](std::size_t job) {
    const std::size_t load_idx = job % n;
    const bool control = job >= n;
    reports[job] = exp::run_testbed(make_config(factors[load_idx] * kCapacityCps, control,
                                                window, 4200 + 13 * load_idx));
  });

  const auto goodput = [&](const monitor::ExperimentReport& r) {
    return static_cast<double>(r.calls_completed) / window.to_seconds();
  };

  util::TextTable table{{"offered (x cap)", "goodput off (c/s)", "goodput on (c/s)",
                         "rtx off", "rtx on", "503 gate on", "retries on"}};
  for (std::size_t i = 0; i < n; ++i) {
    const auto& off = reports[i];
    const auto& on = reports[n + i];
    table.add_row({util::format("%.1f", factors[i]),
                   util::format("%.2f", goodput(off)),
                   util::format("%.2f", goodput(on)),
                   util::format("%llu", static_cast<unsigned long long>(off.sip_retransmissions)),
                   util::format("%llu", static_cast<unsigned long long>(on.sip_retransmissions)),
                   util::format("%llu", static_cast<unsigned long long>(on.overload_rejections)),
                   util::format("%llu", static_cast<unsigned long long>(on.calls_retried))});
  }
  std::printf("%s\n", table.to_string().c_str());

  util::TextTable diag{{"offered (x cap)", "mode", "attempted", "completed", "blocked",
                        "failed", "queue drops", "peak ch"}};
  for (std::size_t i = 0; i < n; ++i) {
    for (const bool control : {false, true}) {
      const auto& r = reports[control ? n + i : i];
      diag.add_row({util::format("%.1f", factors[i]), control ? "on" : "off",
                    util::format("%llu", static_cast<unsigned long long>(r.calls_attempted)),
                    util::format("%llu", static_cast<unsigned long long>(r.calls_completed)),
                    util::format("%llu", static_cast<unsigned long long>(r.calls_blocked)),
                    util::format("%llu", static_cast<unsigned long long>(r.calls_failed)),
                    util::format("%llu", static_cast<unsigned long long>(r.sip_queue_dropped)),
                    util::format("%u", r.channels_peak)});
    }
  }
  std::printf("%s\n", diag.to_string().c_str());

  // The two headline figures: how far goodput falls without control at the
  // deepest overload, and the worst sustained goodput with control on.
  const double off_worst = goodput(reports[n - 1]);
  double on_min_over = 1e9;
  for (std::size_t i = 0; i < n; ++i) {
    if (factors[i] >= 1.0) on_min_over = std::min(on_min_over, goodput(reports[n + i]));
  }
  std::printf("Reading: without control, goodput at %.1fx offered load is %.2f c/s "
              "(%.0f%% of capacity) — congestion collapse: retransmissions and the\n"
              "rejection path consume the SIP worker. With the 503 + Retry-After gate and\n"
              "caller backoff, the worst overloaded point still carries %.2f c/s "
              "(%.0f%% of capacity).\n",
              factors[n - 1], off_worst, 100.0 * off_worst / kCapacityCps, on_min_over,
              100.0 * on_min_over / kCapacityCps);

  if (!json_out.empty()) {
    std::string j = "{\n  \"bench\": \"overload_collapse\",\n";
    j += util::format("  \"capacity_cps\": %.3f,\n", kCapacityCps);
    j += util::format("  \"window_s\": %.0f,\n", window.to_seconds());
    const auto array = [&](const char* key, auto&& value_of) {
      j += util::format("  \"%s\": [", key);
      for (std::size_t i = 0; i < n; ++i) {
        j += value_of(i);
        if (i + 1 < n) j += ", ";
      }
      j += "],\n";
    };
    array("load_factors", [&](std::size_t i) { return util::format("%.2f", factors[i]); });
    array("goodput_off_cps", [&](std::size_t i) { return util::format("%.4f", goodput(reports[i])); });
    array("goodput_on_cps",
          [&](std::size_t i) { return util::format("%.4f", goodput(reports[n + i])); });
    array("retransmissions_off", [&](std::size_t i) {
      return util::format("%llu", static_cast<unsigned long long>(reports[i].sip_retransmissions));
    });
    array("retransmissions_on", [&](std::size_t i) {
      return util::format("%llu",
                          static_cast<unsigned long long>(reports[n + i].sip_retransmissions));
    });
    j += util::format("  \"goodput_on_worst_frac\": %.4f\n}\n", on_min_over / kCapacityCps);
    if (!util::write_file(json_out, j)) return 1;
  }

  // Acceptance: collapse visible without control; >= 80% of capacity with it.
  if (on_min_over < 0.8 * kCapacityCps) {
    std::fprintf(stderr, "FAIL: controlled goodput %.2f c/s < 80%% of capacity\n", on_min_over);
    return 1;
  }
  if (off_worst >= on_min_over) {
    std::fprintf(stderr, "FAIL: no collapse visible without control\n");
    return 1;
  }
  return 0;
}
