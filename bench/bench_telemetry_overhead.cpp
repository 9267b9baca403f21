// Telemetry overhead benchmark: proves the "disabled telemetry is one
// predictable branch per site" contract with numbers.
//
// Two workloads, each run with telemetry OFF (null handles — the default
// state of every instrumented component), ON (live counters, sampler, span
// ring), and PROF (ON plus the event-engine profiler counting every
// simulator fire into its category slots):
//
//   self_scheduling : the RTP-sender event pattern from bench_perf_engine —
//                     a 20 µs self-rescheduling tick with one counter site,
//                     the purest view of per-event instrumentation cost.
//   table1_fast     : one full packet-level testbed run at A = 200 E with the
//                     Table-I --fast placement window (45 s) — the macro
//                     workload the acceptance criterion is written against.
//
// The micro workload additionally runs a BARE variant — the identical loop
// with no instrumentation site at all — so the disabled-path branch cost
// ("off ovh", the ≤ 2% gate) is measured under one methodology rather than
// across harnesses. Measurement rounds are interleaved across variants —
// each round runs every variant once, and the best (max) events/s per
// variant across rounds is kept — so host drift lands on all variants
// instead of penalizing whichever block would otherwise run last. For the
// macro workload no uninstrumented control exists in this harness (the
// same Table-I point is timed end to end by perfbench's table1-packet), so
// its bare/off-overhead fields are omitted rather than reported as 0.
// The "prof ovh" column is the profiler's enabled cost relative to the
// telemetry-on baseline (the ≤ 5% gate); the profiler's DISABLED cost is
// already inside "off ovh" — it is the same null-pointer branch in the
// dispatch loop.
//
// Usage: bench_telemetry_overhead [--fast] [--json FILE] [--repeats N]
//   --fast    : fewer events / shorter window for smoke runs.
//   --json    : additionally write machine-readable results to FILE.
//   --repeats : override the round count (default 3, --fast 2) — archived
//               numbers on noisy hosts should use more.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "exp/testbed.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

namespace {

using namespace pbxcap;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// The never-instrumented control: the exact BM_SimulatorSelfScheduling
/// closure, measured under this harness so all three variants share one
/// methodology.
struct BareTick {
  sim::Simulator* simulator;
  std::int64_t* remaining;
  void operator()() const {
    if (--*remaining > 0) simulator->schedule_in(Duration::micros(20), *this);
  }
};
static_assert(sim::Callback::stores_inline<BareTick>());

/// One counter site in a self-scheduling 20 µs tick — the rtp::Stream
/// emit_one() shape. `counter == nullptr` is the telemetry-off path.
struct Tick {
  sim::Simulator* simulator;
  std::int64_t* remaining;
  telemetry::Counter* counter;
  void operator()() const {
    if (counter != nullptr) counter->add();
    if (--*remaining > 0) simulator->schedule_in(Duration::micros(20), *this);
  }
};
static_assert(sim::Callback::stores_inline<Tick>());

double bare_events_per_s(std::int64_t events, int repeats) {
  double best = 0.0;
  for (int rep = 0; rep < repeats; ++rep) {
    sim::Simulator simulator;
    std::int64_t remaining = events;
    const auto start = std::chrono::steady_clock::now();
    simulator.schedule_in(Duration::micros(20), BareTick{&simulator, &remaining});
    simulator.run();
    const double elapsed = seconds_since(start);
    best = std::max(best, static_cast<double>(simulator.events_processed()) / elapsed);
  }
  return best;
}

double self_scheduling_events_per_s(std::int64_t events, telemetry::Telemetry* tel, int repeats,
                                    bool profiled = false) {
  double best = 0.0;
  for (int rep = 0; rep < repeats; ++rep) {
    telemetry::Counter* counter = nullptr;
    if (tel != nullptr) {
      counter = &tel->registry().counter("bench_ticks_total", {{"rep", util::format("%d", rep)}},
                                         "Self-scheduling tick count");
    }
    sim::Simulator simulator;
    if (profiled && tel != nullptr && tel->profiler() != nullptr) {
      tel->profiler()->attach(simulator);
    }
    std::int64_t remaining = events;
    const auto start = std::chrono::steady_clock::now();
    simulator.schedule_in(Duration::micros(20), Tick{&simulator, &remaining, counter});
    simulator.run();
    const double elapsed = seconds_since(start);
    if (profiled && tel != nullptr && tel->profiler() != nullptr) {
      tel->profiler()->detach();  // frees the simulator for the next rep
    }
    best = std::max(best, static_cast<double>(simulator.events_processed()) / elapsed);
  }
  return best;
}

enum class Variant { kOff, kOn, kProf };

double testbed_events_per_s(Variant variant, Duration window, int repeats) {
  double best = 0.0;
  for (int rep = 0; rep < repeats; ++rep) {
    // Fresh Telemetry per run, like run_testbed's contract demands; its
    // registration cost is part of what we measure.
    telemetry::Config tel_cfg;
    tel_cfg.profiling = variant == Variant::kProf;
    telemetry::Telemetry tel{tel_cfg};
    exp::TestbedConfig config;
    config.scenario = loadgen::CallScenario::for_offered_load(200.0);
    config.scenario.placement_window = window;
    config.seed = 1;
    if (variant != Variant::kOff) config.telemetry = &tel;
    const auto start = std::chrono::steady_clock::now();
    const auto report = exp::run_testbed(config);
    const double elapsed = seconds_since(start);
    best = std::max(best, static_cast<double>(report.events_processed) / elapsed);
  }
  return best;
}

struct Row {
  const char* name;
  double bare_eps;  // 0 when no uninstrumented control exists for the workload
  double off_eps;
  double on_eps;
  double prof_eps;  // telemetry on + event-engine profiler counting
  [[nodiscard]] bool has_bare() const { return bare_eps > 0.0; }
  /// Disabled-path cost vs the uninstrumented control (the ≤ 2% gate).
  /// Meaningless (and omitted from output) when no bare control exists.
  [[nodiscard]] double off_overhead_pct() const {
    return has_bare() ? (1.0 - off_eps / bare_eps) * 100.0 : 0.0;
  }
  [[nodiscard]] double on_overhead_pct() const { return (1.0 - on_eps / off_eps) * 100.0; }
  /// Profiler-enabled cost vs the telemetry-on baseline (the ≤ 5% gate).
  [[nodiscard]] double prof_overhead_pct() const { return (1.0 - prof_eps / on_eps) * 100.0; }
};

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  std::string json_out;
  unsigned repeats_override = 0;
  util::Flags{}
      .flag("--fast", fast)
      .value("--json", json_out)
      .value("--repeats", repeats_override)
      .parse(argc, argv);

  const std::int64_t tick_events = fast ? 500'000 : 2'000'000;
  const Duration window = Duration::seconds(fast ? 15 : 45);
  const int repeats =
      repeats_override > 0 ? static_cast<int>(repeats_override) : (fast ? 2 : 3);

  std::printf("== telemetry overhead (best of %d interleaved rounds per variant) ==\n\n", repeats);

  telemetry::Telemetry on;  // live registry for the micro workload
  telemetry::Config prof_cfg;
  prof_cfg.profiling = true;
  telemetry::Telemetry prof{prof_cfg};  // live registry + event profiler

  Row rows[2] = {
      {"self_scheduling", 0.0, 0.0, 0.0, 0.0},
      // For the macro workload the telemetry=nullptr run IS the disabled
      // path; the end-to-end timing of that point is perfbench's
      // table1-packet, so bare is absent here.
      {"table1_fast", 0.0, 0.0, 0.0, 0.0},
  };
  // Round-interleaved: each round measures every variant once, so host
  // drift (thermal throttling, a noisy neighbour mid-run) lands on all
  // variants rather than systematically penalizing whichever block runs
  // last. Best-of across rounds then estimates each variant's unimpeded
  // throughput.
  for (int round = 0; round < repeats; ++round) {
    rows[0].bare_eps = std::max(rows[0].bare_eps, bare_events_per_s(tick_events, 1));
    rows[0].off_eps =
        std::max(rows[0].off_eps, self_scheduling_events_per_s(tick_events, nullptr, 1));
    rows[0].on_eps = std::max(rows[0].on_eps, self_scheduling_events_per_s(tick_events, &on, 1));
    rows[0].prof_eps = std::max(
        rows[0].prof_eps, self_scheduling_events_per_s(tick_events, &prof, 1, /*profiled=*/true));
    rows[1].off_eps = std::max(rows[1].off_eps, testbed_events_per_s(Variant::kOff, window, 1));
    rows[1].on_eps = std::max(rows[1].on_eps, testbed_events_per_s(Variant::kOn, window, 1));
    rows[1].prof_eps = std::max(rows[1].prof_eps, testbed_events_per_s(Variant::kProf, window, 1));
  }

  std::printf("%-16s  %13s  %13s  %13s  %13s  %9s  %9s  %9s\n", "workload", "bare (ev/s)",
              "off (ev/s)", "on (ev/s)", "prof (ev/s)", "off ovh", "on ovh", "prof ovh");
  for (const Row& row : rows) {
    const std::string bare =
        row.has_bare() ? util::format("%13.0f", row.bare_eps) : util::format("%13s", "-");
    const std::string off_ovh = row.has_bare()
                                    ? util::format("%8.2f%%", row.off_overhead_pct())
                                    : util::format("%9s", "-");
    std::printf("%-16s  %s  %13.0f  %13.0f  %13.0f  %s  %8.2f%%  %8.2f%%\n", row.name,
                bare.c_str(), row.off_eps, row.on_eps, row.prof_eps, off_ovh.c_str(),
                row.on_overhead_pct(), row.prof_overhead_pct());
  }

  if (!json_out.empty()) {
    std::string out{"{\"benchmarks\":["};
    for (std::size_t i = 0; i < 2; ++i) {
      if (i != 0) out += ',';
      out += pbxcap::util::format("{\"name\":\"%s\"", rows[i].name);
      if (rows[i].has_bare()) {
        // No bare control -> no bare/off-overhead fields (previously these
        // were emitted as 0, which read as "zero measured overhead").
        out += pbxcap::util::format(",\"bare_events_per_s\":%.0f,\"off_overhead_pct\":%.3f",
                                    rows[i].bare_eps, rows[i].off_overhead_pct());
      }
      out += pbxcap::util::format(
          ",\"off_events_per_s\":%.0f,\"on_events_per_s\":%.0f,\"on_overhead_pct\":%.3f,"
          "\"profiler_on_events_per_s\":%.0f,\"profiler_overhead_pct\":%.3f}",
          rows[i].off_eps, rows[i].on_eps, rows[i].on_overhead_pct(), rows[i].prof_eps,
          rows[i].prof_overhead_pct());
    }
    out += "]}\n";
    if (!util::write_file(json_out, out)) return 1;
  }
  return 0;
}
