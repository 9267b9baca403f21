// Telemetry overhead benchmark: proves the "disabled telemetry is one
// predictable branch per site" contract with numbers.
//
// One workload, self_scheduling: the RTP-sender event pattern from
// bench_perf_engine — a 20 µs self-rescheduling tick with one counter site,
// the purest view of per-event instrumentation cost. It runs with telemetry
// BARE (the identical loop with no instrumentation site at all), OFF (null
// handles — the default state of every instrumented component), ON (a live
// counter) and PROF (ON plus the event-engine profiler counting every
// simulator fire into its category slots).
//
// "off ovh" is the disabled-path branch cost against BARE (the ≤ 2% gate).
// "prof ovh" is the profiler's enabled cost relative to ON (the ≤ 5% gate);
// the profiler's DISABLED cost is already inside "off ovh" — it is the same
// null-pointer branch in the dispatch loop. Measurement rounds are
// interleaved across variants — each round runs every variant once, and the
// best (max) events/s per variant across rounds is kept — so host drift
// lands on all variants instead of penalizing whichever block would
// otherwise run last. Telemetry's cost on the Table-I macro workload is
// perfbench's `telemetry.overhead_pct` for that point.
//
// Usage: bench_telemetry_overhead [--fast] [--json FILE] [--repeats N]
//   --fast    : fewer events for smoke runs.
//   --json    : additionally write machine-readable results to FILE.
//   --repeats : override the round count (default 3, --fast 2) — archived
//               numbers on noisy hosts should use more.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

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
/// closure, measured under this harness so all variants share one
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

struct Row {
  double bare_eps;
  double off_eps;
  double on_eps;
  double prof_eps;  // telemetry on + event-engine profiler counting
  /// Disabled-path cost vs the uninstrumented control (the ≤ 2% gate).
  [[nodiscard]] double off_overhead_pct() const { return (1.0 - off_eps / bare_eps) * 100.0; }
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
  const int repeats =
      repeats_override > 0 ? static_cast<int>(repeats_override) : (fast ? 2 : 3);

  std::printf("== telemetry overhead (best of %d interleaved rounds per variant) ==\n\n", repeats);

  telemetry::Telemetry on;  // live registry
  telemetry::Config prof_cfg;
  prof_cfg.profiling = true;
  telemetry::Telemetry prof{prof_cfg};  // live registry + event profiler

  Row row{0.0, 0.0, 0.0, 0.0};
  // Round-interleaved: each round measures every variant once, so host
  // drift (thermal throttling, a noisy neighbour mid-run) lands on all
  // variants rather than systematically penalizing whichever block runs
  // last. Best-of across rounds then estimates each variant's unimpeded
  // throughput.
  for (int round = 0; round < repeats; ++round) {
    row.bare_eps = std::max(row.bare_eps, bare_events_per_s(tick_events, 1));
    row.off_eps = std::max(row.off_eps, self_scheduling_events_per_s(tick_events, nullptr, 1));
    row.on_eps = std::max(row.on_eps, self_scheduling_events_per_s(tick_events, &on, 1));
    row.prof_eps = std::max(
        row.prof_eps, self_scheduling_events_per_s(tick_events, &prof, 1, /*profiled=*/true));
  }

  std::printf("%-16s  %13s  %13s  %13s  %13s  %9s  %9s  %9s\n", "workload", "bare (ev/s)",
              "off (ev/s)", "on (ev/s)", "prof (ev/s)", "off ovh", "on ovh", "prof ovh");
  std::printf("%-16s  %13.0f  %13.0f  %13.0f  %13.0f  %8.2f%%  %8.2f%%  %8.2f%%\n",
              "self_scheduling", row.bare_eps, row.off_eps, row.on_eps, row.prof_eps,
              row.off_overhead_pct(), row.on_overhead_pct(), row.prof_overhead_pct());

  if (!json_out.empty()) {
    const std::string out = util::format(
        "{\"benchmarks\":[{\"name\":\"self_scheduling\",\"bare_events_per_s\":%.0f,"
        "\"off_overhead_pct\":%.3f,\"off_events_per_s\":%.0f,\"on_events_per_s\":%.0f,"
        "\"on_overhead_pct\":%.3f,\"profiler_on_events_per_s\":%.0f,"
        "\"profiler_overhead_pct\":%.3f}]}\n",
        row.bare_eps, row.off_overhead_pct(), row.off_eps, row.on_eps, row.on_overhead_pct(),
        row.prof_eps, row.prof_overhead_pct());
    if (!util::write_file(json_out, out)) return 1;
  }
  return 0;
}
