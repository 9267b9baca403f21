// Erlang-C / Erlang-A validation sweep for the ACD subsystem.
//
// The paper dimensions a loss system (Erlang-B); the cited Angus tutorial
// covers the queued sibling. With every offered call routed at an ACD queue
// the testbed becomes an M/M/N queue on the agent pool, so:
//
//   * patient callers (PatienceModel::kNone) must track Erlang-C: measured
//     P(wait) = queued/offered and E[W] = mean wait over all calls against
//     erlang_c() / erlang_c_mean_wait(), rho = 0.4 .. 0.9;
//   * impatient callers (kExponential patience) are the M/M/N+M system, so
//     measured abandonment, wait probability and mean wait must sit inside
//     the erlang_a() brackets — including the overloaded rho > 1 points
//     where abandonment is what keeps the queue finite;
//   * one deterministic-patience point is reported (not gated): Erlang-A
//     assumes exponential patience, so the deviation there is the model
//     error, not a simulator bug.
//
// Every gate failure flips the exit status to nonzero, so CI runs this
// binary directly (the `acd` row of tools/bench_gates.sh does, with --fast).
//
// Usage: bench_erlang_c_queue [--fast] [--json F]
//   --fast : short windows, one replication, reduced rho grid.
//   --json : machine-readable rows (BENCH_erlang_ca.json); deterministic
//            per seed, so CI byte-compares two runs.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/erlang_a.hpp"
#include "core/erlang_c.hpp"
#include "exp/parallel.hpp"
#include "exp/testbed.hpp"
#include "monitor/report.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace pbxcap;

constexpr std::uint32_t kAgents = 8;
const Duration kHold = Duration::seconds(20);
const Duration kPatience = Duration::seconds(30);
// An agent is committed from dispatch until bridge teardown, so its service
// time is the caller's hold plus the leg-B signalling ladder (100/180, the
// callee's 200 ms answer delay, 200/ACK, BYE) — the same ~0.21 s the old
// setup-time bench charged as kSignallingS. The analytic side sees this
// effective service time; without it every high-rho row reads ~1% hot.
const Duration kHoldEff = kHold + Duration::millis(210);

struct Point {
  double rho;
  pbx::PatienceModel patience;
  bool gated;  // deterministic-patience points are reported, not gated
};

monitor::ExperimentReport run_point(const Point& p, bool fast, std::uint64_t seed) {
  exp::TestbedConfig config;
  config.scenario = loadgen::CallScenario::for_offered_load(p.rho * kAgents, kHold);
  config.scenario.hold_model = sim::HoldTimeModel::kExponential;
  config.scenario.placement_window = Duration::seconds(fast ? 900 : 2400);
  config.scenario.acd.fraction = 1.0;  // every call dials queue-support
  config.scenario.acd.queue = "support";
  // Agents are the bottleneck: the channel pool must never bind, or the
  // measurement would mix Erlang-B blocking into the delay system.
  config.pbx.max_channels = 64;
  config.pbx.acd.enabled = true;
  config.pbx.acd.queues = {pbx::AcdQueueConfig{
      .name = "support",
      .strategy = pbx::RingStrategy::kLeastRecent,
      .agents = {pbx::AcdAgentSpec{.count = kAgents}},
      .max_queue_length = 4096,  // effectively infinite waiting room
      .patience = p.patience,
      .patience_mean = kPatience,
  }};
  // Let the backlog flush after arrivals stop: truncating the longest waits
  // at the end of the run would bias E[W] low at high utilization.
  config.drain = Duration::seconds(fast ? 120 : 300);
  config.seed = seed;
  return exp::run_testbed(config);
}

struct Gate {
  std::string name;
  double measured;
  double analytic;
  double tolerance;  // |measured - analytic| bound; <0 = report-only
  [[nodiscard]] bool pass() const {
    return tolerance < 0.0 || std::abs(measured - analytic) <= tolerance;
  }
};

struct Row {
  Point point;
  monitor::ExperimentReport report;
  std::vector<Gate> gates;
  [[nodiscard]] bool all_pass() const {
    for (const Gate& g : gates) {
      if (!g.pass()) return false;
    }
    return true;
  }
};

const char* patience_name(pbx::PatienceModel m) {
  switch (m) {
    case pbx::PatienceModel::kNone: return "patient";
    case pbx::PatienceModel::kExponential: return "exp-patience";
    case pbx::PatienceModel::kDeterministic: return "det-patience";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  std::string json_out;
  util::Flags{}.flag("--fast", fast).value("--json", json_out).parse(argc, argv);

  std::printf("== Erlang-C / Erlang-A validation: ACD queue vs the analytic models%s ==\n",
              fast ? " (fast mode)" : "");
  std::printf("   M/M/%u on the agent pool, h = %.0f s, patience = Exp(%.0f s)\n\n", kAgents,
              kHold.to_seconds(), kPatience.to_seconds());

  std::vector<Point> points;
  const std::vector<double> patient_rhos = fast ? std::vector<double>{0.7}
                                                : std::vector<double>{0.4, 0.7, 0.9};
  const std::vector<double> abandon_rhos =
      fast ? std::vector<double>{0.9, 1.2} : std::vector<double>{0.4, 0.7, 0.9, 1.05, 1.2};
  for (double rho : patient_rhos) points.push_back({rho, pbx::PatienceModel::kNone, true});
  for (double rho : abandon_rhos) points.push_back({rho, pbx::PatienceModel::kExponential, true});
  points.push_back({1.05, pbx::PatienceModel::kDeterministic, false});

  // High utilizations have long queue relaxation times: pool replications of
  // a long window so the steady state dominates the measured ratios.
  const std::size_t reps = fast ? 2 : 3;
  std::vector<monitor::ExperimentReport> raw(points.size() * reps);
  exp::parallel_for(raw.size(), exp::default_threads(), [&](std::size_t job) {
    raw[job] = run_point(points[job / reps], fast, 1300 + 31 * job);
  });

  std::vector<Row> rows;
  bool ok = true;
  for (std::size_t i = 0; i < points.size(); ++i) {
    Row row;
    row.point = points[i];
    row.report = monitor::merge_replications(
        {raw.begin() + static_cast<std::ptrdiff_t>(i * reps),
         raw.begin() + static_cast<std::ptrdiff_t>((i + 1) * reps)});
    const auto& acd = row.report.acd;
    const double offered = static_cast<double>(acd.offered);
    // lambda = rho * N / h; offered load on the agents uses the effective
    // (hold + signalling) service time.
    const erlang::Erlangs a{row.point.rho * kAgents * kHoldEff.to_seconds() /
                            kHold.to_seconds()};

    const double m_wait_p = offered > 0 ? static_cast<double>(acd.queued) / offered : 0.0;
    const double m_wait_s = acd.wait_s.mean();
    const double m_abandon = offered > 0 ? static_cast<double>(acd.abandoned) / offered : 0.0;

    // Tolerances: relative slack for the finite-sample / finite-window error
    // (autocorrelated waits converge slowly near saturation) plus a small
    // absolute floor so near-zero analytic values don't demand zero noise.
    // Report-only points get tolerance -1.
    const double scale = fast ? 2.0 : 1.0;  // short single replications are noisier
    // Near saturation one placement window spans only ~(1-rho)^-2 hold times
    // of relaxation, so the pooled E[W] estimate still carries O(30%)
    // sampling error; widen that bound rather than pretending a precision
    // the run length cannot deliver (P(wait) converges much faster and
    // keeps the tight gate).
    const double relw = row.point.rho >= 0.85 ? 0.40 : 0.20;
    const bool gated = row.point.gated;
    if (row.point.patience == pbx::PatienceModel::kNone) {
      const double c = erlang::erlang_c(a, kAgents);
      const double w = erlang::erlang_c_mean_wait(a, kAgents, kHoldEff).to_seconds();
      row.gates.push_back({"P(wait)", m_wait_p, c, gated ? scale * (0.15 * c + 0.02) : -1.0});
      row.gates.push_back({"E[W] s", m_wait_s, w, gated ? scale * (relw * w + 0.5) : -1.0});
    } else {
      const erlang::ErlangAResult ea = erlang::erlang_a(a, kAgents, kHoldEff, kPatience);
      const double tol_p = scale * (0.15 * ea.wait_probability + 0.02);
      const double tol_ab = scale * (0.20 * ea.abandon_probability + 0.01);
      const double tol_w = scale * (relw * ea.mean_wait.to_seconds() + 0.5);
      row.gates.push_back(
          {"P(wait)", m_wait_p, ea.wait_probability, gated ? tol_p : -1.0});
      row.gates.push_back(
          {"P(abandon)", m_abandon, ea.abandon_probability, gated ? tol_ab : -1.0});
      row.gates.push_back(
          {"E[W] s", m_wait_s, ea.mean_wait.to_seconds(), gated ? tol_w : -1.0});
    }
    ok = ok && row.all_pass();
    rows.push_back(std::move(row));
  }

  util::TextTable table{{"model", "rho", "offered", "queued", "served", "abandoned", "gate",
                         "measured", "analytic", "verdict"}};
  for (const Row& row : rows) {
    for (std::size_t gi = 0; gi < row.gates.size(); ++gi) {
      const Gate& g = row.gates[gi];
      const bool first = gi == 0;
      table.add_row({first ? patience_name(row.point.patience) : "",
                     first ? util::format("%.2f", row.point.rho) : "",
                     first ? util::format("%llu", (unsigned long long)row.report.acd.offered) : "",
                     first ? util::format("%llu", (unsigned long long)row.report.acd.queued) : "",
                     first ? util::format("%llu", (unsigned long long)row.report.acd.served) : "",
                     first ? util::format("%llu", (unsigned long long)row.report.acd.abandoned)
                           : "",
                     g.name, util::format("%.4f", g.measured), util::format("%.4f", g.analytic),
                     g.tolerance < 0.0 ? "report-only"
                                       : (g.pass() ? "ok" : "** OUT OF TOLERANCE **")});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Reading: patient rows are the M/M/%u Erlang-C cross-check; exp-patience rows\n"
      "are Erlang-A (M/M/%u+M), stable even at rho > 1 because abandonment bounds the\n"
      "queue. The det-patience row shows the (expected) deviation when the patience\n"
      "distribution breaks Erlang-A's exponential assumption.\n",
      kAgents, kAgents);

  if (!json_out.empty()) {
    std::string json = "[\n";
    for (std::size_t ri = 0; ri < rows.size(); ++ri) {
      const Row& row = rows[ri];
      const auto& acd = row.report.acd;
      json += util::format(
          "  {\"model\": \"%s\", \"rho\": %.2f, \"agents\": %u, \"hold_s\": %.0f, "
          "\"patience_s\": %.0f,\n"
          "   \"offered\": %llu, \"queued\": %llu, \"served\": %llu, \"abandoned\": %llu, "
          "\"announcements\": %llu, \"pass\": %s,\n"
          "   \"gates\": [\n",
          patience_name(row.point.patience), row.point.rho, kAgents, kHold.to_seconds(),
          kPatience.to_seconds(), (unsigned long long)acd.offered, (unsigned long long)acd.queued,
          (unsigned long long)acd.served, (unsigned long long)acd.abandoned,
          (unsigned long long)acd.announcements, row.all_pass() ? "true" : "false");
      for (std::size_t gi = 0; gi < row.gates.size(); ++gi) {
        const Gate& g = row.gates[gi];
        json += util::format(
            "    {\"name\": \"%s\", \"measured\": %.9g, \"analytic\": %.9g, "
            "\"tolerance\": %.9g, \"pass\": %s}%s\n",
            g.name.c_str(), g.measured, g.analytic, g.tolerance, g.pass() ? "true" : "false",
            gi + 1 < row.gates.size() ? "," : "");
      }
      json += ri + 1 < rows.size() ? "  ]},\n" : "  ]}\n";
    }
    json += "]\n";
    if (!util::write_file(json_out, json)) return 1;
  }

  std::printf("\n%s\n", ok ? "ALL GATES PASS" : "GATE FAILURE");
  return ok ? 0 : 1;
}
