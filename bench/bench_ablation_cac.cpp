// Ablation A4: admission policy — hard channel pool (the paper's Asterisk)
// vs predictive Erlang-B CAC (the paper's reference [8]).
//
// The hard pool serves every call it physically can, so its blocking tracks
// Erlang-B at N = 165. The predictive CAC trades carried load for a
// guaranteed grade of service: it starts shedding as soon as the measured
// offered load predicts blocking above its target, keeping peak channel
// occupancy (and therefore CPU headroom) well below the ceiling.
//
// Usage: bench_ablation_cac [--fast]

#include <cstdio>
#include <vector>

#include "exp/parallel.hpp"
#include "exp/testbed.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace pbxcap;

  bool fast = false;
  util::Flags{}.flag("--fast", fast).parse(argc, argv);

  std::printf("== Ablation A4: hard channel pool vs predictive Erlang CAC%s ==\n\n",
              fast ? " (fast mode)" : "");

  const std::vector<double> loads{120, 160, 200, 240};
  struct Job {
    double erlangs;
    bool predictive;
  };
  std::vector<Job> jobs;
  for (const double a : loads) {
    jobs.push_back({a, false});
    jobs.push_back({a, true});
  }
  std::vector<monitor::ExperimentReport> reports(jobs.size());

  exp::parallel_for(jobs.size(), exp::default_threads(), [&](std::size_t i) {
    exp::TestbedConfig config;
    config.scenario = loadgen::CallScenario::for_offered_load(jobs[i].erlangs);
    if (fast) config.scenario.placement_window = Duration::seconds(45);
    if (jobs[i].predictive) {
      config.pbx.admission = pbx::AdmissionPolicy::kErlangPredictive;
      config.pbx.cac.target_blocking = 0.02;
    }
    config.seed = 900 + i;
    reports[i] = exp::run_testbed(config);
  });

  util::TextTable table{{"A (E)", "policy", "blocked %", "peak channels", "carried calls",
                         "CPU (mean)", "MOS"}};
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& r = reports[i];
    table.add_row({util::format("%.0f", jobs[i].erlangs),
                   jobs[i].predictive ? "predictive CAC" : "hard pool",
                   util::format("%.1f%%", r.blocking_probability * 100.0),
                   util::format("%u", r.channels_peak),
                   util::format("%llu", (unsigned long long)r.calls_completed),
                   util::format("%.0f%%", r.cpu_utilization.mean() * 100.0),
                   r.mos.empty() ? std::string{"n/a"} : util::format("%.2f", r.mos.mean())});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Reading: below the knee the policies are indistinguishable. Under\n"
              "sustained overload the threshold CAC of [8] LATCHES: it keys on the\n"
              "*offered* load estimate, which rejected attempts keep elevated, so once\n"
              "the prediction crosses the target it sheds nearly everything -- peak\n"
              "occupancy and CPU collapse, but so do carried calls. A deployable\n"
              "variant must shed proportionally (admit with probability matching the\n"
              "excess), which is exactly the refinement the CAC literature after [8]\n"
              "pursues. The hard pool, by contrast, degrades gracefully to Erlang-B.\n");
  return 0;
}
