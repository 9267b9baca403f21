// Figure 6 reproduction: empirical blocking probability vs offered load,
// bracketed by the Erlang-B model at N = 160, 165, 170.
//
// Paper reference (Fig. 6): the measured curve rises from ~0 below 140 E and
// tracks the Erlang-B family; the fit suggests the server behaves like an
// N ~ 165-channel loss system.
//
// Usage: bench_fig6_empirical_vs_model [--fast]
//   --fast : fewer load points and a 45 s placement window.

#include <cstdio>
#include <vector>

#include "exp/paper.hpp"
#include "exp/sweep.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace pbxcap;

  bool fast = false;
  util::Flags{}.flag("--fast", fast).parse(argc, argv);

  exp::SweepConfig sweep;
  sweep.base.seed = 2025;
  if (fast) {
    sweep.base.scenario.placement_window = Duration::seconds(45);
    sweep.erlangs = {40, 120, 160, 200, 240};
    sweep.replications = 2;
  } else {
    sweep.erlangs = {40, 80, 120, 140, 150, 160, 170, 180, 200, 220, 240};
    sweep.replications = 3;
  }

  std::printf("== Figure 6: empirical vs Erlang-B (N in {160, 165, 170})%s ==\n",
              fast ? " (fast mode)" : "");
  std::printf("%zu load points x %u replications, packet-level testbed\n\n",
              sweep.erlangs.size(), sweep.replications);

  const auto points = exp::run_blocking_sweep(sweep);
  const auto table = exp::fig6_empirical_vs_model(points, {160, 165, 170});
  std::printf("%s\n", table.to_string().c_str());

  // Where does blocking cross 5%? The paper reads "more than 160 concurrent
  // calls with blocking below 5%" off this figure.
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i - 1].blocking_mean() < 0.05 && points[i].blocking_mean() >= 0.05) {
      std::printf("5%% blocking crossover between A = %.0f and %.0f Erlangs "
                  "(paper: just above 160 E)\n",
                  points[i - 1].offered_erlangs, points[i].offered_erlangs);
    }
  }
  return 0;
}
