// Ablation A3: Erlang-B (infinite sources) vs Engset (finite sources) vs
// the packet-level simulation in finite-population mode. Quantifies when the
// paper's infinite-source assumption is safe: for the campus population
// (thousands of users) the models coincide; for small populations Erlang-B
// visibly overestimates blocking.
//
// Usage: bench_ablation_models [--fast]

#include <cstdio>
#include <vector>

#include "core/engset.hpp"
#include "core/erlang_b.hpp"
#include "exp/parallel.hpp"
#include "exp/testbed.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace pbxcap;
  using erlang::Erlangs;

  bool fast = false;
  util::Flags{}.flag("--fast", fast).parse(argc, argv);

  std::printf("== Ablation A3: Erlang-B vs Engset vs finite-population simulation%s ==\n\n",
              fast ? " (fast mode)" : "");

  // Analytical comparison across population sizes at a fixed load/capacity.
  constexpr double kLoad = 16.0;      // scaled-down operating point
  constexpr std::uint32_t kChannels = 18;
  util::TextTable analytic{{"population M", "Engset P_b", "Erlang-B P_b", "ratio"}};
  for (const std::uint32_t m : {20u, 30u, 50u, 100u, 400u, 8000u}) {
    const double engset = erlang::engset_blocking_total(Erlangs{kLoad}, m, kChannels);
    const double eb = erlang::erlang_b(Erlangs{kLoad}, kChannels);
    analytic.add_row({util::format("%u", m), util::format("%.3f%%", engset * 100.0),
                      util::format("%.3f%%", eb * 100.0),
                      util::format("%.2f", engset / eb)});
  }
  std::printf("A = %.0f E on N = %u channels:\n%s\n", kLoad, kChannels,
              analytic.to_string().c_str());

  // Packet-level simulation in finite-source mode, against both models.
  // Per-source rate chosen so each idle source offers alpha = A/(M-A)
  // Erlangs (the Engset parameterization).
  const std::vector<std::uint32_t> populations = fast
                                                     ? std::vector<std::uint32_t>{24, 100}
                                                     : std::vector<std::uint32_t>{24, 40, 100, 400};
  std::vector<monitor::ExperimentReport> reports(populations.size());
  const Duration hold = Duration::seconds(20);
  exp::parallel_for(populations.size(), exp::default_threads(), [&](std::size_t i) {
    const double m = populations[i];
    const double alpha = kLoad / (m - kLoad);
    exp::TestbedConfig config;
    config.scenario.finite_population = populations[i];
    config.scenario.per_user_rate_per_s = alpha / hold.to_seconds();
    config.scenario.hold_time = hold;
    config.scenario.hold_model = sim::HoldTimeModel::kExponential;
    config.scenario.placement_window = Duration::seconds(fast ? 400 : 1200);
    config.pbx.max_channels = kChannels;
    config.seed = 555 + i;
    reports[i] = exp::run_testbed(config);
  });

  util::TextTable sim_table{{"population M", "sim P_b", "Engset P_b", "Erlang-B P_b",
                             "attempts"}};
  for (std::size_t i = 0; i < populations.size(); ++i) {
    sim_table.add_row(
        {util::format("%u", populations[i]),
         util::format("%.2f%%", reports[i].blocking_probability * 100.0),
         util::format("%.2f%%",
                      erlang::engset_blocking_total(Erlangs{kLoad}, populations[i], kChannels) *
                          100.0),
         util::format("%.2f%%", erlang::erlang_b(Erlangs{kLoad}, kChannels) * 100.0),
         util::format("%llu", (unsigned long long)reports[i].calls_attempted)});
  }
  std::printf("Simulated finite-source runs (exponential holds, %.0f s mean):\n%s\n",
              hold.to_seconds(), sim_table.to_string().c_str());
  std::printf("Reading: the simulation tracks Engset within sampling noise. The finite-\n"
              "source correction only matters for populations within ~2x of the offered\n"
              "load (M <~ 2A); beyond that Engset and Erlang-B agree to within a percent,\n"
              "so the paper's 8,000+ user regime is safely in Erlang-B territory.\n");
  return 0;
}
