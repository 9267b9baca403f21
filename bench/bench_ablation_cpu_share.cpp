// Ablation A1: where does the PBX CPU go? The paper asserts (§IV) that "the
// RTP messages carry the bulk of the traffic and are responsible for the
// great part of the CPU demands" while "SIP messages do not have a major
// impact". This harness decomposes the modeled CPU work into its SIP / RTP /
// error components at a mid-range load and across loads.
//
// Usage: bench_ablation_cpu_share [--fast]

#include <cstdio>
#include <vector>

#include "exp/parallel.hpp"
#include "exp/testbed.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

struct Shares {
  double sip_s{0.0};
  double rtp_s{0.0};
  double err_s{0.0};
  [[nodiscard]] double total() const { return sip_s + rtp_s + err_s; }
};

Shares decompose(const pbxcap::monitor::ExperimentReport& r,
                 const pbxcap::pbx::CpuModelConfig& cfg) {
  Shares s;
  // Counted work: messages seen at the PBX x per-item cost. The capture
  // counts both directions (in + out), which is exactly what the PBX model
  // charges (receive + send each deposit one message cost).
  s.sip_s = static_cast<double>(r.sip_total) * cfg.cost_per_sip_message.to_seconds();
  s.rtp_s = static_cast<double>(r.rtp_packets_at_pbx) * cfg.cost_per_rtp_packet.to_seconds();
  s.err_s = static_cast<double>(r.calls_blocked + r.calls_failed) *
            pbxcap::pbx::kCostPerErrorEvent.to_seconds();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pbxcap;

  bool fast = false;
  util::Flags{}.flag("--fast", fast).parse(argc, argv);

  std::printf("== Ablation A1: SIP vs RTP vs error-path CPU share%s ==\n\n",
              fast ? " (fast mode)" : "");

  const std::vector<double> loads{40, 120, 200, 240};
  std::vector<monitor::ExperimentReport> reports(loads.size());
  const pbx::CpuModelConfig cpu_cfg{};

  exp::parallel_for(loads.size(), exp::default_threads(), [&](std::size_t i) {
    exp::TestbedConfig config;
    config.scenario = loadgen::CallScenario::for_offered_load(loads[i]);
    if (fast) config.scenario.placement_window = Duration::seconds(45);
    config.seed = 31 + i;
    reports[i] = exp::run_testbed(config);
  });

  util::TextTable table{{"A (E)", "SIP msgs", "RTP pkts", "SIP share", "RTP share",
                         "error share", "CPU (mean)"}};
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const auto shares = decompose(reports[i], cpu_cfg);
    const double total = shares.total();
    table.add_row({util::format("%.0f", loads[i]),
                   util::format("%llu", (unsigned long long)reports[i].sip_total),
                   util::format("%llu", (unsigned long long)reports[i].rtp_packets_at_pbx),
                   util::format("%.1f%%", 100.0 * shares.sip_s / total),
                   util::format("%.1f%%", 100.0 * shares.rtp_s / total),
                   util::format("%.1f%%", 100.0 * shares.err_s / total),
                   util::format("%.0f%%", reports[i].cpu_utilization.mean() * 100.0)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Paper's claim to verify: RTP dominates (>90%% of protocol work), SIP is minor.\n");
  return 0;
}
