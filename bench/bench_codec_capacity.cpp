// Codec/transcoding/trunking tier acceptance bench (see DESIGN.md §10).
//
// Part 1 — transcoded-bridge capacity: three saturating runs at a fixed CPU
// budget (the RFC 6357 overload gate sheds INVITEs once the current-bucket
// utilization crosses cpu_threshold), differing only in what the caller
// offers: G.711 end-to-end (translator idle), GSM callers answered in PCMU
// (15 us/frame translator), and G.729 callers answered in PCMU (40 us/frame
// translator). The measured capacity N (channel peak under the gate) must
// order G.711 passthrough > GSM-transcoded > G.729-transcoded — the paper's
// "CPU is the real capacity limit" conclusion, now codec-aware.
//
// Part 2 — IAX2-style trunk ablation: a sharded two-backend G.729 cluster
// (100+ concurrent trunked calls) run with the inter-PBX uplinks in
// per-packet mode vs trunk_window = 20 ms. Gates: >= 3x uplink byte
// reduction and >= 3x uplink packet reduction (G.729's 20-byte payloads
// shed their 58-byte per-packet encapsulation for a 4-byte mini-frame
// header), an unchanged call/RTP census, and byte-identical reports across
// 1/2/4/8 shard workers at both settings.
//
// Exit status is nonzero when any gate fails, so CI can run this binary
// directly (the `codec` row of tools/bench_gates.sh does, with --fast).
//
// Usage: bench_codec_capacity [--fast] [--json F]
//   --fast : half-scale windows, trunk ablation at 1/4 workers only.
//   --json : machine-readable results (capacity rows + trunk ratios).

#include <cstdio>
#include <string>
#include <vector>

#include "exp/cluster.hpp"
#include "exp/parallel.hpp"
#include "exp/testbed.hpp"
#include "monitor/report.hpp"
#include "rtp/codec.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

namespace {

using pbxcap::Duration;
using pbxcap::monitor::ExperimentReport;

// ---------------------------------------------------------------------------
// Part 1: capacity under the CPU gate, per codec path.

struct CapacityCase {
  std::string name;
  std::uint8_t caller_pt;    // what every caller prefers (offers first)
  bool transcoded;           // whether the bridge should engage the translator
  Duration transcode_extra;  // expected per-frame translator cost (both codecs)
};

struct CapacityRow {
  CapacityCase spec;
  ExperimentReport report;
  std::uint32_t model_n{0};  // closed-form prediction from the CPU budget
  /// Sustained capacity: completed calls x hold / window = the equilibrium
  /// admitted concurrency. The channel *peak* also orders correctly but
  /// overshoots the budget (the per-second CPU buckets re-open the gate at
  /// every bucket boundary, admitting a burst before the bucket refills), and
  /// the overshoot is relatively larger the smaller the true capacity — so
  /// the margin gate reads the sustained figure.
  double sustained_n{0.0};
};

constexpr double kCpuThreshold = 0.5;

CapacityRow run_capacity(const CapacityCase& spec, bool fast) {
  pbxcap::exp::TestbedConfig config;
  config.seed = 4242;
  config.scenario.hold_time = Duration::seconds(20);
  config.scenario.placement_window = Duration::seconds(fast ? 60 : 120);
  // Offer ~280 concurrent against a <= ~190-call CPU budget: every variant
  // saturates, so channel peak measures the gate, not the offered load.
  config.scenario.arrival_rate_per_s = 14.0;

  // The channel pool must not be the binding constraint — the CPU gate is.
  config.pbx.max_channels = 2000;
  config.pbx.sip_service.enabled = true;
  config.pbx.sip_service.service_time = Duration::micros(200);
  config.pbx.sip_service.queue_limit = 4096;
  config.pbx.overload.enabled = true;
  config.pbx.overload.cpu_threshold = kCpuThreshold;
  config.pbx.overload.queue_threshold = 100'000;  // CPU trigger only

  if (spec.transcoded) {
    // Weight-0 PCMU entry: never preferred, but present in every offer as
    // the fallback. The PBX allows both; the receiver only answers PCMU, so
    // leg B comes back PCMU while leg A stays on the preferred codec and
    // the bridge engages the translator.
    const auto preferred = pbxcap::rtp::codec_by_payload_type(spec.caller_pt);
    config.scenario.codec_mix = {{*preferred, 1.0}, {pbxcap::rtp::g711_ulaw(), 0.0}};
    config.scenario.receiver_payload_types = {pbxcap::rtp::payload_type::kPcmu};
    config.pbx.allowed_payload_types = {spec.caller_pt, pbxcap::rtp::payload_type::kPcmu};
  }

  CapacityRow row;
  row.spec = spec;
  row.report = pbxcap::exp::run_testbed(config);

  // Closed-form prediction: each bridged call relays 2 x 50 packets/s, each
  // costing cost_per_rtp_packet plus the translator extra on mismatched
  // bridges. The gate trips at kCpuThreshold over base utilization.
  const pbxcap::pbx::CpuModelConfig cpu = config.pbx.cpu;
  const double per_call_s =
      100.0 * (cpu.cost_per_rtp_packet + spec.transcode_extra).to_seconds();
  row.model_n =
      static_cast<std::uint32_t>((kCpuThreshold - cpu.base_utilization) / per_call_s);
  row.sustained_n = static_cast<double>(row.report.calls_completed) *
                    config.scenario.hold_time.to_seconds() /
                    config.scenario.placement_window.to_seconds();
  return row;
}

// ---------------------------------------------------------------------------
// Part 2: sharded G.729 cluster, trunked vs per-packet uplinks.

struct TrunkRun {
  unsigned threads{0};
  pbxcap::exp::ClusterResult result;
};

pbxcap::exp::ClusterResult run_trunk_cluster(bool fast, unsigned threads,
                                             Duration trunk_window) {
  pbxcap::exp::ClusterConfig config;
  config.seed = 7;
  config.scenario.codec = *pbxcap::rtp::codec_by_payload_type(pbxcap::rtp::payload_type::kG729);
  config.scenario.hold_time = Duration::seconds(30);
  config.scenario.placement_window = Duration::seconds(fast ? 40 : 60);
  config.scenario.arrival_rate_per_s = 4.0;  // ~120 concurrent at steady state
  config.servers = 2;
  config.channels_per_server = 100;
  config.allowed_payload_types = {pbxcap::rtp::payload_type::kG729};
  config.trunk_window = trunk_window;
  config.shard.enabled = true;
  config.shard.threads = threads;
  return pbxcap::exp::run_cluster(config);
}

/// The determinism digest: every count that must be byte-identical across
/// worker counts (wall timings and per-shard host diagnostics excluded).
std::string digest(const pbxcap::exp::ClusterResult& r) {
  const ExperimentReport& rep = r.report;
  return pbxcap::util::format(
      "att=%llu comp=%llu blk=%llu fail=%llu peak=%u sip=%llu rtp_pbx=%llu relayed=%llu "
      "trunk=%llu mini=%llu up_bytes=%llu up_pkts=%llu",
      static_cast<unsigned long long>(rep.calls_attempted),
      static_cast<unsigned long long>(rep.calls_completed),
      static_cast<unsigned long long>(rep.calls_blocked),
      static_cast<unsigned long long>(rep.calls_failed), rep.channels_peak,
      static_cast<unsigned long long>(rep.sip_total),
      static_cast<unsigned long long>(rep.rtp_packets_at_pbx),
      static_cast<unsigned long long>(rep.rtp_relayed),
      static_cast<unsigned long long>(rep.trunk_frames),
      static_cast<unsigned long long>(rep.trunk_mini_frames),
      static_cast<unsigned long long>(r.uplink_bytes),
      static_cast<unsigned long long>(r.uplink_packets));
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  std::string json_out;
  pbxcap::util::Flags{}.flag("--fast", fast).value("--json", json_out).parse(argc, argv);

  bool ok = true;

  // ---- Part 1: transcoded-bridge capacity ----
  const std::vector<CapacityCase> cases = {
      {"G.711 passthrough", pbxcap::rtp::payload_type::kPcmu, false, Duration::zero()},
      {"GSM -> PCMU transcoded", pbxcap::rtp::payload_type::kGsm, true,
       pbxcap::rtp::codec_by_payload_type(pbxcap::rtp::payload_type::kGsm)->transcode_cost},
      {"G.729 -> PCMU transcoded", pbxcap::rtp::payload_type::kG729, true,
       pbxcap::rtp::codec_by_payload_type(pbxcap::rtp::payload_type::kG729)->transcode_cost},
  };
  std::vector<CapacityRow> rows(cases.size());
  pbxcap::exp::parallel_for(cases.size(), pbxcap::exp::default_threads(),
                            [&](std::size_t i) { rows[i] = run_capacity(cases[i], fast); });

  std::printf("== Transcoded-bridge capacity at %.0f%% CPU budget%s ==\n",
              kCpuThreshold * 100.0, fast ? " (fast mode)" : "");
  std::printf("%-26s %9s %11s %9s %12s %14s %8s\n", "codec path", "peak N", "sustained N",
              "model N", "503 shed", "transcoded", "MOS");
  for (const CapacityRow& row : rows) {
    std::printf("%-26s %9u %11.0f %9u %12llu %14llu %8.2f\n", row.spec.name.c_str(),
                row.report.channels_peak, row.sustained_n, row.model_n,
                static_cast<unsigned long long>(row.report.overload_rejections),
                static_cast<unsigned long long>(row.report.transcoded_bridges),
                row.report.mos.empty() ? 0.0 : row.report.mos.mean());
  }

  const bool gate_order = rows[0].report.channels_peak > rows[1].report.channels_peak &&
                          rows[1].report.channels_peak > rows[2].report.channels_peak;
  const bool gate_margin = rows[0].sustained_n >= 1.2 * rows[1].sustained_n &&
                           rows[1].sustained_n >= 1.2 * rows[2].sustained_n;
  const bool gate_translator =
      rows[0].report.transcoded_bridges == 0 && rows[1].report.transcoded_bridges > 0 &&
      rows[2].report.transcoded_bridges > 0 && rows[1].report.transcoded_rtp > 0 &&
      rows[2].report.transcoded_rtp > 0;
  std::printf("capacity ordering G.711 > GSM > G.729 : %s\n",
              gate_order ? "ok" : "** GATE FAILED **");
  std::printf("sustained margin (>=1.2x per step)    : %s\n",
              gate_margin ? "ok" : "** GATE FAILED **");
  std::printf("translator engagement (0 / >0 / >0)   : %s\n",
              gate_translator ? "ok" : "** GATE FAILED **");
  ok = ok && gate_order && gate_margin && gate_translator;

  // ---- Part 2: trunk ablation ----
  const std::vector<unsigned> worker_counts =
      fast ? std::vector<unsigned>{1, 4} : std::vector<unsigned>{1, 2, 4, 8};
  std::vector<TrunkRun> packet_runs;
  std::vector<TrunkRun> trunk_runs;
  for (const unsigned threads : worker_counts) {
    packet_runs.push_back({threads, run_trunk_cluster(fast, threads, Duration::zero())});
    trunk_runs.push_back({threads, run_trunk_cluster(fast, threads, Duration::millis(20))});
  }
  const pbxcap::exp::ClusterResult& packet = packet_runs.front().result;
  const pbxcap::exp::ClusterResult& trunk = trunk_runs.front().result;

  bool gate_identical = true;
  for (std::size_t i = 1; i < worker_counts.size(); ++i) {
    if (digest(packet_runs[i].result) != digest(packet)) gate_identical = false;
    if (digest(trunk_runs[i].result) != digest(trunk)) gate_identical = false;
  }
  const double byte_ratio = static_cast<double>(packet.uplink_bytes) /
                            static_cast<double>(std::max<std::uint64_t>(trunk.uplink_bytes, 1));
  const double pkt_ratio = static_cast<double>(packet.uplink_packets) /
                           static_cast<double>(std::max<std::uint64_t>(trunk.uplink_packets, 1));
  const bool gate_bytes = byte_ratio >= 3.0;
  const bool gate_pkts = pkt_ratio >= 3.0;
  // Trunking reframes the uplink wire; it must not change what happened.
  const bool gate_census =
      packet.report.calls_attempted == trunk.report.calls_attempted &&
      packet.report.calls_completed == trunk.report.calls_completed &&
      packet.report.calls_blocked == trunk.report.calls_blocked &&
      packet.report.rtp_packets_at_pbx == trunk.report.rtp_packets_at_pbx &&
      trunk.report.trunk_frames > 0 && trunk.report.trunk_mini_frames > 0;
  const double minis_per_frame =
      static_cast<double>(trunk.report.trunk_mini_frames) /
      static_cast<double>(std::max<std::uint64_t>(trunk.report.trunk_frames, 1));

  std::printf("\n== IAX2-style trunk ablation (G.729 x %u concurrent, sharded) ==\n",
              packet.report.channels_peak);
  std::printf("%-22s %16s %16s %9s\n", "uplink metric", "per-packet", "trunked", "ratio");
  std::printf("%-22s %16llu %16llu %8.2fx\n", "wire bytes",
              static_cast<unsigned long long>(packet.uplink_bytes),
              static_cast<unsigned long long>(trunk.uplink_bytes), byte_ratio);
  std::printf("%-22s %16llu %16llu %8.2fx\n", "wire packets",
              static_cast<unsigned long long>(packet.uplink_packets),
              static_cast<unsigned long long>(trunk.uplink_packets), pkt_ratio);
  std::printf("trunk frames %llu, mini-frames %llu (%.1f calls' media per frame)\n",
              static_cast<unsigned long long>(trunk.report.trunk_frames),
              static_cast<unsigned long long>(trunk.report.trunk_mini_frames), minis_per_frame);
  std::printf("uplink byte reduction >= 3x           : %s\n",
              gate_bytes ? "ok" : "** GATE FAILED **");
  std::printf("uplink packet reduction >= 3x         : %s\n",
              gate_pkts ? "ok" : "** GATE FAILED **");
  std::printf("call/RTP census unchanged             : %s\n",
              gate_census ? "ok" : "** GATE FAILED **");
  std::printf("byte-identical across workers {");
  for (std::size_t i = 0; i < worker_counts.size(); ++i) {
    std::printf("%s%u", i ? "," : "", worker_counts[i]);
  }
  std::printf("}  : %s\n", gate_identical ? "ok" : "** GATE FAILED **");
  ok = ok && gate_bytes && gate_pkts && gate_census && gate_identical;

  if (!json_out.empty()) {
    std::string json = "{\n  \"capacity\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const CapacityRow& row = rows[i];
      json += pbxcap::util::format(
          "    {\"path\": \"%s\", \"peak_n\": %u, \"sustained_n\": %.1f, \"model_n\": %u, "
          "\"shed_503\": %llu, "
          "\"transcoded_bridges\": %llu, \"transcoded_rtp\": %llu, \"mos\": %.3f}%s\n",
          row.spec.name.c_str(), row.report.channels_peak, row.sustained_n, row.model_n,
          static_cast<unsigned long long>(row.report.overload_rejections),
          static_cast<unsigned long long>(row.report.transcoded_bridges),
          static_cast<unsigned long long>(row.report.transcoded_rtp),
          row.report.mos.empty() ? 0.0 : row.report.mos.mean(),
          i + 1 < rows.size() ? "," : "");
    }
    json += pbxcap::util::format(
        "  ],\n  \"trunk\": {\"bytes_packet\": %llu, \"bytes_trunked\": %llu, "
        "\"byte_ratio\": %.3f,\n            \"packets_packet\": %llu, "
        "\"packets_trunked\": %llu, \"packet_ratio\": %.3f,\n            "
        "\"trunk_frames\": %llu, \"trunk_mini_frames\": %llu, \"identical\": %s},\n"
        "  \"pass\": %s\n}\n",
        static_cast<unsigned long long>(packet.uplink_bytes),
        static_cast<unsigned long long>(trunk.uplink_bytes), byte_ratio,
        static_cast<unsigned long long>(packet.uplink_packets),
        static_cast<unsigned long long>(trunk.uplink_packets), pkt_ratio,
        static_cast<unsigned long long>(trunk.report.trunk_frames),
        static_cast<unsigned long long>(trunk.report.trunk_mini_frames),
        gate_identical ? "true" : "false", ok ? "true" : "false");
    if (!pbxcap::util::write_file(json_out, json)) return 1;
  }

  std::printf("\n%s\n", ok ? "ALL GATES PASS" : "GATE FAILURE");
  return ok ? 0 : 1;
}
