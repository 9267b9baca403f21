// The Fig. 4 testbed, assembled: SIPp client host + SIPp server host +
// Asterisk PBX behind one 10/100 switch; the PBX counts its NIC census.
//
// One run_testbed() call is one experiment: build, offer calls for the
// placement window, drain, and return a merged ExperimentReport (the caller's
// call log joined with the receiver-side heard quality, the PBX's channel/
// CPU/CDR observations, and the Wireshark-style message census). The graph is
// the one-backend case of the shared topology builder (exp/topology.hpp).
#pragma once

#include <cstdint>

#include <optional>

#include "fault/plan.hpp"
#include "loadgen/scenario.hpp"
#include "monitor/report.hpp"
#include "monitor/trace.hpp"
#include "net/link.hpp"
#include "net/wifi_cell.hpp"
#include "pbx/asterisk_pbx.hpp"
#include "rtp/fluid.hpp"
#include "telemetry/telemetry.hpp"
#include "util/time.hpp"

namespace pbxcap::exp {

struct TestbedConfig {
  loadgen::CallScenario scenario;
  pbx::PbxConfig pbx;
  /// Access links host<->switch. Default: Fast Ethernet, Fig. 4.
  net::LinkConfig client_link;
  net::LinkConfig server_link;
  net::LinkConfig pbx_link;
  std::uint64_t seed{1};
  /// Extra drain time after placement window + hold (BYE handshakes, timers).
  Duration drain{Duration::seconds(30)};
  /// Hybrid fluid/packet media engine (off by default: exact per-packet
  /// simulation). Ignored when `wifi_cell` is set — shared-medium contention
  /// is never in closed-form steady state.
  rtp::FluidConfig fluid;
  /// When set, the caller host reaches the switch through a shared-medium
  /// Wi-Fi cell instead of a dedicated wire — the VoWiFi access topology of
  /// Fig. 1. Both SIP and the caller-side RTP contend for cell airtime.
  std::optional<net::WifiCellConfig> wifi_cell;
  /// Optional capture: when non-null, attached to the network before the
  /// run so callers can dump CSV traces or Fig.-2-style SIP ladders.
  monitor::PacketTrace* trace{nullptr};
  /// Optional telemetry sink: when non-null, every endpoint is
  /// instrumented, the sim-time sampler records per-second series (active
  /// channels, CPU, blocking, SIP/RTP rates), and call-lifecycle spans land
  /// in the tracer. The Telemetry instance is owned by the caller and is not
  /// thread-safe — give each run its own, like the Simulator.
  telemetry::Telemetry* telemetry{nullptr};
  /// Optional fault-injection schedule (see FAULTS.md). When non-null, every
  /// event is armed on the simulator before the run starts: `link client`
  /// addresses the caller's access link, `link server` the receiver's,
  /// `link pbx` the PBX uplink, and `pbx stall`/`pbx crash` the PBX host.
  /// Also enables the per-link drop-counter mirror in the telemetry export.
  const fault::FaultPlan* faults{nullptr};
};

/// Extra observations available when the testbed ran with a Wi-Fi cell.
struct WifiObservations {
  double medium_utilization{0.0};
  std::uint64_t frames_forwarded{0};
  std::uint64_t frames_dropped_queue{0};
  std::uint64_t frames_dropped_radio{0};
};

/// Runs the full packet-level experiment and reports Table-I-style metrics.
/// `wifi_out`, when non-null and the config has a Wi-Fi cell, receives the
/// cell's medium statistics.
[[nodiscard]] monitor::ExperimentReport run_testbed(const TestbedConfig& config,
                                                    WifiObservations* wifi_out = nullptr);

/// Convenience: Table I column for offered load `erlangs` (h = 120 s,
/// 180 s placement window, G.711, default PBX).
[[nodiscard]] monitor::ExperimentReport run_offered_load(double erlangs, std::uint64_t seed = 1,
                                                         std::uint32_t max_channels = 165);

}  // namespace pbxcap::exp
