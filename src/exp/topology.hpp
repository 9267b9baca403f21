// One builder for every experiment graph (internal to src/exp).
//
// The Fig. 4 testbed and the §IV scale-out cluster are one graph: a SIPp
// client and a SIPp server on access links and N Asterisk PBXs on uplinks,
// all behind one switch, with an optional dispatcher node on the LAN and an
// optional shared-medium Wi-Fi cell in front of the client. run_testbed and
// run_cluster describe it as a Topology; Experiment builds it, runs it and
// keeps it alive while the front end reads results back.
//
// A placement maps each backend to a shard: one sim::Simulator with its own
// network, telemetry sink and fault injector. Monolithic runs put every
// backend on shard 0 (no portals, native uplink propagation, and
// ShardExecutor's one-shard path is a plain run_until). Sharded runs put
// backend i on shard 1 + i behind a portal pair on its uplink, with
// cross-shard propagation floored to the executor lookahead. Either way a
// host has one NodeId in every shard's network and one resolver names every
// host, so a packet crosses a shard boundary unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dispatch/dispatcher.hpp"
#include "exp/shard_exec.hpp"
#include "fault/injector.hpp"
#include "loadgen/caller.hpp"
#include "loadgen/receiver.hpp"
#include "monitor/capture.hpp"
#include "monitor/report.hpp"
#include "monitor/trace.hpp"
#include "net/network.hpp"
#include "net/switch_node.hpp"
#include "net/wifi_cell.hpp"
#include "pbx/asterisk_pbx.hpp"
#include "rtp/fluid.hpp"
#include "telemetry/telemetry.hpp"

namespace pbxcap::exp {

/// What to build. The Experiment keeps a reference to it: the Topology and
/// everything it points to must outlive the Experiment.
struct Topology {
  const loadgen::CallScenario* scenario{nullptr};
  std::uint64_t seed{1};
  Duration drain{};
  std::span<const pbx::PbxConfig> backends{};  // one PBX each, in backend order
  net::LinkConfig client_link{};
  net::LinkConfig server_link{};
  net::LinkConfig uplink{};  // every PBX <-> switch link
  /// When set, the client reaches the switch through this cell.
  const net::WifiCellConfig* wifi_cell{nullptr};
  /// Fluid media needs point-to-point links: it stays off when a Wi-Fi cell
  /// exists, because shared-medium contention never settles into the
  /// closed-form steady state.
  rtp::FluidConfig fluid{};
  /// Routing tier: a dispatcher node with one route per backend, in backend
  /// order, or DNS rotation in the caller bank when null.
  const dispatch::DispatcherConfig* dispatcher{nullptr};
  std::vector<dispatch::BackendConfig> routes{};
  /// `link pbx`, `pbx stall` and `pbx crash` hit backend `fault_backend`.
  const fault::FaultPlan* faults{nullptr};
  std::size_t fault_backend{0};
  telemetry::Telemetry* telemetry{nullptr};
  monitor::PacketTrace* trace{nullptr};
  /// Placement: backend i on shard 1 + i, instead of every backend on shard 0.
  bool sharded{false};
  ShardExecConfig exec{};  // workers and lookahead of the sharded placement
};

class Experiment {
 public:
  explicit Experiment(const Topology& topology);
  ~Experiment();
  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  struct Shard {
    explicit Shard(sim::Random impairment) : net{sim, std::move(impairment)} {}
    sim::Simulator sim;
    net::Network net;
    std::optional<telemetry::Telemetry> own;  // a backend shard's private sink
    /// The enabled sink: the caller's on shard 0, else the private one; null
    /// when telemetry is off. A probe added before run() goes to the sink of
    /// the shard whose objects it reads.
    telemetry::Telemetry* tel{nullptr};
    std::optional<fault::FaultInjector> injector;
  };
  struct Backend {
    Backend(const pbx::PbxConfig& config, Shard& on, sip::HostResolver& resolver)
        : shard{on}, pbx{config, on.sim, resolver} {}
    Shard& shard;
    pbx::AsteriskPbx pbx;
    net::Link* uplink{nullptr};    // switch side: the whole uplink, or its hub half
    net::Link* pbx_half{nullptr};  // sharded: the PBX's half
    std::optional<monitor::SipCapture> sip;  // taps on the PBX NIC
    std::optional<monitor::RtpCapture> rtp;
  };

  [[nodiscard]] Backend& backend(std::size_t i) noexcept { return *backends_[i]; }
  [[nodiscard]] loadgen::SipCaller& caller() noexcept { return *caller_; }
  [[nodiscard]] net::Link& client_link() noexcept { return *client_link_; }
  [[nodiscard]] net::Link& server_link() noexcept { return *server_link_; }
  [[nodiscard]] dispatch::Dispatcher* dispatcher() noexcept {
    return dispatcher_ ? &*dispatcher_ : nullptr;
  }
  [[nodiscard]] net::WifiCell* wifi_cell() noexcept { return wifi_ ? &*wifi_ : nullptr; }
  /// Shard 0: the caller bank, the receiver and the routing tier.
  [[nodiscard]] Shard& hub() noexcept { return hub_; }
  [[nodiscard]] const ShardExecutor& executor() const noexcept { return *exec_; }

  /// Runs every shard to the horizon, then folds backend-shard telemetry
  /// into the caller's sink and receiver-heard quality into the call log.
  void run();

  /// The ExperimentReport of the finished run, summed over every backend,
  /// link and shard.
  [[nodiscard]] monitor::ExperimentReport report() const;

  /// Hop conservation of a finished run with no traffic left in flight: the
  /// LAN switch forwarded exactly what its egress directions sent or
  /// dropped, and, without trunking, the shards' networks delivered exactly
  /// what their links sent. One line per broken identity; empty when both
  /// hold.
  [[nodiscard]] std::vector<std::string> hop_imbalances() const;

 private:
  struct Remote;  // a backend shard and its side of the uplink boundary

  void connect_backend(std::size_t i, const net::LinkConfig& cross);
  void wire_boundary(std::size_t i);
  void arm_faults(Shard& shard, const fault::FaultTargets& targets);

  const Topology& topo_;
  sim::Random master_;
  Shard hub_;
  rtp::SsrcAllocator ssrcs_;
  net::SwitchNode lan_switch_{"switch"};
  std::optional<net::WifiCell> wifi_;
  std::vector<std::unique_ptr<Remote>> remotes_;
  // Written only while the graph is built; shard workers only read it.
  sip::HostResolver resolver_;
  std::vector<std::optional<Backend>> backends_;  // sized once: a Backend cannot move
  std::optional<loadgen::SipCaller> caller_;
  std::optional<loadgen::SipReceiver> receiver_;
  std::optional<dispatch::Dispatcher> dispatcher_;
  net::Link* client_link_{nullptr};
  net::Link* server_link_{nullptr};
  rtp::FluidEngine fluid_;
  std::optional<ShardExecutor> exec_;
};

}  // namespace pbxcap::exp
