// Full-duplex point-to-point link with finite bandwidth, propagation delay,
// a drop-tail serialization queue, and optional impairments (random loss,
// delay jitter). Models both the wired 10/100 Mbps segments of Fig. 4 and —
// with loss/jitter configured — the Wi-Fi access segment of the VoWiFi
// deployment.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "sim/random.hpp"
#include "telemetry/metrics.hpp"
#include "util/time.hpp"

namespace pbxcap::net {

class Network;
class Node;

struct LinkConfig {
  double bandwidth_bps{100e6};          // Fast Ethernet by default (Fig. 4)
  Duration propagation{Duration::micros(5)};
  std::uint32_t queue_limit_packets{256};  // drop-tail beyond this backlog
  double loss_probability{0.0};            // random loss (Wi-Fi segment model)
  Duration jitter_mean{Duration::zero()};  // extra stochastic delay, mean
  Duration jitter_stddev{Duration::zero()};
  /// IAX2-style trunk aggregation window (net/trunk.hpp). When non-zero,
  /// per-packet (non-fluid) RTP offered to the link is held and sent as one
  /// trunk frame per window per direction, flushed on window boundaries of
  /// the simulation clock grid (so the schedule is independent of arrival
  /// phase — a requirement for byte-identical sharded runs at any worker
  /// count). SIP, RTCP, and fluid batches bypass the trunk, as RFC 5456
  /// trunking only carries media mini-frames. Zero disables trunking.
  Duration trunk_window{Duration::zero()};
};

/// Partial overlay applied onto a live link's LinkConfig mid-run (fault
/// injection: loss bursts, jitter ramps, bandwidth drops). Unset fields keep
/// their current value. `blackout` is link state, not config: while engaged
/// the link silently eats every packet in both directions.
struct LinkImpairment {
  std::optional<double> loss_probability;
  std::optional<double> bandwidth_bps;
  std::optional<Duration> propagation;
  std::optional<Duration> jitter_mean;
  std::optional<Duration> jitter_stddev;
  std::optional<std::uint32_t> queue_limit_packets;
  std::optional<bool> blackout;
};

/// Per-direction transmission statistics.
struct LinkDirectionStats {
  std::uint64_t packets_sent{0};
  std::uint64_t bytes_sent{0};
  std::uint64_t dropped_queue_full{0};
  std::uint64_t dropped_random_loss{0};
  std::uint64_t dropped_impairment{0};  // injected blackout ate the packet
  std::uint64_t trunk_frames{0};        // aggregation shells put on the wire
  std::uint64_t trunk_mini_frames{0};   // media packets carried inside them
  // The shells of trunk_frames counted in packets_sent (not dropped), and
  // the media packets inside them: the receiving network delivers those
  // packets one by one, not the shell.
  std::uint64_t trunk_frames_sent{0};
  std::uint64_t trunk_mini_frames_sent{0};
  Duration busy_time{Duration::zero()};  // cumulative serialization time

  [[nodiscard]] std::uint64_t dropped_total() const noexcept {
    return dropped_queue_full + dropped_random_loss + dropped_impairment;
  }
};

class Link {
 public:
  /// Built by Network::connect; `a` and `b` are the endpoints' node ids,
  /// both attached to `network`. Each direction adds its receiver's
  /// Node::receive_delay to every delivery.
  Link(Network& network, NodeId a, NodeId b, const LinkConfig& config);

  /// Transmits `pkt` from endpoint `from` toward the opposite endpoint.
  /// Applies queueing, serialization delay, propagation, loss, jitter and
  /// the receiver's delay.
  void transmit(NodeId from, Packet pkt);

  [[nodiscard]] NodeId endpoint_a() const noexcept { return a_; }
  [[nodiscard]] NodeId endpoint_b() const noexcept { return b_; }
  [[nodiscard]] NodeId peer_of(NodeId node) const noexcept { return node == a_ ? b_ : a_; }
  [[nodiscard]] bool attaches(NodeId node) const noexcept { return node == a_ || node == b_; }

  /// Mutates the live configuration (fault-injection path). Set fields
  /// overlay the current config and affect every packet offered from now on;
  /// packets already serialized keep their original delivery schedule.
  /// Validates like the constructor; throws std::invalid_argument on bad
  /// values (non-positive bandwidth, zero queue limit, loss outside [0,1]).
  /// The link tells no one of the edit: a link the fluid engine watches
  /// must be edited through a FaultInjector whose pre-apply hook flushes the
  /// engine first.
  void apply_impairment(const LinkImpairment& impairment);

  [[nodiscard]] const LinkConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool blacked_out() const noexcept { return blackout_; }
  /// Packets queued or in serialization in the `from`->peer direction (the
  /// fluid engine's near-saturation signal). A frame leaves the backlog at
  /// its serialization end: a read at exactly that instant no longer counts
  /// it, whatever the order of the events sharing the timestamp.
  [[nodiscard]] std::uint32_t backlog_from(NodeId from) const;
  /// Stats for the direction whose source is `from`.
  [[nodiscard]] const LinkDirectionStats& stats_from(NodeId from) const;

  /// Instantaneous utilization estimate of the `from`->peer direction over
  /// the interval observed so far (busy_time / elapsed).
  [[nodiscard]] double utilization_from(NodeId from, TimePoint now) const;

  /// Adds both directions' drops to the `{link=name, reason}` rows; links
  /// published under one name add up.
  void publish(telemetry::MetricsRegistry& reg, const std::string& name) const;

 private:
  struct Direction {
    /// When each frame accepted onto the wire ends serializing, oldest
    /// first. FIFO serialization makes the times ascending, so the drained
    /// frames (end <= now) are a prefix, which the readers erase: the medium
    /// needs no event of its own when a frame finishes serializing. The
    /// queue limit bounds the length; an idle link allocates nothing.
    mutable std::vector<TimePoint> frames;
    LinkDirectionStats stats;
    Duration receive_delay{Duration::zero()};  // the receiver's, added to each delivery
    std::vector<Packet> trunk_pending;  // media awaiting the window flush
    bool trunk_flush_scheduled{false};
    /// The last serialization time computed, by frame size: a direction's
    /// frames mostly share one size. {0, 0} is exact, so it is the reset.
    std::uint32_t tx_memo_bytes{0};
    Duration tx_memo{Duration::zero()};
  };

  Direction& direction_from(NodeId from);
  /// Drops the frames of `dir` done serializing by now.
  void drain(const Direction& dir) const;
  /// Frames of `dir` still queued or serializing.
  std::uint32_t in_flight(const Direction& dir) const;
  /// Serialization time of a `bytes`-byte frame at the current bandwidth.
  Duration tx_time(Direction& dir, std::uint32_t bytes);
  void transmit_batch(NodeId from, Packet pkt);
  /// The pre-trunking per-packet path: queueing, serialization, loss,
  /// jitter, delivery. Trunk shells re-enter here once assembled. False
  /// when the packet was dropped.
  bool transmit_now(NodeId from, Packet pkt);
  void enqueue_trunk(NodeId from, Packet pkt);
  void flush_trunk(NodeId from);

  Network& network_;
  NodeId a_;
  NodeId b_;
  LinkConfig config_;
  bool blackout_{false};
  std::array<Direction, 2> directions_{};  // [0]: a->b, [1]: b->a
};

}  // namespace pbxcap::net
