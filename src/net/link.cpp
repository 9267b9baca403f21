#include "net/link.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/network.hpp"
#include "net/trunk.hpp"
#include "sim/profile.hpp"

namespace pbxcap::net {
namespace {

/// Profiling category for a packet's wire events: signalling vs media.
/// kOther keeps the scheduler's inherited category.
std::uint8_t wire_category(const Packet& pkt, const sim::Simulator& sim) noexcept {
  switch (pkt.kind) {
    case PacketKind::kSip: return sim::category_id(sim::Category::kSip);
    case PacketKind::kRtp:
    case PacketKind::kRtcp:
    case PacketKind::kTrunk: return sim::category_id(sim::Category::kRtpPacket);
    case PacketKind::kOther: break;
  }
  return sim.category();
}

}  // namespace

Link::Link(Network& network, NodeId a, NodeId b, const LinkConfig& config)
    : network_{network}, a_{a}, b_{b}, config_{config} {
  if (a == b) throw std::invalid_argument{"Link: endpoints must differ"};
  if (config.bandwidth_bps <= 0.0) throw std::invalid_argument{"Link: bandwidth must be positive"};
  if (config.queue_limit_packets == 0) {
    throw std::invalid_argument{"Link: queue limit must be at least 1"};
  }
  directions_[0].receive_delay = network.node(b).receive_delay();
  directions_[1].receive_delay = network.node(a).receive_delay();
}

void Link::apply_impairment(const LinkImpairment& impairment) {
  if (impairment.bandwidth_bps && *impairment.bandwidth_bps <= 0.0) {
    throw std::invalid_argument{"Link: impairment bandwidth must be positive"};
  }
  if (impairment.queue_limit_packets && *impairment.queue_limit_packets == 0) {
    throw std::invalid_argument{"Link: impairment queue limit must be at least 1"};
  }
  if (impairment.loss_probability &&
      (*impairment.loss_probability < 0.0 || *impairment.loss_probability > 1.0)) {
    throw std::invalid_argument{"Link: impairment loss probability must be in [0, 1]"};
  }
  if (impairment.loss_probability) config_.loss_probability = *impairment.loss_probability;
  if (impairment.bandwidth_bps) {
    config_.bandwidth_bps = *impairment.bandwidth_bps;
    for (Direction& dir : directions_) {
      dir.tx_memo_bytes = 0;
      dir.tx_memo = Duration::zero();
    }
  }
  if (impairment.propagation) config_.propagation = *impairment.propagation;
  if (impairment.jitter_mean) config_.jitter_mean = *impairment.jitter_mean;
  if (impairment.jitter_stddev) config_.jitter_stddev = *impairment.jitter_stddev;
  if (impairment.queue_limit_packets) config_.queue_limit_packets = *impairment.queue_limit_packets;
  if (impairment.blackout) blackout_ = *impairment.blackout;
}

Link::Direction& Link::direction_from(NodeId from) {
  if (from == a_) return directions_[0];
  if (from == b_) return directions_[1];
  throw std::invalid_argument{"Link: node is not an endpoint"};
}

void Link::drain(const Direction& dir) const {
  const TimePoint now = network_.simulator().now();
  auto& frames = dir.frames;
  frames.erase(frames.begin(),
               std::find_if(frames.begin(), frames.end(),
                            [now](TimePoint serialized) { return serialized > now; }));
}

std::uint32_t Link::in_flight(const Direction& dir) const {
  drain(dir);
  return static_cast<std::uint32_t>(dir.frames.size());
}

Duration Link::tx_time(Direction& dir, std::uint32_t bytes) {
  if (bytes != dir.tx_memo_bytes) {
    dir.tx_memo_bytes = bytes;
    dir.tx_memo =
        Duration::from_seconds(static_cast<double>(bytes) * 8.0 / config_.bandwidth_bps);
  }
  return dir.tx_memo;
}

std::uint32_t Link::backlog_from(NodeId from) const {
  if (from == a_) return in_flight(directions_[0]);
  if (from == b_) return in_flight(directions_[1]);
  throw std::invalid_argument{"Link: node is not an endpoint"};
}

const LinkDirectionStats& Link::stats_from(NodeId from) const {
  if (from == a_) return directions_[0].stats;
  if (from == b_) return directions_[1].stats;
  throw std::invalid_argument{"Link: node is not an endpoint"};
}

double Link::utilization_from(NodeId from, TimePoint now) const {
  const auto& stats = stats_from(from);
  const double elapsed = now.to_seconds();
  return elapsed <= 0.0 ? 0.0 : std::min(1.0, stats.busy_time.to_seconds() / elapsed);
}

void Link::transmit_batch(NodeId from, Packet pkt) {
  // Fluid fast path: the batch stands for `pkt.batch` packets whose nominal
  // departures are already in the past (the fluid engine only flushes due
  // traffic) over a steady-state link (no loss, no jitter, backlog below the
  // near-saturation threshold — the engine's entry conditions). Each packet
  // would have serialized on an otherwise idle medium, so the per-packet
  // latency is the nominal tx_time + propagation + the receiver's delay;
  // stats accrue exactly as per-packet mode would have accrued them, and
  // delivery happens inline on the flush call stack — no simulator events,
  // no backlog churn.
  Direction& dir = direction_from(from);
  const NodeId to = peer_of(from);
  if (blackout_) {
    dir.stats.dropped_impairment += pkt.batch;
    return;
  }
  const auto n = static_cast<std::uint64_t>(pkt.batch);
  const Duration tx = tx_time(dir, pkt.size_bytes);
  dir.stats.busy_time += tx * static_cast<std::int64_t>(n);
  dir.stats.packets_sent += n;
  dir.stats.bytes_sent += static_cast<std::uint64_t>(pkt.size_bytes) * n;
  pkt.path_latency += tx + config_.propagation + dir.receive_delay;
  if (network_.is_remote(to)) {
    // Cross-shard batch: the nominal per-packet timing is already in the
    // packet; the executor clamps the hand-off to its next window so the
    // destination shard never sees it in its past.
    network_.deliver_remote(std::move(pkt), from, to, network_.simulator().now());
    return;
  }
  network_.deliver(pkt, from, to);
}

void Link::transmit(NodeId from, Packet pkt) {
  if (pkt.fluid) {
    transmit_batch(from, std::move(pkt));
    return;
  }
  // IAX2-style trunking: hold per-packet media for the window flush. Only
  // RTP rides the trunk (RFC 5456 mini-frames carry media; signalling and
  // RTCP keep their own datagrams), and fluid batches were already diverted
  // above — trunking aggregates the packet-mode residue of hybrid runs.
  if (config_.trunk_window > Duration::zero() && pkt.kind == PacketKind::kRtp) {
    enqueue_trunk(from, std::move(pkt));
    return;
  }
  transmit_now(from, std::move(pkt));
}

void Link::enqueue_trunk(NodeId from, Packet pkt) {
  Direction& dir = direction_from(from);
  auto& sim = network_.simulator();
  // The window wait joins the frame's path latency at the flush, which adds
  // the flush instant back: no per-frame enqueue time is kept.
  pkt.path_latency -= sim.now() - TimePoint::origin();
  dir.trunk_pending.push_back(std::move(pkt));
  if (dir.trunk_flush_scheduled) return;
  dir.trunk_flush_scheduled = true;
  // Flush on the next boundary of the absolute trunk-window grid, not
  // now + window: the flush schedule then depends only on the clock, never
  // on which packet happened to arrive first — the property that keeps
  // sharded runs byte-identical at any worker count.
  const std::int64_t window = config_.trunk_window.ns();
  const TimePoint flush_at =
      TimePoint::origin() + Duration::nanos(((sim.now().ns() / window) + 1) * window);
  const sim::Simulator::CategoryScope cat_scope{
      sim, sim::category_id(sim::Category::kRtpPacket)};
  auto flush = [this, from] { flush_trunk(from); };
  static_assert(sim::Callback::stores_inline<decltype(flush)>(),
                "trunk flush closure must stay on the allocation-free SBO path");
  sim.schedule_at(flush_at, std::move(flush));
}

void Link::flush_trunk(NodeId from) {
  Direction& dir = direction_from(from);
  dir.trunk_flush_scheduled = false;
  if (dir.trunk_pending.empty()) return;
  auto payload = std::make_shared<TrunkPayload>();
  payload->frames = std::move(dir.trunk_pending);
  dir.trunk_pending.clear();  // moved-from: restore a known-empty queue
  const Duration flushed_at = network_.simulator().now() - TimePoint::origin();
  for (Packet& inner : payload->frames) inner.path_latency += flushed_at;
  const std::uint64_t inner = payload->frames.size();
  dir.stats.trunk_frames += 1;
  dir.stats.trunk_mini_frames += inner;
  Packet shell;
  shell.id = network_.next_packet_id();
  shell.src = from;
  shell.dst = peer_of(from);
  shell.kind = PacketKind::kTrunk;
  shell.size_bytes = trunk_wire_size(payload->frames);
  shell.payload = std::move(payload);
  // The shell is one wire frame: it queues, serializes, and is lost or
  // jittered as a unit (losing it loses every call's frame for this window,
  // exactly like a real trunk datagram).
  if (transmit_now(from, std::move(shell))) {
    dir.stats.trunk_frames_sent += 1;
    dir.stats.trunk_mini_frames_sent += inner;
  }
}

bool Link::transmit_now(NodeId from, Packet pkt) {
  Direction& dir = direction_from(from);
  const NodeId to = peer_of(from);
  auto& sim = network_.simulator();

  // Injected blackout: the segment is down; every frame offered to it dies.
  // Counted per direction so the loss is visible in the stats (and in the
  // telemetry counters the testbed mirrors them into), not silent.
  if (blackout_) {
    ++dir.stats.dropped_impairment;
    return false;
  }

  // Drop-tail: refuse the packet if the serialization backlog is full; the
  // frames done serializing by now no longer count.
  drain(dir);
  auto& frames = dir.frames;
  if (frames.size() >= config_.queue_limit_packets) {
    ++dir.stats.dropped_queue_full;
    return false;
  }

  // The frame starts when the medium frees up: now, or the end of the
  // youngest frame still serializing.
  const Duration tx = tx_time(dir, pkt.size_bytes);
  const TimePoint serialized = (frames.empty() ? sim.now() : frames.back()) + tx;
  frames.push_back(serialized);
  dir.stats.busy_time += tx;

  // Random loss still consumes the medium (the frame is sent, then lost),
  // so it is decided after serialization accounting.
  const bool lost = config_.loss_probability > 0.0 &&
                    network_.impairment_rng().chance(config_.loss_probability);

  Duration extra = Duration::zero();
  if (config_.jitter_stddev > Duration::zero() || config_.jitter_mean > Duration::zero()) {
    const double jitter_s =
        network_.impairment_rng().normal(config_.jitter_mean.to_seconds(),
                                         config_.jitter_stddev.to_seconds());
    extra = Duration::from_seconds(std::max(0.0, jitter_s));
  }

  const TimePoint delivery = serialized + config_.propagation + extra + dir.receive_delay;
  pkt.path_latency += delivery - sim.now();
  // The hop's one wire event, the delivery, is attributed by packet kind, so
  // the profiler splits link traffic into signalling vs media regardless of
  // which subsystem's callback sent the packet.
  const sim::Simulator::CategoryScope cat_scope{sim, wire_category(pkt, sim)};

  if (lost) {
    ++dir.stats.dropped_random_loss;
    return false;
  }

  ++dir.stats.packets_sent;
  dir.stats.bytes_sent += pkt.size_bytes;
  if (network_.is_remote(to)) {
    // Cross-shard endpoint: the delivery becomes a timestamped message for
    // the peer shard instead of a local event. Queueing, serialization,
    // loss, and jitter above are all decided on this side — the remote half
    // only runs the receiver — so the stats stay identical to a local hop.
    network_.deliver_remote(std::move(pkt), from, to, delivery);
    return true;
  }
  auto deliver = [this, from, to, pkt = std::move(pkt)]() mutable {
    network_.deliver(pkt, from, to);
  };
  // Fired once per packet at Table-I scale (~100 pkt/s per call direction):
  // the capture must fit sim::Callback's inline buffer or every RTP packet
  // pays a heap allocation. Packet is 64 bytes; this capture is exactly 80.
  static_assert(sim::Callback::stores_inline<decltype(deliver)>(),
                "per-packet delivery closure must stay on the allocation-free SBO path");
  sim.schedule_at(delivery, std::move(deliver));
  return true;
}

}  // namespace pbxcap::net
