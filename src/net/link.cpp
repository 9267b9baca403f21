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

void Link::announce_edit(TimePoint at) {
  edits_.insert(std::upper_bound(edits_.begin(), edits_.end(), at), at);
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
                            [now](const Frame& f) { return f.serialized > now; }));
}

std::uint32_t Link::in_flight(const Direction& dir) const {
  drain(dir);
  // Frames folded ahead of their offer time sit at the back; they are not
  // on the link yet.
  const TimePoint now = network_.simulator().now();
  auto offered = dir.frames.end();
  while (offered != dir.frames.begin() && std::prev(offered)->offered > now) --offered;
  return static_cast<std::uint32_t>(offered - dir.frames.begin());
}

Duration Link::tx_time(Direction& dir, std::uint32_t bytes) {
  if (bytes != dir.tx_memo_bytes) {
    dir.tx_memo_bytes = bytes;
    dir.tx_memo =
        Duration::from_seconds(static_cast<double>(bytes) * 8.0 / config_.bandwidth_bps);
  }
  return dir.tx_memo;
}

bool Link::folds(const Direction& dir, TimePoint at) const {
  // A step still pending offers its frame first; trunking flushes on the
  // clock's grid; loss and jitter draw from the network's shared RNG, whose
  // draws must keep their order.
  if (dir.steps_pending != 0 || config_.trunk_window > Duration::zero() ||
      config_.loss_probability > 0.0 || config_.jitter_stddev > Duration::zero() ||
      config_.jitter_mean > Duration::zero()) {
    return false;
  }
  // An edit before now has been applied; one at now may still be pending.
  const auto next = std::lower_bound(edits_.begin(), edits_.end(), network_.simulator().now());
  return next == edits_.end() || *next > at;
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
  // latency is the nominal tx_time + propagation; stats accrue exactly as
  // per-packet mode would have accrued them, and delivery happens inline on
  // the flush call stack — no simulator events, no backlog churn.
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
  pkt.path_latency += tx + config_.propagation;
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
  transmit_now(from, std::move(pkt), network_.simulator().now());
}

void Link::forward(NodeId from, Packet pkt, Duration delay) {
  Direction& dir = direction_from(from);
  auto& sim = network_.simulator();
  const TimePoint at = sim.now() + delay;
  if (folds(dir, at)) {
    transmit_now(from, std::move(pkt), at);
    return;
  }
  ++dir.steps_pending;
  auto step = [this, from, pkt = std::move(pkt)]() mutable {
    --direction_from(from).steps_pending;
    transmit(from, std::move(pkt));
  };
  static_assert(sim::Callback::stores_inline<decltype(step)>(),
                "switch step closure must stay on the allocation-free SBO path");
  sim.schedule_at(at, std::move(step));
}

void Link::enqueue_trunk(NodeId from, Packet pkt) {
  Direction& dir = direction_from(from);
  dir.trunk_pending.push_back(std::move(pkt));
  if (dir.trunk_flush_scheduled) return;
  dir.trunk_flush_scheduled = true;
  auto& sim = network_.simulator();
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
  dir.stats.trunk_frames += 1;
  dir.stats.trunk_mini_frames += payload->frames.size();
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
  transmit_now(from, std::move(shell), network_.simulator().now());
}

void Link::transmit_now(NodeId from, Packet pkt, TimePoint at) {
  Direction& dir = direction_from(from);
  const NodeId to = peer_of(from);
  auto& sim = network_.simulator();

  // Injected blackout: the segment is down; every frame offered to it dies.
  // Counted per direction so the loss is visible in the stats (and in the
  // telemetry counters the testbed mirrors them into), not silent.
  if (blackout_) {
    ++dir.stats.dropped_impairment;
    return;
  }

  // Drop-tail: refuse the packet if the serialization backlog is full at
  // its offer time. Every frame ahead of it is already queued (forward()
  // folds only then); those done serializing by `at` no longer count.
  drain(dir);
  auto& frames = dir.frames;
  const auto ahead = std::find_if(frames.begin(), frames.end(),
                                  [at](const Frame& f) { return f.serialized > at; });
  if (static_cast<std::uint32_t>(frames.end() - ahead) >= config_.queue_limit_packets) {
    ++dir.stats.dropped_queue_full;
    return;
  }

  // The frame starts when the medium frees up: at its offer time, or the
  // end of the youngest frame still serializing.
  const Duration tx = tx_time(dir, pkt.size_bytes);
  const TimePoint start = frames.empty() ? at : std::max(at, frames.back().serialized);
  const TimePoint serialized = start + tx;
  frames.push_back({at, serialized});
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

  const TimePoint delivery = serialized + config_.propagation + extra;
  // The hop's one wire event, the delivery, is attributed by packet kind, so
  // the profiler splits link traffic into signalling vs media regardless of
  // which subsystem's callback sent the packet.
  const sim::Simulator::CategoryScope cat_scope{sim, wire_category(pkt, sim)};

  if (lost) {
    ++dir.stats.dropped_random_loss;
    return;
  }

  ++dir.stats.packets_sent;
  dir.stats.bytes_sent += pkt.size_bytes;
  if (network_.is_remote(to)) {
    // Cross-shard endpoint: the delivery becomes a timestamped message for
    // the peer shard instead of a local event. Queueing, serialization,
    // loss, and jitter above are all decided on this side — the remote half
    // only runs the receiver — so the stats stay identical to a local hop.
    network_.deliver_remote(std::move(pkt), from, to, delivery);
    return;
  }
  auto deliver = [this, from, to, pkt = std::move(pkt)]() mutable {
    network_.deliver(pkt, from, to);
  };
  // Fired once per packet at Table-I scale (~100 pkt/s per call direction):
  // the capture must fit sim::Callback's inline buffer or every RTP packet
  // pays a heap allocation. Packet is 48 bytes; this capture is exactly 64.
  static_assert(sim::Callback::stores_inline<decltype(deliver)>(),
                "per-packet delivery closure must stay on the allocation-free SBO path");
  sim.schedule_at(delivery, std::move(deliver));
}

}  // namespace pbxcap::net
