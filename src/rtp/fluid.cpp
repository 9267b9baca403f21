#include "rtp/fluid.hpp"

#include <algorithm>

#include "sim/profile.hpp"

#include "rtp/stream.hpp"

namespace pbxcap::rtp {
namespace {

// A watched link direction whose backlog exceeds this fraction of its queue
// limit is near saturation: streams stay per-packet (the paper's interesting
// regime is exactly the one we must not approximate).
constexpr double kBacklogThreshold = 0.25;
// Streams return to per-packet this long before each sampling boundary so
// packets in flight at the boundary drain exactly. Must exceed the
// end-to-end media path latency.
constexpr Duration kBoundaryGuard = Duration::millis(1);
// Hold in per-packet mode after a transient (fault event, SIP teardown)
// before streams may coast again: hysteresis against enter/exit flapping.
constexpr Duration kDwell = Duration::millis(200);
// Longest closed-form span: coasting streams flush at least this often, which
// bounds how stale a batch stays for the CPU model and for stall windows.
constexpr Duration kMaxSegment = Duration::seconds(10);

}  // namespace

void FluidEngine::watch_link(net::Link& link) { links_.push_back(&link); }

void FluidEngine::start() {
  arm_segment();
  arm_boundary();
}

void FluidEngine::stop() {
  suspend_until(TimePoint::max());
  if (segment_event_ != 0) {
    simulator_.cancel(segment_event_);
    segment_event_ = 0;
  }
  if (boundary_event_ != 0) {
    simulator_.cancel(boundary_event_);
    boundary_event_ = 0;
  }
}

void FluidEngine::arm_segment() {
  if (!config_.enabled) return;
  const sim::CategoryScope cat_scope{simulator_, sim::Category::kRtpFluidFlush};
  segment_event_ = simulator_.schedule_in(kMaxSegment, [this] {
    flush_all();
    arm_segment();
  });
}

void FluidEngine::arm_boundary() {
  if (!config_.enabled || boundary_period_ <= Duration::zero()) return;
  const std::int64_t period = boundary_period_.ns();
  const std::int64_t guard =
      std::clamp<std::int64_t>(kBoundaryGuard.ns(), 1, period - 1);
  // First boundary whose pre-flush instant is strictly in the future.
  const std::int64_t k = (simulator_.now().ns() + guard) / period + 1;
  const TimePoint fire = TimePoint::at(Duration::nanos(k * period - guard));
  const TimePoint boundary = TimePoint::at(Duration::nanos(k * period));
  const sim::CategoryScope cat_scope{simulator_, sim::Category::kRtpFluidFlush};
  boundary_event_ = simulator_.schedule_at(fire, [this, boundary] {
    suspend_until(boundary);
    arm_boundary();
  });
}

bool FluidEngine::eligible() const {
  if (!config_.enabled || simulator_.now() < resume_at_) return false;
  for (const net::Link* link : links_) {
    if (link->blacked_out()) return false;
    const net::LinkConfig& cfg = link->config();
    if (cfg.loss_probability > 0.0) return false;
    if (cfg.jitter_mean != Duration::zero() || cfg.jitter_stddev != Duration::zero()) {
      return false;
    }
    const auto limit = static_cast<double>(cfg.queue_limit_packets);
    if (static_cast<double>(link->backlog_from(link->endpoint_a())) >
            kBacklogThreshold * limit ||
        static_cast<double>(link->backlog_from(link->endpoint_b())) >
            kBacklogThreshold * limit) {
      return false;
    }
  }
  return true;
}

bool FluidEngine::try_enter(RtpSender& sender) {
  if (!eligible()) return false;
  streams_[sender.ssrc()] = &sender;
  ++segments_;
  return true;
}

void FluidEngine::remove(std::uint32_t ssrc) { streams_.erase(ssrc); }

std::uint64_t FluidEngine::flush_stream(std::uint32_t ssrc) {
  const auto it = streams_.find(ssrc);
  if (it == streams_.end()) return 0;
  return it->second->flush_fluid(simulator_.now());
}

void FluidEngine::flush_all() {
  if (streams_.empty()) return;
  // Snapshot: flushing can, in principle, reach code that mutates the
  // registry (a stream stopping at the flush horizon).
  std::vector<RtpSender*> snapshot;
  snapshot.reserve(streams_.size());
  for (const auto& [ssrc, sender] : streams_) snapshot.push_back(sender);
  const TimePoint now = simulator_.now();
  for (RtpSender* sender : snapshot) sender->flush_fluid(now);
}

void FluidEngine::exit_stream(std::uint32_t ssrc) {
  const auto it = streams_.find(ssrc);
  if (it == streams_.end()) return;
  RtpSender* sender = it->second;
  streams_.erase(it);
  const TimePoint now = simulator_.now();
  sender->flush_fluid(now);
  sender->exit_fluid();
  sender->hold_packet_mode_until(now + kDwell);
}

void FluidEngine::suspend_until(TimePoint resume) {
  if (!streams_.empty()) {
    std::vector<RtpSender*> snapshot;
    snapshot.reserve(streams_.size());
    for (const auto& [ssrc, sender] : streams_) snapshot.push_back(sender);
    streams_.clear();
    const TimePoint now = simulator_.now();
    for (RtpSender* sender : snapshot) {
      sender->flush_fluid(now);
      sender->exit_fluid();
    }
  }
  resume_at_ = std::max(resume_at_, resume);
}

void FluidEngine::on_transient() {
  ++transients_;
  suspend_until(simulator_.now() + kDwell);
}

}  // namespace pbxcap::rtp
