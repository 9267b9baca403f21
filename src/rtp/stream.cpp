#include "rtp/stream.hpp"

#include <algorithm>
#include <cmath>

#include "rtp/fluid.hpp"
#include "sim/profile.hpp"

namespace pbxcap::rtp {

RtpSender::RtpSender(sim::Simulator& simulator, Codec codec, std::uint32_t ssrc, EmitFn emit)
    : simulator_{simulator}, codec_{codec}, ssrc_{ssrc}, emit_{std::move(emit)} {}

RtpSender::~RtpSender() { stop(); }

void RtpSender::start() {
  if (running_) return;
  running_ = true;
  begin_segment(/*fluid=*/false);
  emit_one(/*first=*/true);
}

void RtpSender::stop() {
  if (!running_) return;
  if (fluid_active_) {
    // A pacing tick due exactly now would lose the FIFO race against the
    // stop (BYE) timer in per-packet mode, so the flush horizon is strict.
    flush_fluid(simulator_.now());
    fluid_active_ = false;
    if (fluid_ != nullptr) fluid_->remove(ssrc_);
  }
  running_ = false;
  if (next_event_ != 0) {
    simulator_.cancel(next_event_);
    next_event_ = 0;
  }
  end_segment();
}

void RtpSender::set_fluid(FluidEngine* engine, BatchEmitFn batch_emit) {
  fluid_ = engine;
  batch_emit_ = std::move(batch_emit);
}

void RtpSender::set_tracer(telemetry::SpanTracer* tracer, std::uint64_t track) {
  tracer_ = tracer;
  trace_track_ = track;
  if (tracer_ != nullptr) {
    seg_packet_name_ = tracer_->name_id("media.packet");
    seg_fluid_name_ = tracer_->name_id("media.fluid");
  }
}

void RtpSender::begin_segment(bool fluid) {
  if (tracer_ == nullptr) return;
  seg_span_ = tracer_->begin(fluid ? seg_fluid_name_ : seg_packet_name_, trace_track_,
                             simulator_.now());
}

void RtpSender::end_segment() {
  if (tracer_ == nullptr || seg_span_ == 0) return;
  tracer_->end(seg_span_, simulator_.now());
  seg_span_ = 0;
}

void RtpSender::emit_one(bool first) {
  if (!running_) return;
  RtpHeader header;
  header.payload_type = codec_.payload_type;
  header.sequence = seq_++;
  header.timestamp = timestamp_;
  header.ssrc = ssrc_;
  header.marker = first;
  timestamp_ += codec_.timestamp_step();
  ++sent_;
  emit_(header, codec_.wire_bytes());
  if (fluid_ != nullptr && batch_emit_ && simulator_.now() >= hold_until_ &&
      fluid_->try_enter(*this)) {
    // Coast: suspend the pacing tick; the engine flushes the accumulated
    // run in closed form at the next boundary. The first packet (marker)
    // always goes out per-packet above, anchoring receiver-side state.
    fluid_active_ = true;
    next_due_ = simulator_.now() + codec_.packet_interval();
    next_event_ = 0;
    if (tracer_ != nullptr) {
      end_segment();
      begin_segment(/*fluid=*/true);
    }
    return;
  }
  auto tick = [this] { emit_one(false); };
  // The 20 ms pacing tick dominates the event population at Table-I scale
  // (~3M events per operating point); it must never touch the allocator.
  static_assert(sim::Callback::stores_inline<decltype(tick)>(),
                "RTP pacing tick must stay on the allocation-free SBO path");
  const sim::CategoryScope cat_scope{simulator_, sim::Category::kRtpPacket};
  next_event_ = simulator_.schedule_in(codec_.packet_interval(), std::move(tick));
}

std::uint64_t RtpSender::flush_fluid(TimePoint upto) {
  if (!fluid_active_ || !running_ || next_due_ >= upto) return 0;
  // Departures strictly before `upto`: k in [0, n) with next_due_ + k * T.
  const std::int64_t interval_ns = codec_.packet_interval().ns();
  std::uint64_t n =
      static_cast<std::uint64_t>((upto.ns() - 1 - next_due_.ns()) / interval_ns) + 1;
  const std::uint64_t flushed = n;
  while (n > 0) {
    // Packet::batch is 16-bit; long segments flush as chained chunks.
    const auto chunk = static_cast<std::uint32_t>(std::min<std::uint64_t>(n, 0xffff));
    RtpHeader header;
    header.payload_type = codec_.payload_type;
    header.sequence = seq_;
    header.timestamp = timestamp_;
    header.ssrc = ssrc_;
    header.marker = false;
    batch_emit_(header, codec_.wire_bytes(), chunk, next_due_);
    seq_ = static_cast<std::uint16_t>(seq_ + chunk);
    timestamp_ += codec_.timestamp_step() * chunk;
    sent_ += chunk;
    next_due_ = next_due_ + codec_.packet_interval() * static_cast<std::int64_t>(chunk);
    n -= chunk;
  }
  return flushed;
}

void RtpSender::exit_fluid() {
  if (!fluid_active_) return;
  fluid_active_ = false;
  if (!running_) return;
  if (tracer_ != nullptr) {
    end_segment();
    begin_segment(/*fluid=*/false);
  }
  auto tick = [this] { emit_one(false); };
  static_assert(sim::Callback::stores_inline<decltype(tick)>(),
                "RTP pacing tick must stay on the allocation-free SBO path");
  const sim::CategoryScope cat_scope{simulator_, sim::Category::kRtpPacket};
  next_event_ = simulator_.schedule_at(next_due_, std::move(tick));
}

void RtpReceiverStats::on_packet(const RtpHeader& header, TimePoint arrival) {
  ++received_;
  last_arrival_ = arrival;

  if (!started_) {
    started_ = true;
    base_seq_ = header.sequence;
    max_seq_ = header.sequence;
    first_arrival_ = arrival;
  } else {
    const std::uint16_t delta = static_cast<std::uint16_t>(header.sequence - max_seq_);
    if (delta == 0) {
      ++duplicates_;
    } else if (delta < 0x8000) {
      // Forward step; detect wrap.
      if (header.sequence < max_seq_) cycles_ += 1;
      max_seq_ = header.sequence;
    } else {
      ++reordered_;  // late packet (sequence behind the max)
    }
  }

  // RFC 3550 A.8 jitter: J += (|D| - J) / 16, with D the difference in
  // relative transit time between consecutive packets, in media clock units.
  const double arrival_ticks = arrival.to_seconds() * static_cast<double>(clock_rate_hz_);
  const double transit = arrival_ticks - static_cast<double>(header.timestamp);
  if (have_transit_) {
    const double d = std::fabs(transit - last_transit_);
    jitter_ += (d - jitter_) / 16.0;
  }
  last_transit_ = transit;
  have_transit_ = true;
}

void RtpReceiverStats::on_batch(const RtpHeader& first, TimePoint first_arrival,
                                Duration spacing, std::uint32_t timestamp_step,
                                std::uint32_t count) {
  if (count == 0) return;
  if (count == 1) {
    on_packet(first, first_arrival);
    return;
  }
  received_ += count;
  const TimePoint last_arrival =
      first_arrival + spacing * static_cast<std::int64_t>(count - 1);
  last_arrival_ = last_arrival;

  // Closed-form sequence extension: the batch is in-order and contiguous
  // (the fluid path admits no loss, reordering, or duplication), so the
  // extended sequence advances by the forward delta of the first packet
  // plus count-1. Bit-identical to count on_packet calls.
  std::uint64_t ext;
  if (!started_) {
    started_ = true;
    base_seq_ = first.sequence;
    first_arrival_ = first_arrival;
    ext = static_cast<std::uint64_t>(first.sequence) + (count - 1);
  } else {
    const std::uint16_t delta = static_cast<std::uint16_t>(first.sequence - max_seq_);
    ext = ((static_cast<std::uint64_t>(cycles_) << 16) | max_seq_) + delta + (count - 1);
  }
  cycles_ = static_cast<std::uint32_t>(ext >> 16);
  max_seq_ = static_cast<std::uint16_t>(ext & 0xffff);

  // Jitter EWMA: one ordinary update for the batch's first packet against
  // the previous transit, then — the nominal transit being constant within
  // the batch (arrival spacing equals the timestamp step) — the remaining
  // count-1 updates each see D = 0 and decay the estimate geometrically.
  const double clock = static_cast<double>(clock_rate_hz_);
  const double transit_first =
      first_arrival.to_seconds() * clock - static_cast<double>(first.timestamp);
  if (have_transit_) {
    const double d = std::fabs(transit_first - last_transit_);
    jitter_ += (d - jitter_) / 16.0;
  }
  jitter_ *= std::pow(15.0 / 16.0, static_cast<double>(count - 1));
  const std::uint32_t last_ts = first.timestamp + timestamp_step * (count - 1);
  last_transit_ = last_arrival.to_seconds() * clock - static_cast<double>(last_ts);
  have_transit_ = true;
}

std::uint64_t RtpReceiverStats::expected() const noexcept {
  if (!started_) return 0;
  const std::uint64_t extended_max = (static_cast<std::uint64_t>(cycles_) << 16) | max_seq_;
  return extended_max - base_seq_ + 1;
}

std::uint64_t RtpReceiverStats::lost() const noexcept {
  const std::uint64_t exp = expected();
  const std::uint64_t recv_unique = received_ - duplicates_;
  return exp > recv_unique ? exp - recv_unique : 0;
}

double RtpReceiverStats::loss_fraction() const noexcept {
  const std::uint64_t exp = expected();
  return exp == 0 ? 0.0 : static_cast<double>(lost()) / static_cast<double>(exp);
}

Duration RtpReceiverStats::jitter() const noexcept {
  return Duration::from_seconds(jitter_ / static_cast<double>(clock_rate_hz_));
}

}  // namespace pbxcap::rtp
