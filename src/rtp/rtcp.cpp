#include "rtp/rtcp.hpp"

#include <algorithm>

#include "sim/profile.hpp"

namespace pbxcap::rtp {

std::uint32_t rtcp_wire_bytes(bool has_report_block) noexcept {
  // SR: 8-byte header + 20-byte sender info; report block: 24 bytes.
  const std::uint32_t body = 8 + 20 + (has_report_block ? 24u : 0u);
  return net::wire_size(body);
}

RtcpSession::RtcpSession(sim::Simulator& simulator, sim::Random rng, std::uint32_t local_ssrc,
                         std::uint32_t clock_rate_hz, EmitFn emit, Config config)
    : simulator_{simulator},
      rng_{rng},
      local_ssrc_{local_ssrc},
      clock_rate_hz_{clock_rate_hz},
      emit_{std::move(emit)},
      config_{config} {}

RtcpSession::~RtcpSession() { stop(); }

void RtcpSession::start(const RtpSender* sender, const RtpReceiverStats* receiver) {
  if (running_) return;
  running_ = true;
  sender_ = sender;
  receiver_ = receiver;
  schedule_next();
}

void RtcpSession::stop() {
  if (!running_) return;
  running_ = false;
  if (timer_ != 0) {
    simulator_.cancel(timer_);
    timer_ = 0;
  }
}

void RtcpSession::schedule_next() {
  if (!running_) return;
  double factor = 1.0;
  if (config_.randomize) factor = rng_.uniform(0.5, 1.5);
  const Duration gap =
      Duration::from_seconds(config_.min_interval.to_seconds() * factor);
  const sim::CategoryScope cat_scope{simulator_, sim::Category::kRtpPacket};
  timer_ = simulator_.schedule_in(gap, [this] {
    emit_report();
    schedule_next();
  });
}

ReportBlock RtcpSession::build_report_block(const RtpReceiverStats& rx,
                                            std::uint32_t source_ssrc,
                                            std::uint64_t prior_expected,
                                            std::uint64_t prior_received) {
  ReportBlock block;
  block.source_ssrc = source_ssrc;
  const std::uint64_t expected = rx.expected();
  const std::uint64_t received = rx.received() - rx.duplicates();
  const std::uint64_t expected_interval = expected - std::min(expected, prior_expected);
  const std::uint64_t received_interval = received - std::min(received, prior_received);
  if (expected_interval > 0 && received_interval < expected_interval) {
    const double frac = static_cast<double>(expected_interval - received_interval) /
                        static_cast<double>(expected_interval);
    block.fraction_lost = static_cast<std::uint8_t>(std::min(255.0, frac * 256.0));
  }
  block.cumulative_lost = static_cast<std::uint32_t>(std::min<std::uint64_t>(rx.lost(), 0xffffff));
  block.ext_highest_seq = static_cast<std::uint32_t>(expected == 0 ? 0 : expected - 1);
  block.jitter_ticks = static_cast<std::uint32_t>(
      rx.jitter().to_seconds() * 8000.0);  // in 8 kHz ticks for narrowband
  return block;
}

void RtcpSession::emit_report() {
  if (pre_report_) pre_report_();
  RtcpPayload* out = nullptr;
  std::optional<ReportBlock> block;
  if (receiver_ != nullptr && receiver_->received() > 0) {
    block = build_report_block(*receiver_, /*source_ssrc=*/0, prior_expected_, prior_received_);
    prior_expected_ = receiver_->expected();
    prior_received_ = receiver_->received() - receiver_->duplicates();
    // Echo the last SR for the peer's RTT computation.
    block->last_sr_ts = static_cast<std::uint32_t>(last_sr_ntp_ >> 16);
    if (last_sr_ntp_ != 0) {
      const double delay_s = (simulator_.now() - last_sr_arrival_).to_seconds();
      block->delay_since_last_sr = static_cast<std::uint32_t>(delay_s * 65536.0);
    }
  }

  if (sender_ != nullptr && sender_->packets_sent() > 0) {
    SenderReport sr;
    sr.sender_ssrc = local_ssrc_;
    sr.ntp_timestamp = static_cast<std::uint64_t>(simulator_.now().ns());
    sr.rtp_timestamp = static_cast<std::uint32_t>(
        simulator_.now().to_seconds() * static_cast<double>(clock_rate_hz_));
    sr.packet_count = static_cast<std::uint32_t>(sender_->packets_sent());
    sr.octet_count = static_cast<std::uint32_t>(sender_->packets_sent() *
                                                sender_->codec().payload_bytes());
    sr.report = block;
    RtcpPayload payload{sr};
    ++sent_;
    emit_(payload, rtcp_wire_bytes(block.has_value()));
    (void)out;
    return;
  }
  if (block) {
    ReceiverReport rr;
    rr.sender_ssrc = local_ssrc_;
    rr.report = *block;
    RtcpPayload payload{rr};
    ++sent_;
    emit_(payload, rtcp_wire_bytes(true));
  }
}

void RtcpSession::on_report(const RtcpPayload& payload, TimePoint arrival) {
  const ReportBlock* block = nullptr;
  if (payload.sr) {
    last_sr_ntp_ = payload.sr->ntp_timestamp;
    last_sr_arrival_ = arrival;
    if (payload.sr->report) block = &*payload.sr->report;
  } else if (payload.rr) {
    block = &payload.rr->report;
  }
  if (block == nullptr) return;
  // RTT = now - LSR - DLSR. We store NTP as simulation ns; the middle-32
  // encoding shifts by 16 bits, losing sub-65536 ns precision — fine at
  // millisecond scales.
  if (block->last_sr_ts != 0) {
    const std::uint64_t lsr_ns = static_cast<std::uint64_t>(block->last_sr_ts) << 16;
    const double dlsr_s = static_cast<double>(block->delay_since_last_sr) / 65536.0;
    const double now_s = arrival.to_seconds();
    const double rtt_s = now_s - static_cast<double>(lsr_ns) * 1e-9 - dlsr_s;
    if (rtt_s >= 0.0 && rtt_s < 10.0) {
      // EWMA smoothing as real stacks do.
      const double prev = rtt_.to_seconds();
      rtt_ = Duration::from_seconds(prev == 0.0 ? rtt_s : 0.875 * prev + 0.125 * rtt_s);
    }
  }
}

}  // namespace pbxcap::rtp
