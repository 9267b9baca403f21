// RTP stream generation and reception accounting.
//
// RtpSender paces packets at the codec's ptime through a send callback, so
// the owning host decides the wire addressing. RtpReceiverStats implements
// the RFC 3550 receiver algorithms: sequence-number extension, loss
// counting, and the interarrival-jitter estimator — the quantities
// VoIPmonitor derives MOS from in the paper's testbed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>

#include "rtp/codec.hpp"
#include "rtp/packet.hpp"
#include "sim/simulator.hpp"
#include "telemetry/span.hpp"
#include "util/time.hpp"

namespace pbxcap::rtp {

class FluidEngine;

class RtpSender {
 public:
  using EmitFn = std::function<void(const RtpHeader& header, std::uint32_t wire_bytes)>;
  /// Batch emitter for the fluid fast path: `first` is the header of the
  /// first packet in the run, `count` packets depart at
  /// `first_departure + i * codec.packet_interval()`.
  using BatchEmitFn = std::function<void(const RtpHeader& first, std::uint32_t wire_bytes,
                                         std::uint32_t count, TimePoint first_departure)>;

  RtpSender(sim::Simulator& simulator, Codec codec, std::uint32_t ssrc, EmitFn emit);
  ~RtpSender();
  RtpSender(const RtpSender&) = delete;
  RtpSender& operator=(const RtpSender&) = delete;

  /// Starts pacing; first packet goes out immediately (marker bit set).
  void start();
  /// Stops pacing; safe to call when not running.
  void stop();

  [[nodiscard]] bool running() const noexcept { return running_; }
  [[nodiscard]] std::uint64_t packets_sent() const noexcept { return sent_; }
  [[nodiscard]] const Codec& codec() const noexcept { return codec_; }
  [[nodiscard]] std::uint32_t ssrc() const noexcept { return ssrc_; }

  /// Opts this sender into the hybrid fluid fast path. Requires a batch
  /// emitter; the engine decides per-tick whether the stream may coast.
  void set_fluid(FluidEngine* engine, BatchEmitFn batch_emit);

  /// Optional call-journey tracing: per-packet and fluid media segments are
  /// recorded as distinct slices ("media.packet" / "media.fluid") on
  /// `track`. Set before start(); nullptr (the default) records nothing.
  void set_tracer(telemetry::SpanTracer* tracer, std::uint64_t track);

  /// True while the stream is coasting (no pacing ticks scheduled).
  [[nodiscard]] bool fluid_active() const noexcept { return fluid_active_; }

  /// Emits every packet whose departure is strictly before `upto` as batch
  /// packets; returns how many were flushed. No-op unless coasting.
  std::uint64_t flush_fluid(TimePoint upto);

  /// Leaves fluid mode (without flushing) and re-arms the per-packet pacing
  /// tick at the next pending departure. Callers flush first.
  void exit_fluid();

  /// Holds the stream in per-packet mode (no fluid re-entry) until `until`.
  /// Used across SIP teardown: the tail packets racing the BYE through the
  /// PBX must drain with exact per-packet timing.
  void hold_packet_mode_until(TimePoint until) noexcept {
    hold_until_ = std::max(hold_until_, until);
  }

 private:
  void emit_one(bool first);
  void begin_segment(bool fluid);
  void end_segment();

  sim::Simulator& simulator_;
  Codec codec_;
  std::uint32_t ssrc_;
  EmitFn emit_;
  BatchEmitFn batch_emit_;
  FluidEngine* fluid_{nullptr};
  bool running_{false};
  bool fluid_active_{false};
  std::uint16_t seq_{0};
  std::uint32_t timestamp_{0};
  std::uint64_t sent_{0};
  TimePoint next_due_{};
  TimePoint hold_until_{};
  sim::EventId next_event_{0};
  telemetry::SpanTracer* tracer_{nullptr};
  std::uint64_t trace_track_{0};
  std::uint32_t seg_packet_name_{0};
  std::uint32_t seg_fluid_name_{0};
  telemetry::SpanTracer::SpanId seg_span_{0};
};

/// Per-stream receiver statistics (RFC 3550 §6.4.1 / A.8).
class RtpReceiverStats {
 public:
  explicit RtpReceiverStats(std::uint32_t clock_rate_hz = 8000)
      : clock_rate_hz_{clock_rate_hz} {}

  /// Records one arrival. `arrival` is the local receive time.
  void on_packet(const RtpHeader& header, TimePoint arrival);

  /// Records a fluid batch: `count` in-order arrivals at
  /// `first_arrival + i * spacing`, sequence/timestamp advancing from
  /// `first` by 1 / `timestamp_step` per packet. Count fields (received,
  /// expected, cycles) are bit-identical to the per-packet loop; the jitter
  /// EWMA uses the closed-form decay (constant transit within the batch).
  void on_batch(const RtpHeader& first, TimePoint first_arrival, Duration spacing,
                std::uint32_t timestamp_step, std::uint32_t count);

  [[nodiscard]] std::uint64_t received() const noexcept { return received_; }
  /// Expected = extended-highest-seq - first-seq + 1 (0 before first packet).
  [[nodiscard]] std::uint64_t expected() const noexcept;
  /// Cumulative lost per RFC 3550 (can be negative transiently with
  /// duplicates; clamped at 0).
  [[nodiscard]] std::uint64_t lost() const noexcept;
  [[nodiscard]] double loss_fraction() const noexcept;
  [[nodiscard]] std::uint64_t out_of_order() const noexcept { return reordered_; }
  [[nodiscard]] std::uint64_t duplicates() const noexcept { return duplicates_; }

  /// RFC 3550 interarrival jitter, converted to a Duration.
  [[nodiscard]] Duration jitter() const noexcept;

  [[nodiscard]] TimePoint first_arrival() const noexcept { return first_arrival_; }
  [[nodiscard]] TimePoint last_arrival() const noexcept { return last_arrival_; }

 private:
  std::uint32_t clock_rate_hz_;
  bool started_{false};
  std::uint64_t received_{0};
  std::uint64_t reordered_{0};
  std::uint64_t duplicates_{0};
  std::uint16_t base_seq_{0};
  std::uint16_t max_seq_{0};
  std::uint32_t cycles_{0};  // seq wrap count << 16
  double jitter_{0.0};       // in media clock units
  double last_transit_{0.0};
  bool have_transit_{false};
  TimePoint first_arrival_{};
  TimePoint last_arrival_{};
};

}  // namespace pbxcap::rtp
