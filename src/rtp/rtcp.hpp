// RTCP (RFC 3550 §6) — sender/receiver reports and interval scheduling.
//
// The paper's reference stack ("RTP: A Transport Protocol for Real-Time
// Applications") pairs every RTP stream with an RTCP control stream that
// carries reception-quality feedback. VoIPmonitor-class analyzers read these
// reports. We implement the subset real softphones exchange: Sender Reports,
// Receiver Reports with the standard report block (fraction lost, cumulative
// lost, extended highest sequence, jitter, LSR/DLSR for RTT estimation), and
// the randomized reporting interval rule (5 s minimum, deterministic here
// via the simulation RNG).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "net/packet.hpp"
#include "rtp/stream.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace pbxcap::rtp {

/// One reception report block (RFC 3550 §6.4.1).
struct ReportBlock {
  std::uint32_t source_ssrc{0};      // the stream being reported on
  std::uint8_t fraction_lost{0};     // fixed-point /256 since last report
  std::uint32_t cumulative_lost{0};
  std::uint32_t ext_highest_seq{0};
  std::uint32_t jitter_ticks{0};     // media clock units
  std::uint32_t last_sr_ts{0};       // middle 32 bits of the SR timestamp
  std::uint32_t delay_since_last_sr{0};  // 1/65536 s units
};

/// Sender report (SR) with an optional appended report block.
struct SenderReport {
  std::uint32_t sender_ssrc{0};
  std::uint64_t ntp_timestamp{0};    // here: simulation ns (monotone)
  std::uint32_t rtp_timestamp{0};
  std::uint32_t packet_count{0};
  std::uint32_t octet_count{0};
  std::optional<ReportBlock> report;
};

/// Receiver report (RR).
struct ReceiverReport {
  std::uint32_t sender_ssrc{0};      // who is reporting
  ReportBlock report;
};

/// Network payload carrying either report type.
struct RtcpPayload final : net::Payload {
  explicit RtcpPayload(SenderReport report) : sr{report} {}
  explicit RtcpPayload(ReceiverReport report) : rr{report} {}
  std::optional<SenderReport> sr;
  std::optional<ReceiverReport> rr;

  /// SSRC used by relays to route the packet like its RTP stream.
  [[nodiscard]] std::uint32_t routing_ssrc() const noexcept {
    return sr ? sr->sender_ssrc : rr->sender_ssrc;
  }
};

/// On-wire size of a compound SR+RR packet (RFC 3550 layouts + UDP/IP/Eth).
[[nodiscard]] std::uint32_t rtcp_wire_bytes(bool has_report_block) noexcept;

/// One endpoint's RTCP machine for a single call direction pair: paces
/// reports, fills them from local sender/receiver state, and consumes peer
/// reports (computing RTT from LSR/DLSR).
struct RtcpConfig {
  Duration min_interval{Duration::seconds(5)};
  /// RFC 3550 randomizes each interval over [0.5, 1.5] x the base.
  bool randomize{true};
};

class RtcpSession {
 public:
  using Config = RtcpConfig;
  using EmitFn = std::function<void(const RtcpPayload& payload, std::uint32_t wire_bytes)>;

  RtcpSession(sim::Simulator& simulator, sim::Random rng, std::uint32_t local_ssrc,
              std::uint32_t clock_rate_hz, EmitFn emit, Config config = {});
  ~RtcpSession();
  RtcpSession(const RtcpSession&) = delete;
  RtcpSession& operator=(const RtcpSession&) = delete;

  /// Starts periodic reporting. `sender` (may be null) supplies SR counts;
  /// `receiver` (may be null) supplies the report block.
  void start(const RtpSender* sender, const RtpReceiverStats* receiver);
  void stop();

  /// Feed a report received from the peer.
  void on_report(const RtcpPayload& payload, TimePoint arrival);

  [[nodiscard]] std::uint64_t reports_sent() const noexcept { return sent_; }
  /// Smoothed round-trip estimate from LSR/DLSR; zero until first sample.
  [[nodiscard]] Duration rtt() const noexcept { return rtt_; }

  /// Invoked at the top of emit_report, before any statistic is read. The
  /// fluid media engine uses it to flush the session's coasting streams so
  /// the report sees exact per-packet state.
  void set_pre_report_hook(std::function<void()> hook) { pre_report_ = std::move(hook); }

  /// Builds the report block from a receiver's current statistics (public
  /// for tests and analyzers).
  [[nodiscard]] static ReportBlock build_report_block(const RtpReceiverStats& rx,
                                                      std::uint32_t source_ssrc,
                                                      std::uint64_t prior_expected,
                                                      std::uint64_t prior_received);

 private:
  void schedule_next();
  void emit_report();

  sim::Simulator& simulator_;
  sim::Random rng_;
  std::uint32_t local_ssrc_;
  std::uint32_t clock_rate_hz_;
  EmitFn emit_;
  Config config_;
  std::function<void()> pre_report_;
  const RtpSender* sender_{nullptr};
  const RtpReceiverStats* receiver_{nullptr};
  bool running_{false};
  sim::EventId timer_{0};
  std::uint64_t sent_{0};
  std::uint64_t prior_expected_{0};
  std::uint64_t prior_received_{0};
  Duration rtt_{Duration::zero()};
  std::uint64_t last_sr_ntp_{0};     // for LSR echo when we send as receiver
  TimePoint last_sr_arrival_{};
};

}  // namespace pbxcap::rtp
