// The Asterisk-like PBX: a back-to-back user agent with finite channels.
//
// Reproduces the behaviour the paper measures (§II-B, Fig. 2):
//   * every SIP message of both call legs passes through the PBX;
//   * all RTP media is anchored and relayed by the PBX;
//   * a finite channel pool performs admission control — an INVITE that
//     finds no free channel is rejected (503), which is the "blocked call"
//     outcome of Table I;
//   * CPU cost accrues per SIP message and per relayed RTP packet with
//     error-path surcharges, per the paper's observed utilization structure;
//   * every call leaves a CDR.
//
// Call-leg plumbing: leg A (caller -> PBX) is answered as a UAS; leg B
// (PBX -> callee) is originated as a UAC with a fresh Call-ID. SDP is
// forwarded with the connection address rewritten to the PBX (media
// anchoring); endpoints announce their RTP SSRC in the SDP (RFC 5576), which
// is what the relay uses to demultiplex streams to the opposite leg.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "pbx/acd.hpp"
#include "pbx/admission.hpp"
#include "pbx/cdr.hpp"
#include "pbx/media_ports.hpp"
#include "pbx/channel_pool.hpp"
#include "pbx/cpu_model.hpp"
#include "pbx/dialplan.hpp"
#include "pbx/directory.hpp"
#include "pbx/registrar.hpp"
#include "rtp/ssrc_table.hpp"
#include "sip/dialog.hpp"
#include "sip/endpoint.hpp"
#include "sip/sdp.hpp"

namespace pbxcap::pbx {

/// Single-threaded SIP service model (overload substrate). When enabled,
/// every incoming SIP message waits in a FIFO for one worker that takes
/// `service_time` per message; a full rejection additionally occupies the
/// worker for `reject_penalty` (the expensive error path the paper's 30 ms
/// error cost measures). The backlog depth is the overload-control signal.
/// Disabled by default: Table-I runs keep the instantaneous-service model.
struct SipServiceConfig {
  bool enabled{false};
  Duration service_time{Duration::millis(10)};
  Duration reject_penalty{Duration::millis(30)};
  std::uint32_t queue_limit{256};  // messages beyond this are dropped
};

/// RFC 6357-style local overload control: a cheap stateless 503 + Retry-After
/// front door ahead of the service queue. Only *new INVITE work* is shed;
/// messages of accepted calls still get service.
struct OverloadControlConfig {
  bool enabled{false};
  /// Gate INVITEs while the SIP service backlog exceeds this many messages.
  std::uint32_t queue_threshold{16};
  /// Additional trigger on the CPU model's current-bucket utilization;
  /// >= 1.0 disables the CPU trigger.
  double cpu_threshold{1.0};
  /// Advertised in the 503's Retry-After header (integer seconds on the wire).
  Duration retry_after{Duration::seconds(2)};
};

/// SIP messages by method and status code, as a capture on the PBX's
/// interface counts them for Table I: each once as it arrives and once as the
/// PBX sends it.
class SipCensus {
 public:
  static constexpr int kMinCode = 100;
  static constexpr int kMaxCode = 699;

  void count(const sip::Message& msg) noexcept;

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  /// Error responses (>= 400), the Table I "Error Msgs" row.
  [[nodiscard]] std::uint64_t errors() const noexcept { return errors_; }
  [[nodiscard]] std::uint64_t requests(sip::Method m) const noexcept {
    return methods_[static_cast<std::size_t>(m)];
  }
  /// `code` in [kMinCode, kMaxCode], the range the parser accepts.
  [[nodiscard]] std::uint64_t responses(int code) const noexcept {
    return codes_[static_cast<std::size_t>(code - kMinCode)];
  }

  /// The `observed` rows: one per message type seen, status codes ascending
  /// ("100", "180", ...), then method names alphabetically, and the errors.
  /// Backends' rows add up.
  void publish(telemetry::MetricsRegistry& reg) const;

 private:
  std::array<std::uint64_t, static_cast<std::size_t>(sip::Method::kUnknown) + 1> methods_{};
  std::array<std::uint64_t, kMaxCode - kMinCode + 1> codes_{};
  std::uint64_t total_{0};
  std::uint64_t errors_{0};
};

struct PbxConfig {
  std::string host{"pbx.unb.br"};
  std::uint32_t max_channels{165};  // fitted capacity of the paper's server
  CpuModelConfig cpu{};
  bool require_auth{false};          // LDAP-style lookup before admitting
  std::vector<std::uint8_t> allowed_payload_types{0, 8};  // PCMU, PCMA
  /// Admission strategy: hard channel pool (paper) or predictive Erlang CAC
  /// (paper reference [8]). Callers who should wait instead (the Erlang-C
  /// system) dial an ACD queue.
  AdmissionPolicy admission{AdmissionPolicy::kChannelPool};
  PredictiveCacConfig cac{};
  /// ACD queues (callers dialing "queue-<name>" are routed here).
  AcdConfig acd{};
  /// PBX-side RTP anchor port range (even ports, tracked while in use).
  std::uint16_t rtp_port_min{10'000};
  std::uint16_t rtp_port_max{65'534};
  SipServiceConfig sip_service{};
  OverloadControlConfig overload{};
};

class AsteriskPbx final : public sip::SipEndpoint {
 public:
  AsteriskPbx(PbxConfig config, sim::Simulator& simulator, sip::HostResolver& resolver);

  void on_receive(const net::Packet& pkt) override;
  void send_sip(std::shared_ptr<const sip::SipPayload> payload, net::NodeId dst) override;

  /// Adds the PBX's call-lifecycle spans (setup / media / teardown per
  /// bridged call, tracked by the leg A Call-ID) to the base endpoint's.
  void set_telemetry(telemetry::Telemetry* tel) override;
  /// Appends the ACD's rows, then the admission, relay and overload
  /// counters, the active-channel gauge and the NIC census.
  void publish(telemetry::MetricsRegistry& reg) const override;

  [[nodiscard]] ChannelPool& channels() noexcept { return channels_; }
  [[nodiscard]] const ChannelPool& channels() const noexcept { return channels_; }
  [[nodiscard]] CpuModel& cpu() noexcept { return cpu_; }
  [[nodiscard]] const CpuModel& cpu() const noexcept { return cpu_; }
  [[nodiscard]] CdrLog& cdrs() noexcept { return cdrs_; }
  [[nodiscard]] const CdrLog& cdrs() const noexcept { return cdrs_; }
  [[nodiscard]] Dialplan& dialplan() noexcept { return dialplan_; }
  [[nodiscard]] Directory& directory() noexcept { return directory_; }
  [[nodiscard]] Registrar& registrar() noexcept { return registrar_; }
  [[nodiscard]] const PbxConfig& config() const noexcept { return config_; }
  [[nodiscard]] AcdSubsystem& acd() noexcept { return acd_; }
  [[nodiscard]] const AcdSubsystem& acd() const noexcept { return acd_; }
  [[nodiscard]] const MediaPortAllocator& media_ports() const noexcept { return media_ports_; }

  /// INVITEs reaching the admission path (late retransmissions of answered
  /// calls excluded).
  [[nodiscard]] std::uint64_t invites() const noexcept { return invites_; }
  /// Bridged and voicemail calls answered on leg A.
  [[nodiscard]] std::uint64_t calls_answered() const noexcept { return answered_; }
  /// Bridges folded on a leg B error or timeout.
  [[nodiscard]] std::uint64_t calls_failed() const noexcept { return failed_; }
  /// Calls the predictive CAC rejected.
  [[nodiscard]] std::uint64_t cac_rejections() const noexcept { return cac_rejections_; }
  /// Calls rejected because the channel pool was exhausted.
  [[nodiscard]] std::uint64_t channel_rejections() const noexcept {
    return channel_rejections_;
  }
  [[nodiscard]] std::uint64_t rtp_relayed() const noexcept { return rtp_relayed_; }
  /// Bridges whose legs negotiated different codecs (translator engaged).
  [[nodiscard]] std::uint64_t transcoded_bridges() const noexcept {
    return transcoded_bridges_;
  }
  /// Media frames that paid per-frame transcode work while being relayed.
  [[nodiscard]] std::uint64_t transcoded_rtp() const noexcept { return transcoded_rtp_; }
  [[nodiscard]] std::uint64_t rtp_dropped_unknown_ssrc() const noexcept {
    return rtp_dropped_no_session_;
  }
  [[nodiscard]] std::size_t active_bridges() const noexcept { return bridges_.size(); }
  /// Calls rejected by per-user concurrent-call policy (Directory limits) —
  /// the "effective call policy" knob the paper's conclusion proposes.
  [[nodiscard]] std::uint64_t policy_rejections() const noexcept { return policy_rejections_; }
  /// Predictive-CAC state (meaningful under kErlangPredictive).
  [[nodiscard]] const ErlangPredictiveCac& cac() const noexcept { return cac_; }

  // ---- the NIC census: what a capture on the PBX's interface sees ----
  // Every delivered packet counts on arrival, before the PBX drops it or not.

  [[nodiscard]] const SipCensus& sip_census() const noexcept { return sip_census_; }
  /// RTP packets in (the paper's per-experiment RTP message count).
  [[nodiscard]] std::uint64_t rtp_packets_in() const noexcept { return rtp_in_; }
  [[nodiscard]] std::uint64_t rtcp_packets_in() const noexcept { return rtcp_in_; }

  // Every RTP/RTCP arrival ends in one named outcome: relayed, dropped for
  // lack of a session, absorbed by voicemail, or dropped in a stall or a
  // dead window (Experiment::hop_imbalances balances them).

  /// Callers answered by the one-way-RTP voicemail leg (ACD overflow).
  [[nodiscard]] std::uint64_t voicemail_calls() const noexcept { return voicemail_calls_; }
  [[nodiscard]] std::uint64_t voicemail_rtp_absorbed() const noexcept {
    return voicemail_rtp_absorbed_;
  }

  // ---- fault injection: degradation modes ----

  /// Freezes SIP processing until `now + stall` (GC pause / disk stall
  /// model): SIP messages arriving meanwhile are deferred to the stall end,
  /// RTP arriving meanwhile is dropped (the relay thread is wedged too).
  /// Overlapping stalls extend the frozen window.
  void stall_for(Duration stall);

  /// Kills the process: every bridge, queued call and SIP transaction dies
  /// silently (channel-state loss), the service backlog is discarded, and
  /// all packets are dropped until `now + dead_for` (restart dead time).
  void crash_restart(Duration dead_for);

  // SIP service-queue / overload observations.
  [[nodiscard]] std::uint32_t sip_backlog() const noexcept { return sip_backlog_; }
  [[nodiscard]] std::uint64_t sip_queue_dropped() const noexcept { return sip_queue_dropped_; }
  /// INVITEs shed by the stateless 503 + Retry-After overload gate.
  [[nodiscard]] std::uint64_t overload_rejections() const noexcept {
    return overload_rejections_;
  }
  [[nodiscard]] std::uint64_t crashes() const noexcept { return crashes_; }
  [[nodiscard]] std::uint64_t stalls() const noexcept { return stalls_; }
  [[nodiscard]] std::uint64_t dropped_while_dead() const noexcept {
    return sip_dropped_dead_ + media_dropped_dead_;
  }
  /// RTP/RTCP packets that reached a crashed PBX.
  [[nodiscard]] std::uint64_t media_dropped_dead() const noexcept { return media_dropped_dead_; }
  [[nodiscard]] std::uint64_t rtp_dropped_stall() const noexcept { return rtp_dropped_stall_; }

 private:
  /// One live call. It exists from admission until close_bridge erases it,
  /// so a Call-ID or SSRC that finds no bridge belongs to a closed call.
  /// The Call-IDs, the caller's user and the peers' hosts are read from the
  /// shared identity blocks and payloads below, not copied.
  struct Bridge {
    /// Leg A's INVITE, for building responses, until the call is answered;
    /// then the 200 OK that answered it, resent to a late retransmission.
    std::shared_ptr<const sip::SipPayload> msg_a;
    std::shared_ptr<const sip::SipPayload> invite_b;  // our re-originated INVITE, as sent
    /// Leg A's identity with the To-tag we assign, built once and shared by
    /// every leg A response and dialog_a. Its Call-ID keys bridges_.
    std::shared_ptr<const sip::DialogIdentity> id_a;
    sip::ServerTransaction* invite_txn_a{nullptr};  // valid until final sent
    sip::Dialog dialog_a;             // established leg A dialog (UAS side)
    sip::Dialog dialog_b;             // established leg B dialog (UAC side)
    std::uint32_t ssrc_a{0};          // caller's media SSRC
    std::uint32_t ssrc_b{0};          // callee's media SSRC
    net::NodeId caller_node{net::kInvalidNode};
    net::NodeId callee_node{net::kInvalidNode};
    std::size_t cdr{0};
    /// Terminating voicemail leg: leg A only, inbound RTP absorbed.
    bool voicemail{false};
    /// Set when the callee side is an ACD agent (close notifies the ACD).
    bool acd_tracked{false};
    std::size_t acd_queue{0};
    std::uint32_t acd_agent{0};
    /// PBX anchor ports advertised to each leg (released on close; 0 = none).
    std::uint16_t port_a{0};
    std::uint16_t port_b{0};
    /// Caller's preferred payload type among the PBX-allowed set (front of
    /// the filtered offer) — what leg A is answered with under transcoding.
    std::uint8_t pt_offer_a{0};
    /// Codec-mismatched legs: every relayed media frame pays
    /// `transcode_work` (decode + encode) per direction on top of the base
    /// relay cost, and is re-framed to the out-leg codec's wire size.
    bool transcoded{false};
    Duration transcode_work{Duration::zero()};
    std::uint32_t rtp_bytes_to_caller{0};  // out-leg wire size toward leg A
    std::uint32_t rtp_bytes_to_callee{0};  // out-leg wire size toward leg B
    // Call-lifecycle tracing (0 = no span open / tracing disabled).
    std::uint64_t span_track{0};
    telemetry::SpanTracer::SpanId setup_span{0};
    telemetry::SpanTracer::SpanId media_span{0};

    [[nodiscard]] const std::string& call_id_a() const noexcept { return id_a->call_id; }
    [[nodiscard]] const std::string& caller_user() const noexcept {
      return id_a->from.uri.user();
    }
    [[nodiscard]] bool answered() const noexcept { return msg_a->msg.is_response(); }
  };
  // Measured: at 1 KiB or more, each call's bridges_ node allocation takes
  // glibc's large-bin path and runs malloc_consolidate once per call.
  static_assert(sizeof(Bridge) < 1000, "a bridge must stay under 1 KiB");

  /// on_receive past the census: a SIP message deferred by a stall comes
  /// back here, counted once.
  void accept(const net::Packet& pkt);
  void handle_request(const sip::Message& req, sip::ServerTransaction& txn);
  void handle_invite(const sip::Message& req, sip::ServerTransaction& txn);
  void handle_register(const sip::Message& req, sip::ServerTransaction& txn);
  /// Continues admission once a channel is held (builds leg B, etc.).
  /// Returns the new bridge, or null after rejecting the call (the channel
  /// is released and the CDR closed).
  Bridge* start_bridge(const sip::Message& req, sip::ServerTransaction& txn, std::size_t cdr);
  /// Adds the bridge for the INVITE `req`: leg A's tagged identity (a fresh
  /// To-tag), the caller's node and the per-user call count.
  Bridge& open_bridge(const sip::Message& req);
  void admit_invite(const sip::Message& req, sip::ServerTransaction& txn);
  void handle_bye(const sip::Message& req, sip::ServerTransaction& txn);
  void on_leg_b_response(std::string_view call_id_b, const sip::Message& resp);
  void on_leg_b_timeout(std::string_view call_id_b);
  void reject(const sip::Message& req, sip::ServerTransaction& txn, int code,
              Duration retry_after = Duration::zero());
  /// Enqueues a SIP packet into the single-worker service model.
  void enqueue_sip(const net::Packet& pkt);
  [[nodiscard]] bool overload_gate_rejects(const sip::Message& msg, TimePoint now) const;
  /// Retry-After advertised on blocked-call 503s (zero unless overload
  /// control is enabled — plain rejections carry no backoff hint).
  [[nodiscard]] Duration blocked_retry_after() const noexcept {
    return config_.overload.enabled ? config_.overload.retry_after : Duration::zero();
  }
  void relay_rtp(const net::Packet& pkt);
  void register_media(Bridge& bridge);
  /// Releases the bridge's channel, ports and lookups, closes its CDR and
  /// erases it; `bridge` dangles afterwards.
  void close_bridge(Bridge& bridge, Disposition disposition);

  /// ACD serve hook: acquires a channel and launches the bridge toward the
  /// picked agent's queue destination.
  AcdSubsystem::ServeOutcome acd_serve(const sip::Message& req, sip::ServerTransaction& txn,
                                       std::size_t cdr, std::size_t queue_index,
                                       std::uint32_t agent_id);
  /// ACD overflow hook: answers the caller into a terminating voicemail leg
  /// (one-way RTP, absorbed at the PBX). False when out of channels/ports.
  bool start_voicemail(const sip::Message& req, sip::ServerTransaction& txn, std::size_t cdr,
                       std::size_t queue_index);

  [[nodiscard]] sip::Sdp anchored_sdp(const sip::Sdp& original, std::uint16_t port);

  PbxConfig config_;
  ChannelPool channels_;
  CpuModel cpu_;
  CdrLog cdrs_;
  Dialplan dialplan_;
  Directory directory_;
  Registrar registrar_;
  ErlangPredictiveCac cac_;

  /// Live bridges by leg A Call-ID. The two indexes below point into it
  /// (node-based, so the pointers survive inserts of other bridges). Each
  /// Call-ID key views a Call-ID in its bridge's own id_a or invite_b.
  std::unordered_map<std::string_view, Bridge> bridges_;
  std::unordered_map<std::string_view, Bridge*> by_call_id_b_;
  /// Answered bridges by either leg's SSRC: the relay's per-packet lookup.
  rtp::SsrcTable<Bridge> by_ssrc_;

  /// Live calls per caller, for the per-user limit; no zero entries.
  std::unordered_map<std::string, std::uint32_t> active_calls_by_user_;
  std::uint64_t policy_rejections_{0};
  std::uint64_t cac_rejections_{0};
  std::uint64_t channel_rejections_{0};
  std::uint64_t invites_{0};
  std::uint64_t answered_{0};
  std::uint64_t failed_{0};
  std::uint64_t b2b_counter_{0};

  MediaPortAllocator media_ports_;
  AcdSubsystem acd_;
  std::uint64_t voicemail_calls_{0};
  std::uint64_t voicemail_rtp_absorbed_{0};
  std::uint64_t rtp_relayed_{0};
  std::uint64_t transcoded_bridges_{0};
  std::uint64_t transcoded_rtp_{0};
  std::uint64_t rtp_dropped_no_session_{0};

  // SIP service queue + degradation state.
  TimePoint sip_busy_until_{};   // single worker: when it frees up
  std::uint32_t sip_backlog_{0};
  std::uint64_t boot_epoch_{0};  // bumped per crash; orphans queued work
  TimePoint dead_until_{};       // crash: drop everything before this
  TimePoint stall_until_{};      // stall: defer SIP / drop RTP before this
  /// Branches of INVITEs accepted into the service queue but not yet
  /// serviced. Their retransmissions must pass the overload gate: no server
  /// transaction exists yet, and an out-of-band 503 would race the queued
  /// original (caller gives up, PBX admits — a leaked channel).
  std::unordered_set<std::string> queued_invite_branches_;
  /// Branches the overload gate answered 503. The caller ACKs that final
  /// (non-2xx ACK, same branch); the gate must absorb it as cheaply as it
  /// shed the INVITE, or each shed call still costs a service slot and the
  /// "stateless" rejection feeds the very queue it protects.
  std::unordered_set<std::string> shed_invite_branches_;
  std::uint64_t sip_queue_dropped_{0};
  std::uint64_t overload_rejections_{0};
  std::uint64_t crashes_{0};
  std::uint64_t stalls_{0};
  std::uint64_t sip_dropped_dead_{0};
  std::uint64_t media_dropped_dead_{0};
  std::uint64_t rtp_dropped_stall_{0};

  SipCensus sip_census_;
  std::uint64_t rtp_in_{0};
  std::uint64_t rtcp_in_{0};

  telemetry::SpanTracer* tracer_{nullptr};  // null when tracing is off
  std::uint32_t span_setup_name_{0};
  std::uint32_t span_media_name_{0};
  std::uint32_t span_teardown_name_{0};
};

}  // namespace pbxcap::pbx
