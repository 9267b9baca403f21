// Unit tests for the load generator: scenario math, user naming, and small
// end-to-end generator runs against the PBX.
#include <gtest/gtest.h>

#include "exp/testbed.hpp"
#include "loadgen/receiver.hpp"
#include "loadgen/scenario.hpp"
#include "net/network.hpp"
#include "net/switch_node.hpp"
#include "sip/sdp.hpp"

namespace {

using namespace pbxcap;

TEST(Scenario, OfferedErlangsIsLambdaTimesHold) {
  loadgen::CallScenario s;
  s.arrival_rate_per_s = 2.0;
  s.hold_time = Duration::seconds(120);
  EXPECT_DOUBLE_EQ(s.offered_erlangs(), 240.0);  // Table I's heaviest column
}

TEST(Scenario, ForOfferedLoadInverts) {
  const auto s = loadgen::CallScenario::for_offered_load(160.0);
  EXPECT_NEAR(s.offered_erlangs(), 160.0, 1e-9);
  EXPECT_NEAR(s.arrival_rate_per_s, 160.0 / 120.0, 1e-9);
  const auto s2 = loadgen::CallScenario::for_offered_load(150.0, Duration::minutes(3));
  EXPECT_NEAR(s2.arrival_rate_per_s, 150.0 / 180.0, 1e-9);
}

TEST(Scenario, CallIndexParsing) {
  EXPECT_EQ(loadgen::call_index_of_user("recv-17"), 17u);
  EXPECT_EQ(loadgen::call_index_of_user("caller-0"), 0u);
  EXPECT_FALSE(loadgen::call_index_of_user("noindex").has_value());
  EXPECT_FALSE(loadgen::call_index_of_user("recv-x").has_value());
}

TEST(Generator, OffersApproximatelyLambdaTimesWindow) {
  exp::TestbedConfig config;
  config.scenario.arrival_rate_per_s = 0.5;
  config.scenario.placement_window = Duration::seconds(60);
  config.scenario.hold_time = Duration::seconds(5);
  config.seed = 3;
  const auto report = exp::run_testbed(config);
  // Poisson(30): nearly always within [12, 48].
  EXPECT_GT(report.calls_attempted, 12u);
  EXPECT_LT(report.calls_attempted, 48u);
  EXPECT_EQ(report.calls_attempted, report.calls_completed + report.calls_blocked +
                                        report.calls_failed);
}

TEST(Generator, CompletedCallsCarryBothDirectionsQuality) {
  exp::TestbedConfig config;
  config.scenario.arrival_rate_per_s = 0.2;
  config.scenario.placement_window = Duration::seconds(20);
  config.scenario.hold_time = Duration::seconds(5);
  config.seed = 11;
  const auto report = exp::run_testbed(config);
  ASSERT_GT(report.calls_completed, 0u);
  // MOS pooled over both directions: two samples per completed call.
  EXPECT_EQ(report.mos.count(), 2 * report.calls_completed);
  EXPECT_GT(report.mos.min(), 4.0);  // clean LAN: the paper's "above 4"
}

TEST(Generator, MaxCallsCapsAttempts) {
  exp::TestbedConfig config;
  config.scenario.arrival_rate_per_s = 10.0;
  config.scenario.placement_window = Duration::seconds(30);
  config.scenario.hold_time = Duration::seconds(2);
  config.scenario.max_calls = 5;
  config.seed = 4;
  const auto report = exp::run_testbed(config);
  EXPECT_EQ(report.calls_attempted, 5u);
}

TEST(Generator, FinitePopulationLimitsConcurrency) {
  exp::TestbedConfig config;
  config.scenario.finite_population = 3;
  config.scenario.per_user_rate_per_s = 0.5;
  config.scenario.placement_window = Duration::seconds(60);
  config.scenario.hold_time = Duration::seconds(10);
  config.seed = 5;
  const auto report = exp::run_testbed(config);
  EXPECT_GT(report.calls_attempted, 0u);
  // Only 3 users exist: never more than 3 concurrent channels.
  EXPECT_LE(report.channels_peak, 3u);
  EXPECT_EQ(report.calls_blocked, 0u);
}

TEST(Generator, StochasticHoldTimesComplete) {
  exp::TestbedConfig config;
  config.scenario.arrival_rate_per_s = 0.3;
  config.scenario.placement_window = Duration::seconds(30);
  config.scenario.hold_time = Duration::seconds(5);
  config.scenario.hold_model = sim::HoldTimeModel::kExponential;
  config.seed = 6;
  const auto report = exp::run_testbed(config);
  EXPECT_GT(report.calls_completed, 0u);
  EXPECT_EQ(report.calls_failed, 0u);
}

// ---- SipReceiver against a scripted UAC --------------------------------------

/// A bare UAC: sends hand-built SIP and RTP, and keeps every SIP response.
class ScriptedUac final : public net::Node {
 public:
  ScriptedUac() : net::Node{"uac"} {}

  void on_receive(const net::Packet& pkt) override {
    if (const auto* sip = pkt.payload_as<sip::SipPayload>()) responses.push_back(sip->msg);
  }

  void send_sip(sip::Message msg, net::NodeId dst) {
    net::Packet pkt;
    pkt.dst = dst;
    pkt.kind = net::PacketKind::kSip;
    auto payload = std::make_shared<const sip::SipPayload>(std::move(msg));
    pkt.size_bytes = net::wire_size(payload->wire_bytes);
    pkt.payload = std::move(payload);
    send(std::move(pkt));
  }

  void send_rtp(const rtp::RtpHeader& header, net::NodeId dst) {
    net::Packet pkt;
    pkt.dst = dst;
    pkt.kind = net::PacketKind::kRtp;
    pkt.size_bytes = 200;
    pkt.rtp = header;
    send(std::move(pkt));
  }

  std::vector<sip::Message> responses;
};

struct ReceiverFixture : ::testing::Test {
  static constexpr std::uint32_t kUacSsrc = 4242;

  sim::Simulator simulator;
  net::Network network{simulator, sim::Random{5}};
  sip::HostResolver resolver;
  rtp::SsrcAllocator ssrcs;
  net::SwitchNode sw{"sw"};
  ScriptedUac uac;
  loadgen::SipReceiver receiver{"recv.unb.br", simulator, resolver, ssrcs, {}};

  void SetUp() override {
    network.attach(sw);
    network.attach(uac);
    network.attach(receiver);
    network.connect(uac, sw, {});
    network.connect(receiver, sw, {});
    resolver.add("uac.unb.br", uac.id());
    receiver.bind();
  }

  sip::Message request(sip::Method method, std::uint32_t cseq, const std::string& branch,
                       const std::string& to_tag) const {
    sip::Message msg = sip::Message::request(method, sip::Uri{"recv-7", "recv.unb.br"});
    msg.vias().push_back(sip::Via{"uac.unb.br", branch});
    msg.from() = sip::NameAddr{sip::Uri{"caller-7", "uac.unb.br"}, "uac-tag"};
    msg.to() = sip::NameAddr{sip::Uri{"recv-7", "recv.unb.br"}, to_tag};
    msg.set_call_id("call-7@uac.unb.br");
    msg.set_cseq({cseq, method});
    msg.set_contact(sip::Uri{"caller-7", "uac.unb.br"});
    return msg;
  }

  sip::Message invite() const {
    sip::Message msg = request(sip::Method::kInvite, 1, "z9hG4bK-invite", "");
    sip::Sdp offer;
    offer.connection_host = "uac.unb.br";
    offer.audio.rtp_port = 30'000;
    offer.audio.payload_types = {rtp::payload_type::kPcmu};
    offer.audio.ssrc = kUacSsrc;
    msg.set_body(offer.to_string(), "application/sdp");
    return msg;
  }

  void run_for(Duration d) { simulator.run_until(simulator.now() + d); }
};

TEST_F(ReceiverFixture, InviteRetransmittedAfterThe200ReusesItsSession) {
  uac.send_sip(invite(), receiver.id());
  run_for(Duration::seconds(1));  // 180, then the 200 that ends the transaction
  ASSERT_EQ(uac.responses.size(), 2u);
  const sip::Message first_ok = uac.responses.back();
  ASSERT_EQ(first_ok.status_code(), sip::status::kOk);

  // The same INVITE again (a retransmission whose 200 was lost): it opens a
  // fresh server transaction and must get the original answer back at once.
  uac.send_sip(invite(), receiver.id());
  run_for(Duration::seconds(1));
  ASSERT_EQ(uac.responses.size(), 3u) << "no 180, only the repeated 200";
  const sip::Message& second_ok = uac.responses.back();
  ASSERT_EQ(second_ok.status_code(), sip::status::kOk);
  EXPECT_EQ(second_ok.to().tag, first_ok.to().tag);
  const auto first_sdp = sip::Sdp::parse(first_ok.body());
  const auto second_sdp = sip::Sdp::parse(second_ok.body());
  ASSERT_TRUE(first_sdp.has_value());
  ASSERT_TRUE(second_sdp.has_value());
  EXPECT_EQ(second_sdp->audio.ssrc, first_sdp->audio.ssrc);
  EXPECT_EQ(receiver.active_sessions(), 1u);
  EXPECT_EQ(receiver.calls_answered(), 1u);
  EXPECT_EQ(ssrcs.allocate(), 2u) << "the repeat must not allocate an SSRC";

  // Media after the repeat lands in the surviving session.
  uac.send_sip(request(sip::Method::kAck, 1, "z9hG4bK-ack", first_ok.to().tag), receiver.id());
  constexpr std::uint16_t kPackets = 25;
  for (std::uint16_t i = 0; i < kPackets; ++i) {
    uac.send_rtp({.ssrc = kUacSsrc,
                  .timestamp = 160U * i,
                  .sequence = i,
                  .payload_type = rtp::payload_type::kPcmu,
                  .marker = i == 0},
                 receiver.id());
    run_for(Duration::millis(20));
  }
  uac.send_sip(request(sip::Method::kBye, 2, "z9hG4bK-bye", first_ok.to().tag), receiver.id());
  run_for(Duration::seconds(1));
  EXPECT_EQ(receiver.active_sessions(), 0u);
  const loadgen::HeardQuality* heard = receiver.finished(7);
  ASSERT_NE(heard, nullptr);
  EXPECT_EQ(heard->rtp_received, kPackets);
}

TEST_F(ReceiverFixture, ByeThatMatchesNoSessionIsAnswered481) {
  // RFC 3261 §15.1.2: a BYE outside any dialog gets 481, not 200.
  uac.send_sip(request(sip::Method::kBye, 2, "z9hG4bK-stray", "no-such-tag"), receiver.id());
  run_for(Duration::seconds(1));
  ASSERT_EQ(uac.responses.size(), 1u);
  EXPECT_EQ(uac.responses.back().status_code(), 481);

  // A call, its BYE (200), then a second BYE on a fresh branch (481).
  uac.send_sip(invite(), receiver.id());
  run_for(Duration::seconds(1));
  ASSERT_EQ(uac.responses.back().status_code(), sip::status::kOk);
  const std::string tag = uac.responses.back().to().tag;
  uac.send_sip(request(sip::Method::kAck, 1, "z9hG4bK-ack", tag), receiver.id());
  uac.send_sip(request(sip::Method::kBye, 2, "z9hG4bK-bye", tag), receiver.id());
  run_for(Duration::seconds(1));
  EXPECT_EQ(uac.responses.back().status_code(), sip::status::kOk);
  EXPECT_EQ(receiver.active_sessions(), 0u);
  uac.send_sip(request(sip::Method::kBye, 3, "z9hG4bK-bye-again", tag), receiver.id());
  run_for(Duration::seconds(1));
  EXPECT_EQ(uac.responses.back().status_code(), 481);
  EXPECT_EQ(uac.responses.size(), 5u);  // 481, 180, 200, 200, 481
}

}  // namespace
