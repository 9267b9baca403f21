// Behavioural tests of the Asterisk-like B2BUA at the SIP level: admission
// control, dialplan routing, codec policy, auth, per-user limits, error
// responses, and media-relay bookkeeping.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "loadgen/receiver.hpp"
#include "loadgen/scenario.hpp"
#include "net/network.hpp"
#include "net/switch_node.hpp"
#include "pbx/asterisk_pbx.hpp"
#include "rtp/packet.hpp"
#include "sim/simulator.hpp"
#include "sip/sdp.hpp"

namespace {

using namespace pbxcap;
using sip::Message;
using sip::Method;

/// Minimal scripted UA for driving the PBX directly.
class TestUa final : public sip::SipEndpoint {
 public:
  TestUa(std::string host, sim::Simulator& simulator, sip::HostResolver& resolver)
      : sip::SipEndpoint{"test-ua", std::move(host), simulator, resolver} {
    transactions().on_request = [this](const Message& req, sip::ServerTransaction& txn) {
      requests_seen.push_back(req);
      Message ok = Message::response_to(req, 200);
      txn.respond(ok);
    };
    transactions().on_ack = [this](const Message&) { ++acks_seen; };
  }

  /// Sends an INVITE through the PBX; final status lands in `final_codes`.
  void invite(const std::string& callee_user, const std::string& pbx_host,
              std::uint32_t ssrc = 0, std::uint8_t payload_type = 0,
              bool include_sdp = true, const std::string& caller_user = "tester") {
    Message msg = Message::request(Method::kInvite, sip::Uri{callee_user, pbx_host});
    msg.from() = {sip::Uri{caller_user, sip_host()}, new_tag()};
    msg.to() = {sip::Uri{callee_user, pbx_host}, ""};
    msg.set_call_id("t-call-" + std::to_string(++call_counter_) + "@" + sip_host());
    msg.set_cseq({1, Method::kInvite});
    msg.set_contact(sip::Uri{caller_user, sip_host()});
    if (include_sdp) {
      sip::Sdp offer;
      offer.connection_host = sip_host();
      offer.audio.rtp_port = 40'000;
      offer.audio.payload_types = {payload_type};
      offer.audio.ssrc = ssrc;
      msg.set_body(offer.to_string(), "application/sdp");
    }
    last_invite = std::make_unique<Message>(msg);
    send_request_to(
        msg, resolver().resolve(pbx_host),
        [this](const Message& resp) {
          if (sip::is_final(resp.status_code())) {
            final_codes.push_back(resp.status_code());
            last_final = std::make_unique<Message>(resp);
          } else {
            provisional_codes.push_back(resp.status_code());
          }
        },
        [this] { final_codes.push_back(-1); });
  }

  /// Completes the dialog for the most recent 2xx (sends the ACK).
  void ack_last(const std::string& pbx_host) {
    ASSERT_NE(last_final, nullptr);
    ASSERT_TRUE(sip::is_success(last_final->status_code()));
    dialog = sip::Dialog::from_uac(*last_invite, *last_final);
    send_stateless_to(dialog.make_ack(), resolver().resolve(pbx_host));
  }

  void bye(const std::string& pbx_host) {
    send_request_to(dialog.make_request(Method::kBye), resolver().resolve(pbx_host),
                    [this](const Message& resp) { bye_codes.push_back(resp.status_code()); });
  }

  /// Raw non-INVITE request (OPTIONS/REGISTER/stray BYE). REGISTER carries
  /// a Contact (mandatory for binding) and an optional Expires header.
  void send_simple(Method method, const std::string& pbx_host,
                   std::optional<int> expires = std::nullopt,
                   const std::string& user = "tester") {
    Message msg = Message::request(method, sip::Uri{"", pbx_host});
    msg.from() = {sip::Uri{user, sip_host()}, new_tag()};
    msg.to() = {sip::Uri{user, pbx_host}, ""};
    msg.set_call_id("t-simple-" + std::to_string(++call_counter_) + "@" + sip_host());
    msg.set_cseq({1, method});
    if (method == Method::kRegister) {
      msg.set_contact(sip::Uri{user, sip_host()});
      if (expires) msg.add_header("Expires", std::to_string(*expires));
    }
    send_request_to(msg, resolver().resolve(pbx_host), [this](const Message& resp) {
      if (sip::is_final(resp.status_code())) final_codes.push_back(resp.status_code());
    });
  }

  std::vector<int> final_codes;
  std::vector<int> provisional_codes;
  std::vector<int> bye_codes;
  std::vector<Message> requests_seen;
  int acks_seen{0};
  sip::Dialog dialog;
  std::unique_ptr<Message> last_invite;
  std::unique_ptr<Message> last_final;

 private:
  std::uint64_t call_counter_{0};
};

struct PbxFixture : ::testing::Test {
  sim::Simulator simulator;
  net::Network network{simulator, sim::Random{3}};
  sip::HostResolver resolver;
  rtp::SsrcAllocator ssrcs;
  net::SwitchNode lan_switch{"switch"};
  pbx::PbxConfig pbx_config;
  std::unique_ptr<pbx::AsteriskPbx> pbx;
  std::unique_ptr<TestUa> ua;
  std::unique_ptr<loadgen::SipReceiver> receiver;

  void build() {
    pbx = std::make_unique<pbx::AsteriskPbx>(pbx_config, simulator, resolver);
    ua = std::make_unique<TestUa>("ua.unb.br", simulator, resolver);
    loadgen::CallScenario scenario;
    scenario.answer_delay = Duration::millis(10);
    receiver = std::make_unique<loadgen::SipReceiver>("server.unb.br", simulator, resolver,
                                                      ssrcs, scenario);
    network.attach(lan_switch);
    network.attach(*pbx);
    network.attach(*ua);
    network.attach(*receiver);
    network.connect(*ua, lan_switch, {});
    network.connect(*pbx, lan_switch, {});
    network.connect(*receiver, lan_switch, {});
    pbx->bind();
    ua->bind();
    receiver->bind();
    pbx->dialplan().add("recv-", receiver->sip_host());
  }

  void run_for(Duration d) { simulator.run_until(simulator.now() + d); }
};

TEST_F(PbxFixture, OptionsAndRegisterGet200) {
  build();
  ua->send_simple(Method::kOptions, pbx->sip_host());
  ua->send_simple(Method::kRegister, pbx->sip_host());
  run_for(Duration::seconds(1));
  ASSERT_EQ(ua->final_codes.size(), 2u);
  EXPECT_EQ(ua->final_codes[0], 200);
  EXPECT_EQ(ua->final_codes[1], 200);
}

TEST_F(PbxFixture, UnknownExtensionGets404) {
  build();
  ua->invite("nowhere-1", pbx->sip_host(), ssrcs.allocate());
  run_for(Duration::seconds(1));
  ASSERT_EQ(ua->final_codes.size(), 1u);
  EXPECT_EQ(ua->final_codes[0], sip::status::kNotFound);
  EXPECT_EQ(pbx->cdrs().count(pbx::Disposition::kRejected), 1u);
  EXPECT_EQ(pbx->channels().in_use(), 0u);  // channel released on reject
}

TEST_F(PbxFixture, DisallowedCodecGets488) {
  build();
  ua->invite("recv-1", pbx->sip_host(), ssrcs.allocate(), /*payload_type=*/18);  // G.729
  run_for(Duration::seconds(1));
  ASSERT_EQ(ua->final_codes.size(), 1u);
  EXPECT_EQ(ua->final_codes[0], 488);
  EXPECT_EQ(pbx->channels().in_use(), 0u);
}

TEST_F(PbxFixture, MissingSdpGets400) {
  build();
  ua->invite("recv-1", pbx->sip_host(), 0, 0, /*include_sdp=*/false);
  run_for(Duration::seconds(1));
  ASSERT_EQ(ua->final_codes.size(), 1u);
  EXPECT_EQ(ua->final_codes[0], sip::status::kBadRequest);
}

TEST_F(PbxFixture, StrayByeGets481) {
  build();
  ua->send_simple(Method::kBye, pbx->sip_host());
  run_for(Duration::seconds(1));
  ASSERT_EQ(ua->final_codes.size(), 1u);
  EXPECT_EQ(ua->final_codes[0], 481);
}

TEST_F(PbxFixture, ChannelExhaustionGets503AndCongestionCdr) {
  pbx_config.max_channels = 1;
  build();
  ua->invite("recv-1", pbx->sip_host(), ssrcs.allocate());
  run_for(Duration::millis(500));
  ua->invite("recv-2", pbx->sip_host(), ssrcs.allocate());
  run_for(Duration::seconds(1));
  ASSERT_EQ(ua->final_codes.size(), 2u);
  EXPECT_EQ(ua->final_codes[0], 200);
  EXPECT_EQ(ua->final_codes[1], sip::status::kServiceUnavailable);
  EXPECT_EQ(pbx->cdrs().count(pbx::Disposition::kCongestion), 1u);
  EXPECT_EQ(pbx->channels().peak(), 1u);
}

TEST_F(PbxFixture, FullLadderEstablishesAndTearsDown) {
  build();
  const std::uint32_t caller_ssrc = ssrcs.allocate();
  ua->invite("recv-7", pbx->sip_host(), caller_ssrc);
  run_for(Duration::seconds(1));
  ASSERT_EQ(ua->final_codes.size(), 1u);
  ASSERT_EQ(ua->final_codes[0], 200);
  // 100 Trying and 180 Ringing seen as provisionals.
  EXPECT_EQ(ua->provisional_codes.size(), 2u);
  ua->ack_last(pbx->sip_host());
  run_for(Duration::seconds(1));
  EXPECT_EQ(pbx->active_bridges(), 1u);
  EXPECT_EQ(receiver->calls_answered(), 1u);
  EXPECT_EQ(pbx->channels().in_use(), 1u);

  ua->bye(pbx->sip_host());
  run_for(Duration::seconds(2));
  ASSERT_EQ(ua->bye_codes.size(), 1u);
  EXPECT_EQ(ua->bye_codes[0], 200);
  EXPECT_EQ(pbx->active_bridges(), 0u);
  EXPECT_EQ(pbx->channels().in_use(), 0u);
  EXPECT_EQ(pbx->cdrs().count(pbx::Disposition::kAnswered), 1u);
  EXPECT_NE(receiver->finished(7), nullptr);
}

TEST_F(PbxFixture, InviteRetransmittedAfterThe200ReusesItsBridge) {
  build();
  ua->invite("recv-1", pbx->sip_host(), ssrcs.allocate());
  run_for(Duration::seconds(1));
  ASSERT_EQ(ua->final_codes.size(), 1u);
  ASSERT_EQ(ua->final_codes[0], 200);

  // The same INVITE again, same branch: its server transaction ended on the
  // 200, so this one opens a fresh transaction at the PBX. The answer comes
  // back outside the UA's (also ended) client transaction.
  std::vector<Message> strays;
  ua->transactions().on_stray_response = [&](const Message& resp) { strays.push_back(resp); };
  Message again = *ua->last_invite;
  again.vias() = ua->last_final->vias();
  ua->send_sip(std::make_shared<const sip::SipPayload>(std::move(again)), pbx->id());
  run_for(Duration::seconds(1));
  ASSERT_EQ(strays.size(), 1u) << "no 100 Trying, only the repeated 200";
  EXPECT_EQ(strays[0].status_code(), 200);
  EXPECT_EQ(strays[0].to().tag, ua->last_final->to().tag);
  EXPECT_EQ(strays[0].body(), ua->last_final->body());
  EXPECT_EQ(pbx->cdrs().size(), 1u);
  EXPECT_EQ(pbx->channels().peak(), 1u);
  EXPECT_EQ(pbx->active_bridges(), 1u);
  EXPECT_EQ(receiver->calls_answered(), 1u);

  ua->ack_last(pbx->sip_host());
  run_for(Duration::millis(100));
  ua->bye(pbx->sip_host());
  run_for(Duration::seconds(2));
  ASSERT_EQ(ua->bye_codes.size(), 1u);
  EXPECT_EQ(ua->bye_codes[0], 200);
  EXPECT_EQ(pbx->cdrs().size(), 1u);
  EXPECT_EQ(pbx->cdrs().count(pbx::Disposition::kAnswered), 1u);
  EXPECT_EQ(pbx->channels().in_use(), 0u);
  EXPECT_EQ(pbx->active_bridges(), 0u);
  EXPECT_EQ(receiver->active_sessions(), 0u);
}

TEST_F(PbxFixture, SecondInviteOnALiveCallIdGets482) {
  build();
  ua->invite("recv-1", pbx->sip_host(), ssrcs.allocate());
  for (int step = 0; step < 50 && pbx->active_bridges() == 0; ++step) {
    run_for(Duration::micros(100));
  }
  ASSERT_EQ(pbx->active_bridges(), 1u);

  // Same Call-ID, another branch, while leg B still rings: a merged request.
  Message merged = *ua->last_invite;
  merged.vias() = {sip::Via{ua->sip_host(), "z9hG4bK-merged"}};
  ua->send_sip(std::make_shared<const sip::SipPayload>(std::move(merged)), pbx->id());
  run_for(Duration::seconds(1));
  ASSERT_EQ(ua->final_codes.size(), 1u);
  EXPECT_EQ(ua->final_codes[0], 200);  // the first INVITE's call goes on
  EXPECT_EQ(pbx->cdrs().count(pbx::Disposition::kRejected), 1u);
  EXPECT_EQ(pbx->channels().in_use(), 1u);
  EXPECT_EQ(pbx->active_bridges(), 1u);
  EXPECT_EQ(receiver->calls_answered(), 1u);
}

TEST_F(PbxFixture, SecondByeAfterTeardownGets481) {
  build();
  ua->invite("recv-1", pbx->sip_host(), ssrcs.allocate());
  run_for(Duration::seconds(1));
  ua->ack_last(pbx->sip_host());
  run_for(Duration::millis(100));
  ua->bye(pbx->sip_host());
  run_for(Duration::seconds(1));
  ua->bye(pbx->sip_host());
  run_for(Duration::seconds(1));
  ASSERT_EQ(ua->bye_codes.size(), 2u);
  EXPECT_EQ(ua->bye_codes[0], 200);
  EXPECT_EQ(ua->bye_codes[1], 481);
  EXPECT_EQ(pbx->cdrs().count(pbx::Disposition::kAnswered), 1u);
}

TEST_F(PbxFixture, ByeAfterCrashRestartGets481) {
  build();
  ua->invite("recv-1", pbx->sip_host(), ssrcs.allocate());
  run_for(Duration::seconds(1));
  ua->ack_last(pbx->sip_host());
  run_for(Duration::millis(100));
  ASSERT_EQ(pbx->active_bridges(), 1u);

  pbx->crash_restart(Duration::millis(100));
  run_for(Duration::seconds(1));
  ua->bye(pbx->sip_host());
  run_for(Duration::seconds(1));
  ASSERT_EQ(ua->bye_codes.size(), 1u);
  EXPECT_EQ(ua->bye_codes[0], 481);
  EXPECT_EQ(pbx->active_bridges(), 0u);
  EXPECT_EQ(pbx->channels().in_use(), 0u);
  EXPECT_EQ(pbx->media_ports().in_use(), 0u);
  EXPECT_EQ(pbx->cdrs().count(pbx::Disposition::kFailed), 1u);
}

TEST_F(PbxFixture, LegB200AfterCrashRestartOpensNoBridge) {
  build();
  ua->invite("recv-1", pbx->sip_host(), ssrcs.allocate());
  // Step until leg B is out; the receiver answers it 10 ms later.
  for (int step = 0; step < 50 && pbx->active_bridges() == 0; ++step) {
    run_for(Duration::micros(100));
  }
  ASSERT_EQ(pbx->active_bridges(), 1u);
  ASSERT_EQ(receiver->calls_answered(), 0u);

  pbx->crash_restart(Duration::millis(1));
  run_for(Duration::seconds(1));  // the leg B 200 OK lands after the restart
  EXPECT_EQ(receiver->calls_answered(), 1u);
  EXPECT_EQ(pbx->active_bridges(), 0u);
  EXPECT_EQ(pbx->channels().in_use(), 0u);
  EXPECT_EQ(pbx->media_ports().in_use(), 0u);
  EXPECT_EQ(pbx->cdrs().size(), 1u);
  EXPECT_EQ(pbx->cdrs().count(pbx::Disposition::kFailed), 1u);
  EXPECT_TRUE(ua->final_codes.empty());  // a dead process sends no final
}

TEST_F(PbxFixture, AuthRejectsUnknownUserWith403) {
  pbx_config.require_auth = true;
  build();
  pbx->directory().add_user({"alice", true, 0});
  ua->invite("recv-1", pbx->sip_host(), ssrcs.allocate(), 0, true, "stranger");
  run_for(Duration::seconds(1));
  ASSERT_EQ(ua->final_codes.size(), 1u);
  EXPECT_EQ(ua->final_codes[0], 403);
  EXPECT_EQ(pbx->cdrs().count(pbx::Disposition::kRejected), 1u);
}

TEST_F(PbxFixture, AuthAdmitsKnownUserAfterLookupLatency) {
  pbx_config.require_auth = true;
  build();
  pbx->directory().add_user({"alice", true, 0});
  pbx->directory().set_lookup_latency(Duration::millis(50));
  ua->invite("recv-1", pbx->sip_host(), ssrcs.allocate(), 0, true, "alice");
  run_for(Duration::seconds(1));
  ASSERT_EQ(ua->final_codes.size(), 1u);
  EXPECT_EQ(ua->final_codes[0], 200);
  EXPECT_GE(pbx->directory().lookups(), 1u);
}

TEST_F(PbxFixture, PerUserLimitRejectsWith486) {
  build();
  pbx->directory().add_user({"limited", true, 1});
  ua->invite("recv-1", pbx->sip_host(), ssrcs.allocate(), 0, true, "limited");
  run_for(Duration::millis(500));
  ua->invite("recv-2", pbx->sip_host(), ssrcs.allocate(), 0, true, "limited");
  run_for(Duration::seconds(1));
  ASSERT_EQ(ua->final_codes.size(), 2u);
  EXPECT_EQ(ua->final_codes[0], 200);
  EXPECT_EQ(ua->final_codes[1], sip::status::kBusyHere);
  EXPECT_EQ(pbx->policy_rejections(), 1u);
}

TEST_F(PbxFixture, PerUserLimitReleasesOnTeardown) {
  build();
  pbx->directory().add_user({"limited", true, 1});
  ua->invite("recv-1", pbx->sip_host(), ssrcs.allocate(), 0, true, "limited");
  run_for(Duration::millis(500));
  ua->ack_last(pbx->sip_host());
  run_for(Duration::millis(100));
  ua->bye(pbx->sip_host());
  run_for(Duration::seconds(1));
  // The slot freed: a second call from the same user is admitted.
  ua->invite("recv-2", pbx->sip_host(), ssrcs.allocate(), 0, true, "limited");
  run_for(Duration::seconds(1));
  ASSERT_EQ(ua->final_codes.size(), 2u);
  EXPECT_EQ(ua->final_codes[1], 200);
  EXPECT_EQ(pbx->policy_rejections(), 0u);
}

TEST_F(PbxFixture, RtpWithUnknownSsrcIsDroppedAndCounted) {
  build();
  net::Packet pkt;
  pkt.dst = pbx->id();
  pkt.kind = net::PacketKind::kRtp;
  pkt.size_bytes = 218;
  pkt.rtp.ssrc = 0xdeadbeef;
  pkt.src = ua->id();
  // Inject directly at the PBX.
  pbx->on_receive(pkt);
  EXPECT_EQ(pbx->rtp_dropped_unknown_ssrc(), 1u);
  EXPECT_EQ(pbx->rtp_relayed(), 0u);
}

TEST_F(PbxFixture, RegisterCreatesBindingAndRoutesCalls) {
  build();
  // "alice" registers from the receiver host: calls to alice must route
  // there even though no dialplan entry matches.
  ua->send_simple(Method::kRegister, pbx->sip_host(), 600, "alice");
  run_for(Duration::seconds(1));
  ASSERT_EQ(ua->final_codes.size(), 1u);
  EXPECT_EQ(ua->final_codes[0], 200);
  EXPECT_EQ(pbx->registrar().registrations(), 1u);
  EXPECT_EQ(pbx->registrar().active_bindings(simulator.now()), 1u);
  const auto contact = pbx->registrar().lookup("alice", simulator.now());
  ASSERT_TRUE(contact);
  EXPECT_EQ(contact->host(), "ua.unb.br");
}

TEST_F(PbxFixture, RegistrationExpires) {
  build();
  ua->send_simple(Method::kRegister, pbx->sip_host(), 5, "bob");
  run_for(Duration::seconds(1));
  EXPECT_TRUE(pbx->registrar().lookup("bob", simulator.now()).has_value());
  run_for(Duration::seconds(10));
  EXPECT_FALSE(pbx->registrar().lookup("bob", simulator.now()).has_value());
  EXPECT_EQ(pbx->registrar().active_bindings(simulator.now()), 0u);
}

TEST_F(PbxFixture, UnregisterWithExpiresZero) {
  build();
  ua->send_simple(Method::kRegister, pbx->sip_host(), 600, "carol");
  run_for(Duration::seconds(1));
  EXPECT_TRUE(pbx->registrar().lookup("carol", simulator.now()).has_value());
  ua->send_simple(Method::kRegister, pbx->sip_host(), 0, "carol");
  run_for(Duration::seconds(1));
  EXPECT_FALSE(pbx->registrar().lookup("carol", simulator.now()).has_value());
  EXPECT_EQ(pbx->registrar().deregistrations(), 1u);
}

TEST_F(PbxFixture, RegisteredBindingBeatsDialplan) {
  build();
  // recv-5 would route to the receiver via dialplan; a registration for
  // recv-5 pointing at the UA itself must take precedence.
  pbx->registrar().bind("recv-5", sip::Uri{"recv-5", "ua.unb.br"}, 600, simulator.now());
  ua->invite("recv-5", pbx->sip_host(), ssrcs.allocate());
  run_for(Duration::seconds(1));
  // The UA auto-200s requests it receives, so the call succeeds — routed
  // back to the UA, and the receiver never saw it.
  EXPECT_EQ(receiver->calls_answered(), 0u);
  ASSERT_FALSE(ua->requests_seen.empty());
  EXPECT_EQ(ua->requests_seen.front().method(), Method::kInvite);
}

TEST_F(PbxFixture, AuthGatesRegistration) {
  pbx_config.require_auth = true;
  build();
  pbx->directory().add_user({"alice", true, 0});
  ua->send_simple(Method::kRegister, pbx->sip_host(), 600, "alice");
  ua->send_simple(Method::kRegister, pbx->sip_host(), 600, "intruder");
  run_for(Duration::seconds(1));
  ASSERT_EQ(ua->final_codes.size(), 2u);
  EXPECT_EQ(ua->final_codes[0], 200);
  EXPECT_EQ(ua->final_codes[1], 403);
  EXPECT_EQ(pbx->registrar().active_bindings(simulator.now()), 1u);
}

TEST_F(PbxFixture, CdrRecordsTalkTime) {
  build();
  ua->invite("recv-3", pbx->sip_host(), ssrcs.allocate());
  run_for(Duration::seconds(1));
  ua->ack_last(pbx->sip_host());
  run_for(Duration::seconds(5));
  ua->bye(pbx->sip_host());
  run_for(Duration::seconds(1));
  ASSERT_EQ(pbx->cdrs().size(), 1u);
  const auto& rec = pbx->cdrs().records().front();
  EXPECT_EQ(rec.disposition, pbx::Disposition::kAnswered);
  EXPECT_GT(rec.talk_time(), Duration::seconds(4));
  EXPECT_EQ(rec.caller, "tester");
  EXPECT_EQ(rec.callee, "recv-3");
}

}  // namespace
