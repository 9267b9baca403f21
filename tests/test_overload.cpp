// Behavioural tests for SIP overload control: the stateless 503 + Retry-After
// gate ahead of the PBX's service queue, the caller's backoff-and-retry
// policy, and the PBX degradation modes (stall, crash/restart) the
// fault-injection subsystem drives.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "exp/testbed.hpp"
#include "loadgen/receiver.hpp"
#include "loadgen/scenario.hpp"
#include "net/network.hpp"
#include "net/switch_node.hpp"
#include "pbx/asterisk_pbx.hpp"
#include "sim/simulator.hpp"
#include "sip/sdp.hpp"

namespace {

using namespace pbxcap;
using sip::Message;
using sip::Method;

/// Minimal scripted UA: sends INVITEs/OPTIONS at the PBX, records finals.
class OverloadUa final : public sip::SipEndpoint {
 public:
  OverloadUa(std::string host, sim::Simulator& simulator, sip::HostResolver& resolver)
      : sip::SipEndpoint{"overload-ua", std::move(host), simulator, resolver} {}

  void invite(const std::string& callee_user, const std::string& pbx_host) {
    Message msg = Message::request(Method::kInvite, sip::Uri{callee_user, pbx_host});
    msg.from() = {sip::Uri{"tester", sip_host()}, new_tag()};
    msg.to() = {sip::Uri{callee_user, pbx_host}, ""};
    msg.set_call_id("oc-call-" + std::to_string(++counter_) + "@" + sip_host());
    msg.set_cseq({1, Method::kInvite});
    msg.set_contact(sip::Uri{"tester", sip_host()});
    sip::Sdp offer;
    offer.connection_host = sip_host();
    offer.audio.rtp_port = 40'000;
    offer.audio.payload_types = {0};
    offer.audio.ssrc = static_cast<std::uint32_t>(++counter_ + 100u);
    msg.set_body(offer.to_string(), "application/sdp");
    last_invite = std::make_unique<Message>(msg);
    send_request_to(
        msg, resolver().resolve(pbx_host),
        [this](const Message& resp) {
          if (sip::is_final(resp.status_code())) {
            finals.push_back(resp);
            final_times.push_back(network()->simulator().now());
          }
        },
        [this] { ++timeouts; });
  }

  void ack_last(const std::string& pbx_host) {
    ASSERT_FALSE(finals.empty());
    ASSERT_TRUE(sip::is_success(finals.back().status_code()));
    dialog = sip::Dialog::from_uac(*last_invite, finals.back());
    send_stateless_to(dialog.make_ack(), resolver().resolve(pbx_host));
  }

  void options(const std::string& pbx_host) {
    Message msg = Message::request(Method::kOptions, sip::Uri{"", pbx_host});
    msg.from() = {sip::Uri{"tester", sip_host()}, new_tag()};
    msg.to() = {sip::Uri{"tester", pbx_host}, ""};
    msg.set_call_id("oc-opt-" + std::to_string(++counter_) + "@" + sip_host());
    msg.set_cseq({1, Method::kOptions});
    send_request_to(msg, resolver().resolve(pbx_host), [this](const Message& resp) {
      if (sip::is_final(resp.status_code())) {
        finals.push_back(resp);
        final_times.push_back(network()->simulator().now());
      }
    });
  }

  std::vector<Message> finals;
  std::vector<TimePoint> final_times;
  int timeouts{0};
  sip::Dialog dialog;
  std::unique_ptr<Message> last_invite;

 private:
  std::uint64_t counter_{0};
};

struct OverloadFixture : ::testing::Test {
  sim::Simulator simulator;
  net::Network network{simulator, sim::Random{11}};
  sip::HostResolver resolver;
  rtp::SsrcAllocator ssrcs;
  net::SwitchNode lan_switch{"switch"};
  pbx::PbxConfig pbx_config;
  std::unique_ptr<pbx::AsteriskPbx> pbx;
  std::unique_ptr<OverloadUa> ua;
  std::unique_ptr<loadgen::SipReceiver> receiver;

  void build() {
    pbx = std::make_unique<pbx::AsteriskPbx>(pbx_config, simulator, resolver);
    ua = std::make_unique<OverloadUa>("ua.unb.br", simulator, resolver);
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

TEST_F(OverloadFixture, GateSheds503WithRetryAfterWhenChannelsFull) {
  pbx_config.max_channels = 1;
  pbx_config.sip_service.enabled = true;
  pbx_config.sip_service.service_time = Duration::millis(1);
  pbx_config.overload.enabled = true;
  pbx_config.overload.retry_after = Duration::seconds(2);
  build();

  ua->invite("recv-1", pbx->sip_host());
  run_for(Duration::seconds(1));
  ASSERT_EQ(ua->finals.size(), 1u);
  ASSERT_EQ(ua->finals[0].status_code(), 200);
  ua->ack_last(pbx->sip_host());
  run_for(Duration::millis(100));
  ASSERT_EQ(pbx->channels().in_use(), 1u);

  // Second INVITE while the only channel is held: the stateless gate sheds
  // it before the service queue — 503 with the configured Retry-After.
  ua->invite("recv-2", pbx->sip_host());
  run_for(Duration::seconds(1));
  ASSERT_EQ(ua->finals.size(), 2u);
  EXPECT_EQ(ua->finals[1].status_code(), sip::status::kServiceUnavailable);
  const std::string* retry_after = ua->finals[1].header("Retry-After");
  ASSERT_NE(retry_after, nullptr);
  EXPECT_EQ(*retry_after, "2");
  EXPECT_EQ(pbx->overload_rejections(), 1u);
  // The gate's 503 is an out-of-transaction final; the caller's ACK for it
  // must be absorbed at the front door, not billed to the service queue.
  run_for(Duration::seconds(1));
  EXPECT_EQ(pbx->sip_backlog(), 0u);
}

TEST_F(OverloadFixture, GateDisabledMeansFullPathRejection) {
  pbx_config.max_channels = 1;
  pbx_config.sip_service.enabled = true;
  pbx_config.sip_service.service_time = Duration::millis(1);
  pbx_config.overload.enabled = false;
  build();

  ua->invite("recv-1", pbx->sip_host());
  run_for(Duration::seconds(1));
  ua->ack_last(pbx->sip_host());
  run_for(Duration::millis(100));

  ua->invite("recv-2", pbx->sip_host());
  run_for(Duration::seconds(1));
  ASSERT_EQ(ua->finals.size(), 2u);
  // Still 503 (channel exhaustion), but via the expensive full path: no gate
  // involvement, no Retry-After hint.
  EXPECT_EQ(ua->finals[1].status_code(), sip::status::kServiceUnavailable);
  EXPECT_EQ(ua->finals[1].header("Retry-After"), nullptr);
  EXPECT_EQ(pbx->overload_rejections(), 0u);
}

TEST_F(OverloadFixture, GatePassesALateRetransmissionOfAnAnsweredCall) {
  pbx_config.max_channels = 1;
  pbx_config.sip_service.enabled = true;
  pbx_config.sip_service.service_time = Duration::millis(1);
  pbx_config.overload.enabled = true;
  build();

  ua->invite("recv-1", pbx->sip_host());
  run_for(Duration::seconds(1));
  ASSERT_EQ(ua->finals.size(), 1u);
  ASSERT_EQ(ua->finals[0].status_code(), 200);

  // The pool is full, so the gate sheds new INVITEs. The same INVITE again
  // (its 200 lost, say) is not new work: the PBX answers it from the bridge.
  std::vector<Message> strays;
  ua->transactions().on_stray_response = [&](const Message& resp) { strays.push_back(resp); };
  Message again = *ua->last_invite;
  again.vias() = ua->finals[0].vias();
  ua->send_sip(std::make_shared<const sip::SipPayload>(std::move(again)), pbx->id());
  run_for(Duration::seconds(1));
  ASSERT_EQ(strays.size(), 1u);
  EXPECT_EQ(strays[0].status_code(), 200);
  EXPECT_EQ(pbx->overload_rejections(), 0u);
  EXPECT_EQ(pbx->cdrs().size(), 1u);
}

TEST_F(OverloadFixture, StallDefersSipProcessing) {
  build();
  pbx->stall_for(Duration::millis(500));
  ua->options(pbx->sip_host());
  simulator.run();
  ASSERT_EQ(ua->finals.size(), 1u);
  EXPECT_EQ(ua->finals[0].status_code(), 200);
  // The OPTIONS arrived ~instantly but sat frozen until the stall lifted.
  EXPECT_GE(ua->final_times[0], TimePoint::at(Duration::millis(500)));
  EXPECT_EQ(pbx->stalls(), 1u);
}

TEST_F(OverloadFixture, CrashDropsTrafficDuringDeadTime) {
  build();
  pbx->crash_restart(Duration::seconds(2));
  ua->options(pbx->sip_host());
  run_for(Duration::seconds(1));
  EXPECT_TRUE(ua->finals.empty());       // swallowed, not answered
  EXPECT_GE(pbx->dropped_while_dead(), 1u);
  EXPECT_EQ(pbx->crashes(), 1u);
}

// ---------------------------------------------------------------------------
// Caller-side backoff + retry, end to end through the testbed.
// ---------------------------------------------------------------------------

exp::TestbedConfig overloaded_config(std::uint64_t seed) {
  exp::TestbedConfig config;
  config.scenario.arrival_rate_per_s = 6.0;  // ~3x the pool's capacity
  config.scenario.placement_window = Duration::seconds(20);
  config.scenario.hold_time = Duration::seconds(5);
  config.scenario.answer_delay = Duration::millis(20);
  config.pbx.max_channels = 10;
  config.pbx.sip_service.enabled = true;
  config.pbx.sip_service.service_time = Duration::millis(2);
  config.pbx.overload.enabled = true;
  config.pbx.overload.queue_threshold = 8;
  config.pbx.overload.retry_after = Duration::seconds(1);
  config.scenario.retry.enabled = true;
  config.scenario.retry.base_backoff = Duration::seconds(1);
  config.seed = seed;
  config.drain = Duration::seconds(20);
  return config;
}

TEST(OverloadTestbed, CallersBackOffAndRetryAfter503) {
  const auto r = exp::run_testbed(overloaded_config(77));
  EXPECT_GT(r.overload_rejections, 0u);  // the gate fired
  EXPECT_GT(r.calls_retried, 0u);        // callers came back
  EXPECT_GT(r.calls_completed, 20u);     // and the system kept carrying calls
  EXPECT_EQ(r.calls_failed, 0u);         // shed != broken
}

TEST(OverloadTestbed, SameSeedRunsAreIdentical) {
  const auto a = exp::run_testbed(overloaded_config(99));
  const auto b = exp::run_testbed(overloaded_config(99));
  EXPECT_EQ(a.calls_attempted, b.calls_attempted);
  EXPECT_EQ(a.calls_completed, b.calls_completed);
  EXPECT_EQ(a.calls_blocked, b.calls_blocked);
  EXPECT_EQ(a.calls_retried, b.calls_retried);
  EXPECT_EQ(a.overload_rejections, b.overload_rejections);
  EXPECT_EQ(a.sip_retransmissions, b.sip_retransmissions);
  EXPECT_EQ(a.sip_total, b.sip_total);
}

}  // namespace
