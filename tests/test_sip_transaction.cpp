// Unit tests for the SIP transaction layer: state machines, retransmission
// timers, timeouts, ACK generation — over a fake lossy wire.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "sip/dialog.hpp"
#include "sip/transaction.hpp"

namespace {

using namespace pbxcap;
using sip::Message;
using sip::Method;

/// `msg` as it arrives off the wire.
std::shared_ptr<const sip::SipPayload> payload_of(const Message& msg) {
  return std::make_shared<const sip::SipPayload>(msg);
}

/// A fake transport that forwards messages to a peer layer after a delay,
/// optionally dropping the first `drop_next` sends. Keeps every payload it
/// was handed, in order, so tests can compare retransmitted pointers.
class FakeWire final : public sip::Transport {
 public:
  FakeWire(sim::Simulator& simulator, net::NodeId self) : simulator_{simulator}, self_{self} {}

  void connect(sip::TransactionLayer& peer_layer, net::NodeId peer_id) {
    peer_ = &peer_layer;
    peer_id_ = peer_id;
  }

  void send_sip(std::shared_ptr<const sip::SipPayload> payload, net::NodeId dst) override {
    ++sent;
    log.push_back(payload);
    if (drop_next > 0) {
      --drop_next;
      ++dropped;
      return;
    }
    if (peer_ == nullptr || dst != peer_id_) return;
    simulator_.schedule_in(delay, [this, payload] { peer_->on_message(payload, self_); });
  }

  [[nodiscard]] const Message* last_sent() const {
    return log.empty() ? nullptr : &log.back()->msg;
  }

  int sent{0};
  int dropped{0};
  int drop_next{0};
  Duration delay{Duration::millis(1)};
  std::vector<std::shared_ptr<const sip::SipPayload>> log;

 private:
  sim::Simulator& simulator_;
  net::NodeId self_;
  sip::TransactionLayer* peer_{nullptr};
  net::NodeId peer_id_{0};
};

struct TxnFixture : ::testing::Test {
  sim::Simulator simulator;
  FakeWire wire_a{simulator, 1};
  FakeWire wire_b{simulator, 2};
  sip::TransactionLayer layer_a{simulator, wire_a, "a.host"};
  sip::TransactionLayer layer_b{simulator, wire_b, "b.host"};

  void SetUp() override {
    wire_a.connect(layer_b, 2);
    wire_b.connect(layer_a, 1);
  }

  Message make_invite() {
    Message invite = Message::request(Method::kInvite, sip::Uri{"callee", "b.host"});
    invite.vias().push_back({"a.host", layer_a.new_branch()});
    invite.from() = {sip::Uri{"caller", "a.host"}, "tag-a"};
    invite.to() = {sip::Uri{"callee", "b.host"}, ""};
    invite.set_call_id("cid-1");
    invite.set_cseq({1, Method::kInvite});
    return invite;
  }

  Message make_bye() {
    Message bye = Message::request(Method::kBye, sip::Uri{"callee", "b.host"});
    bye.vias().push_back({"a.host", layer_a.new_branch()});
    bye.from() = {sip::Uri{"caller", "a.host"}, "tag-a"};
    bye.to() = {sip::Uri{"callee", "b.host"}, "tag-b"};
    bye.set_call_id("cid-1");
    bye.set_cseq({2, Method::kBye});
    return bye;
  }
};

TEST_F(TxnFixture, InviteSuccessDeliversResponsesInOrder) {
  std::vector<int> codes;
  layer_b.on_request = [&](const Message& req, sip::ServerTransaction& txn) {
    Message ringing = Message::response_to(req, 180);
    ringing.to().tag = "tag-b";
    txn.respond(ringing);
    Message ok = Message::response_to(req, 200);
    ok.to().tag = "tag-b";
    txn.respond(ok);
  };
  layer_a.send_request(make_invite(), 2, [&](const Message& resp) {
    codes.push_back(resp.status_code());
  });
  simulator.run();
  EXPECT_EQ(codes, (std::vector<int>{180, 200}));
  // No retransmissions on a clean wire.
  EXPECT_EQ(layer_a.total_retransmissions(), 0u);
}

TEST_F(TxnFixture, LostInviteIsRetransmitted) {
  wire_a.drop_next = 1;  // first INVITE vanishes
  int finals = 0;
  layer_b.on_request = [&](const Message& req, sip::ServerTransaction& txn) {
    Message ok = Message::response_to(req, 200);
    ok.to().tag = "tag-b";
    txn.respond(ok);
  };
  layer_a.send_request(make_invite(), 2, [&](const Message& resp) {
    if (sip::is_final(resp.status_code())) ++finals;
  });
  simulator.run();
  EXPECT_EQ(finals, 1);
  EXPECT_GE(layer_a.total_retransmissions(), 1u);
}

TEST_F(TxnFixture, InviteUnderTotalLossRetransmitsExactlySix) {
  wire_a.drop_next = 1 << 20;  // 100% loss
  bool timed_out = false;
  int responses = 0;
  layer_a.send_request(
      make_invite(), 2, [&](const Message&) { ++responses; }, [&] { timed_out = true; });
  simulator.run();
  // Timer A doubles from T1: retransmissions at 0.5, 1.5, 3.5, 7.5, 15.5 and
  // 31.5 s, then Timer B (64*T1 = 32 s) gives up. Exactly 6 — this pins the
  // A/E conflation regression, which capped the doubling at T2 and fired 10.
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(responses, 0);
  EXPECT_EQ(layer_a.total_retransmissions(), 6u);
  EXPECT_EQ(wire_a.sent, 7);  // the original plus 6 retransmissions
}

TEST_F(TxnFixture, NonInviteUnderTotalLossRetransmitsExactlyTen) {
  wire_a.drop_next = 1 << 20;  // 100% loss
  bool timed_out = false;
  layer_a.send_request(
      make_bye(), 2, [](const Message&) {}, [&] { timed_out = true; });
  simulator.run();
  // Timer E doubles from T1 but caps at T2: retransmissions at 0.5, 1.5,
  // 3.5 s, then every 4 s through 31.5 s; Timer F (64*T1) ends it. Exactly
  // 10 — unbounded doubling (the INVITE schedule) would send only 6.
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(layer_a.total_retransmissions(), 10u);
  EXPECT_EQ(wire_a.sent, 11);  // the original plus 10 retransmissions
}

/// True when every payload in `log` is the first one: the same object, not
/// an equal copy.
bool all_same_payload(const std::vector<std::shared_ptr<const sip::SipPayload>>& log) {
  for (const auto& payload : log) {
    if (payload != log.front()) return false;
  }
  return !log.empty();
}

TEST_F(TxnFixture, TimerARetransmitsTheSamePayload) {
  wire_a.drop_next = 1 << 20;
  layer_a.send_request(make_invite(), 2, [](const Message&) {}, [] {});
  simulator.run();
  ASSERT_EQ(wire_a.log.size(), 7u);
  EXPECT_TRUE(all_same_payload(wire_a.log));
}

TEST_F(TxnFixture, TimerERetransmitsTheSamePayload) {
  wire_a.drop_next = 1 << 20;
  layer_a.send_request(make_bye(), 2, [](const Message&) {}, [] {});
  simulator.run();
  ASSERT_EQ(wire_a.log.size(), 11u);
  EXPECT_TRUE(all_same_payload(wire_a.log));
}

TEST_F(TxnFixture, TimerGRetransmitsTheSameResponsePayload) {
  // The 486 reaches the client, but its ACKs are lost: timer G re-sends the
  // final until timer H gives up.
  layer_b.on_request = [&](const Message& req, sip::ServerTransaction& txn) {
    wire_a.drop_next = 1 << 20;
    Message busy = Message::response_to(req, 486);
    busy.to().tag = "tag-b";
    txn.respond(std::move(busy));
  };
  layer_a.send_request(make_invite(), 2, [](const Message&) {});
  simulator.run();
  ASSERT_GT(wire_b.log.size(), 5u);
  EXPECT_EQ(wire_b.log.front()->msg.status_code(), 486);
  EXPECT_TRUE(all_same_payload(wire_b.log));
}

TEST_F(TxnFixture, AbsorbedRequestRetransmissionResendsTheSamePayload) {
  layer_b.on_request = [](const Message& req, sip::ServerTransaction& txn) {
    txn.respond(Message::response_to(req, 200));
  };
  const Message bye = make_bye();
  layer_b.on_message(payload_of(bye), 1);
  layer_b.on_message(payload_of(bye), 1);
  ASSERT_EQ(wire_b.log.size(), 2u);
  EXPECT_TRUE(all_same_payload(wire_b.log));
}

TEST_F(TxnFixture, TimerEKeepsFiringAtT2WhileProceeding) {
  // A provisional must not silence a non-INVITE client transaction: in
  // Proceeding, Timer E keeps retransmitting pinned at T2 (§17.1.2.2). The
  // server here answers 100 Trying and never a final.
  int provisionals = 0;
  layer_b.on_request = [&](const Message& req, sip::ServerTransaction& txn) {
    Message trying = Message::response_to(req, 100);
    txn.respond(trying);
  };
  bool timed_out = false;
  layer_a.send_request(
      make_bye(), 2,
      [&](const Message& resp) {
        if (resp.status_code() < 200) ++provisionals;
      },
      [&] { timed_out = true; });
  simulator.run();
  // One fire of the armed T1 timer at 0.5 s, then pinned at T2: 4.5, 8.5,
  // ..., 28.5 s until Timer F at 32 s. Exactly 8; the pre-fix behaviour
  // stopped retransmitting on entering Proceeding and sent none.
  EXPECT_TRUE(timed_out);
  EXPECT_GE(provisionals, 1);
  EXPECT_EQ(layer_a.total_retransmissions(), 8u);
}

TEST_F(TxnFixture, ServerTransactionMatchLooksThroughRetransmissions) {
  layer_b.on_request = [](const Message& req, sip::ServerTransaction& txn) {
    Message trying = Message::response_to(req, 100);
    txn.respond(trying);
  };
  Message invite = make_invite();
  EXPECT_FALSE(layer_b.matches_server_transaction(invite));
  layer_a.send_request(invite, 2, [](const Message&) {});
  simulator.run_until(TimePoint::at(Duration::millis(100)));
  // Once the INVITE landed, a retransmission (same branch + method) matches;
  // a different method on the same branch does not.
  EXPECT_TRUE(layer_b.matches_server_transaction(invite));
  Message bye = make_bye();
  bye.vias() = invite.vias();
  EXPECT_FALSE(layer_b.matches_server_transaction(bye));
}

TEST_F(TxnFixture, CancelOnTheInviteBranchOpensItsOwnServerTransaction) {
  // RFC 3261 §9.1: a CANCEL carries its INVITE's top Via branch, so the
  // server transactions must be told apart by method as well as branch.
  std::vector<Method> delivered;
  layer_b.on_request = [&](const Message& req, sip::ServerTransaction& txn) {
    delivered.push_back(req.method());
    txn.respond(Message::response_to(req, req.method() == Method::kInvite ? 180 : 200));
  };
  const Message invite = make_invite();
  Message cancel = Message::request(Method::kCancel, invite.request_uri());
  cancel.vias() = invite.vias();
  cancel.from() = invite.from();
  cancel.to() = invite.to();
  cancel.set_call_id(invite.call_id());
  cancel.set_cseq({invite.cseq().number, Method::kCancel});

  layer_b.on_message(payload_of(invite), 1);
  layer_b.on_message(payload_of(cancel), 1);
  EXPECT_EQ(delivered, (std::vector<Method>{Method::kInvite, Method::kCancel}));
  EXPECT_EQ(layer_b.active_server_transactions(), 2U);
  EXPECT_TRUE(layer_b.matches_server_transaction(cancel));

  // An INVITE retransmission is still absorbed by the INVITE transaction:
  // it re-sends the 180 and never reaches the TU.
  wire_b.log.clear();
  layer_b.on_message(payload_of(invite), 1);
  EXPECT_EQ(delivered.size(), 2U);
  EXPECT_EQ(layer_b.total_retransmissions(), 1U);
  ASSERT_EQ(wire_b.log.size(), 1U);
  EXPECT_EQ(wire_b.log.front()->msg.status_code(), 180);
}

TEST_F(TxnFixture, RetransmissionAfterTimerJAtTheSameInstantIsANewRequest) {
  // Timer J ends the BYE server transaction at 64*T1 and takes it out of the
  // layer in that same event. A retransmission queued after Timer J for that
  // very instant finds no transaction: it reaches the TU as a new request
  // and is answered.
  int tu_deliveries = 0;
  layer_b.on_request = [&](const Message& req, sip::ServerTransaction& txn) {
    ++tu_deliveries;
    txn.respond(Message::response_to(req, 200));
  };
  const Message bye = make_bye();
  layer_b.on_message(payload_of(bye), 1);
  ASSERT_EQ(tu_deliveries, 1);
  const TimePoint timer_j = TimePoint::origin() + Duration::millis(500) * 64;
  std::size_t active_after_timer_j = 99;
  simulator.schedule_at(timer_j, [&] {
    active_after_timer_j = layer_b.active_server_transactions();
    layer_b.on_message(payload_of(bye), 1);
  });
  simulator.run();
  EXPECT_EQ(active_after_timer_j, 0U);
  EXPECT_EQ(tu_deliveries, 2);
  EXPECT_EQ(layer_b.total_retransmissions(), 0U);  // answered anew, not re-sent
  ASSERT_EQ(wire_b.log.size(), 2U);
  EXPECT_NE(wire_b.log.front(), wire_b.log.back());
  EXPECT_EQ(layer_b.active_server_transactions(), 0U);
}

TEST_F(TxnFixture, ServerTwoHundredEndsTheTransactionBeforeAnyEventRuns) {
  // The peer id 9 is on no wire: responses go nowhere and schedule nothing.
  layer_b.on_request = [](const Message& req, sip::ServerTransaction& txn) {
    txn.respond(Message::response_to(req, 180));
    txn.respond(Message::response_to(req, 200));
  };
  const std::size_t pending = simulator.pending();
  layer_b.on_message(payload_of(make_invite()), 9);
  EXPECT_EQ(layer_b.active_server_transactions(), 0U);
  EXPECT_EQ(simulator.pending(), pending);
}

TEST_F(TxnFixture, ClientTwoHundredEndsTheTransactionBeforeAnyEventRuns) {
  int responses = 0;
  int strays = 0;
  layer_a.on_stray_response = [&](const Message&) { ++strays; };
  const std::size_t pending = simulator.pending();
  const Message invite = make_invite();
  layer_a.send_request(invite, 9, [&](const Message&) { ++responses; });
  Message ok = Message::response_to(invite, 200);
  ok.to().tag = "tag-b";
  layer_a.on_message(payload_of(ok), 9);
  EXPECT_EQ(responses, 1);
  EXPECT_EQ(simulator.pending(), pending);  // timers A and B gone, nothing added
  // A retransmitted 200 at the same instant matches no transaction.
  layer_a.on_message(payload_of(ok), 9);
  EXPECT_EQ(responses, 1);
  EXPECT_EQ(strays, 1);
}

TEST_F(TxnFixture, ResetDestroysEveryTransactionAndItsTimers) {
  const std::size_t pending = simulator.pending();
  bool handler_ran = false;
  // Client: an INVITE in Calling (timers A/B) and a BYE in Trying (E/F).
  layer_a.send_request(make_invite(), 9, [&](const Message&) { handler_ran = true; },
                       [&] { handler_ran = true; });
  layer_a.send_request(make_bye(), 9, [&](const Message&) { handler_ran = true; },
                       [&] { handler_ran = true; });
  // Server: an INVITE in Completed after a 486 (timers G/H) and a BYE in
  // Completed after its 200 (timer J).
  layer_b.on_request = [](const Message& req, sip::ServerTransaction& txn) {
    txn.respond(Message::response_to(req, req.method() == Method::kInvite ? 486 : 200));
  };
  layer_b.on_message(payload_of(make_invite()), 9);
  layer_b.on_message(payload_of(make_bye()), 9);
  ASSERT_EQ(layer_b.active_server_transactions(), 2U);
  ASSERT_GT(simulator.pending(), pending);

  layer_a.reset();
  layer_b.reset();
  EXPECT_EQ(simulator.pending(), pending);
  EXPECT_EQ(layer_b.active_server_transactions(), 0U);
  const int sent = wire_a.sent + wire_b.sent;
  simulator.run();
  EXPECT_EQ(simulator.events_processed(), 0U);
  EXPECT_FALSE(handler_ran);
  EXPECT_EQ(wire_a.sent + wire_b.sent, sent);
}

TEST_F(TxnFixture, ProvisionalStopsInviteTimersAAndB) {
  // After a 180 an INVITE client transaction waits indefinitely (§17.1.1.2):
  // 40 s of silence fires no event on the client side.
  const Message invite = make_invite();
  bool timed_out = false;
  layer_a.send_request(invite, 9, [](const Message&) {}, [&] { timed_out = true; });
  Message ringing = Message::response_to(invite, 180);
  ringing.to().tag = "tag-b";
  layer_a.on_message(payload_of(ringing), 9);
  simulator.run_until(TimePoint::origin() + Duration::seconds(40));
  EXPECT_EQ(simulator.events_processed(), 0U);
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(layer_a.total_retransmissions(), 0U);
}

TEST_F(TxnFixture, InviteTimeoutFiresAfterTimerB) {
  // No receiver: every send is ignored by dropping all packets.
  wire_a.drop_next = 1'000'000;
  bool timed_out = false;
  layer_a.send_request(
      make_invite(), 2, [](const Message&) { FAIL() << "no response expected"; },
      [&] { timed_out = true; });
  simulator.run();
  EXPECT_TRUE(timed_out);
  // Timer B is 64*T1 = 32 s: the loop must have ended at/after that.
  EXPECT_GE(simulator.now().to_seconds(), 31.9);
}

TEST_F(TxnFixture, Non2xxFinalTriggersAck) {
  layer_b.on_request = [&](const Message& req, sip::ServerTransaction& txn) {
    Message busy = Message::response_to(req, 486);
    busy.to().tag = "tag-b";
    txn.respond(busy);
  };
  int final_code = 0;
  layer_a.send_request(make_invite(), 2, [&](const Message& resp) {
    if (sip::is_final(resp.status_code())) final_code = resp.status_code();
  });
  simulator.run_until(TimePoint::origin() + Duration::seconds(1));
  EXPECT_EQ(final_code, 486);
  // The client transaction ACKed the 486 automatically: layer_b saw the ACK
  // inside the INVITE server transaction (no on_ack upcall for non-2xx).
  ASSERT_NE(wire_a.last_sent(), nullptr);
  EXPECT_EQ(wire_a.last_sent()->method(), Method::kAck);
}

TEST_F(TxnFixture, RetransmittedRequestAbsorbedByServerTransaction) {
  int tu_deliveries = 0;
  layer_b.on_request = [&](const Message& req, sip::ServerTransaction& txn) {
    ++tu_deliveries;
    Message ok = Message::response_to(req, 200);
    txn.respond(ok);
  };
  // Send the same BYE twice (simulating a retransmission arriving late).
  const Message bye = make_bye();
  layer_b.on_message(payload_of(bye), 1);
  layer_b.on_message(payload_of(bye), 1);
  simulator.run_until(TimePoint::origin() + Duration::seconds(1));
  EXPECT_EQ(tu_deliveries, 1);
  // The second arrival triggered a response retransmission instead.
  EXPECT_GE(layer_b.total_retransmissions(), 1u);
}

TEST_F(TxnFixture, NonInviteTransactionCompletes) {
  int final_code = 0;
  layer_b.on_request = [&](const Message& req, sip::ServerTransaction& txn) {
    Message ok = Message::response_to(req, 200);
    txn.respond(ok);
  };
  layer_a.send_request(make_bye(), 2, [&](const Message& resp) {
    final_code = resp.status_code();
  });
  simulator.run();
  EXPECT_EQ(final_code, 200);
}

TEST_F(TxnFixture, StrayResponseGoesToHandler) {
  int strays = 0;
  layer_a.on_stray_response = [&](const Message&) { ++strays; };
  Message invite = make_invite();
  Message late = Message::response_to(invite, 200);
  layer_a.on_message(payload_of(late), 2);
  EXPECT_EQ(strays, 1);
}

TEST_F(TxnFixture, TwoHundredAckBypassesTransactions) {
  int acks = 0;
  layer_b.on_ack = [&](const Message& ack) {
    EXPECT_EQ(ack.method(), Method::kAck);
    ++acks;
  };
  Message ack = Message::request(Method::kAck, sip::Uri{"callee", "b.host"});
  ack.vias().push_back({"a.host", layer_a.new_branch()});  // fresh branch = 2xx ACK
  ack.from() = {sip::Uri{"caller", "a.host"}, "tag-a"};
  ack.to() = {sip::Uri{"callee", "b.host"}, "tag-b"};
  ack.set_call_id("cid-1");
  ack.set_cseq({1, Method::kAck});
  layer_b.on_message(payload_of(ack), 1);
  EXPECT_EQ(acks, 1);
}

TEST_F(TxnFixture, RequestWithoutBranchRejected) {
  Message invite = Message::request(Method::kInvite, sip::Uri{"x", "b.host"});
  invite.from() = {sip::Uri{"caller", "a.host"}, "tag-a"};
  invite.to() = {sip::Uri{"x", "b.host"}, ""};
  invite.set_call_id("cid");
  invite.set_cseq({1, Method::kInvite});
  EXPECT_THROW(layer_a.send_request(invite, 2, [](const Message&) {}), std::invalid_argument);
}

TEST_F(TxnFixture, BranchesAreUnique) {
  EXPECT_NE(layer_a.new_branch(), layer_a.new_branch());
  const std::string b = layer_a.new_branch();
  EXPECT_EQ(b.rfind("z9hG4bK", 0), 0u) << "must carry the RFC 3261 magic cookie";
}

TEST(DialogTest, UacUasViewsAgree) {
  Message invite = Message::request(Method::kInvite, sip::Uri{"callee", "b.host"});
  invite.vias().push_back({"a.host", "z9hG4bK-d1"});
  invite.from() = {sip::Uri{"caller", "a.host"}, "tag-a"};
  invite.to() = {sip::Uri{"callee", "b.host"}, ""};
  invite.set_call_id("cid-7");
  invite.set_cseq({1, Method::kInvite});
  invite.set_contact(sip::Uri{"caller", "a.host"});

  Message ok = Message::response_to(invite, 200);
  ok.to().tag = "tag-b";
  ok.set_contact(sip::Uri{"callee", "b.host"});

  sip::Dialog uac = sip::Dialog::from_uac(invite, ok);
  sip::Dialog uas = sip::Dialog::from_uas(invite, ok);

  EXPECT_EQ(uac.call_id(), "cid-7");
  EXPECT_EQ(uac.local().tag, "tag-a");
  EXPECT_EQ(uac.remote().tag, "tag-b");
  EXPECT_EQ(uas.local().tag, "tag-b");
  EXPECT_EQ(uas.remote().tag, "tag-a");
  EXPECT_EQ(uac.remote_target().host(), "b.host");

  // ACK reuses the INVITE CSeq number with the ACK method.
  const Message ack = uac.make_ack();
  EXPECT_EQ(ack.cseq().number, 1u);
  EXPECT_EQ(ack.cseq().method, Method::kAck);
  EXPECT_EQ(ack.call_id(), "cid-7");

  // In-dialog BYE increments CSeq.
  sip::Dialog uac2 = uac;
  const Message bye = uac2.make_request(Method::kBye);
  EXPECT_EQ(bye.cseq().number, 2u);
  EXPECT_EQ(bye.to().tag, "tag-b");
  EXPECT_EQ(bye.from().tag, "tag-a");
}

}  // namespace
