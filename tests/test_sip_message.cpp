// Unit tests for SIP message model, URI, SDP, and the wire codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "rtp/codec.hpp"
#include "sim/random.hpp"
#include "sip/dialog.hpp"
#include "sip/message.hpp"
#include "sip/parse.hpp"
#include "sip/sdp.hpp"
#include "sip/types.hpp"
#include "sip/uri.hpp"

namespace {

using namespace pbxcap;
using sip::Message;
using sip::Method;

TEST(Uri, ParseBasicForms) {
  const auto full = sip::Uri::parse("sip:alice@unb.br:5070");
  ASSERT_TRUE(full);
  EXPECT_EQ(full->user(), "alice");
  EXPECT_EQ(full->host(), "unb.br");
  EXPECT_EQ(full->port(), 5070);

  const auto no_port = sip::Uri::parse("sip:bob@pbx.unb.br");
  ASSERT_TRUE(no_port);
  EXPECT_EQ(no_port->port(), 5060);

  const auto no_user = sip::Uri::parse("sip:pbx.unb.br");
  ASSERT_TRUE(no_user);
  EXPECT_TRUE(no_user->user().empty());
}

TEST(Uri, RejectsMalformed) {
  EXPECT_FALSE(sip::Uri::parse(""));
  EXPECT_FALSE(sip::Uri::parse("http://x"));
  EXPECT_FALSE(sip::Uri::parse("sip:"));
  EXPECT_FALSE(sip::Uri::parse("sip:@host"));
  EXPECT_FALSE(sip::Uri::parse("sip:u@host:0"));
  EXPECT_FALSE(sip::Uri::parse("sip:u@host:99999"));
}

TEST(Uri, RoundTrips) {
  for (const char* text : {"sip:alice@unb.br", "sip:bob@pbx.unb.br:5080", "sip:gw.unb.br"}) {
    const auto uri = sip::Uri::parse(text);
    ASSERT_TRUE(uri) << text;
    EXPECT_EQ(uri->to_string(), text);
  }
}

TEST(MethodStrings, RoundTrip) {
  for (const Method m : {Method::kInvite, Method::kAck, Method::kBye, Method::kCancel,
                         Method::kRegister, Method::kOptions, Method::kInfo}) {
    EXPECT_EQ(sip::method_from_string(sip::to_string(m)), m);
  }
  EXPECT_EQ(sip::method_from_string("invite"), Method::kInvite);  // case-insensitive
  EXPECT_EQ(sip::method_from_string("BOGUS"), Method::kUnknown);
}

TEST(StatusClasses, Predicates) {
  EXPECT_TRUE(sip::is_provisional(100));
  EXPECT_TRUE(sip::is_provisional(180));
  EXPECT_FALSE(sip::is_provisional(200));
  EXPECT_TRUE(sip::is_final(200));
  EXPECT_TRUE(sip::is_success(200));
  EXPECT_FALSE(sip::is_success(503));
  EXPECT_TRUE(sip::is_error(503));
  EXPECT_EQ(sip::reason_phrase(503), "Service Unavailable");
  EXPECT_EQ(sip::reason_phrase(486), "Busy Here");
}

Message make_invite() {
  Message invite = Message::request(Method::kInvite, *sip::Uri::parse("sip:recv-1@pbx.unb.br"));
  invite.vias().push_back({"client.unb.br", "z9hG4bK-test-1"});
  invite.from() = {*sip::Uri::parse("sip:caller-1@client.unb.br"), "tag-a"};
  invite.to() = {*sip::Uri::parse("sip:recv-1@pbx.unb.br"), ""};
  invite.set_call_id("call-1@client.unb.br");
  invite.set_cseq({1, Method::kInvite});
  invite.set_contact(*sip::Uri::parse("sip:caller-1@client.unb.br"));
  invite.set_body("v=0\r\n", "application/sdp");
  return invite;
}

TEST(MessageCodecTest, RequestRoundTrip) {
  const Message invite = make_invite();
  const std::string wire = sip::serialize(invite);
  const auto parsed = sip::parse_message(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const Message& msg = *parsed.message;
  EXPECT_TRUE(msg.is_request());
  EXPECT_EQ(msg.method(), Method::kInvite);
  EXPECT_EQ(msg.request_uri().user(), "recv-1");
  ASSERT_EQ(msg.vias().size(), 1u);
  EXPECT_EQ(msg.vias()[0].branch, "z9hG4bK-test-1");
  EXPECT_EQ(msg.from().tag, "tag-a");
  EXPECT_EQ(msg.to().tag, "");
  EXPECT_EQ(msg.call_id(), "call-1@client.unb.br");
  EXPECT_EQ(msg.cseq().number, 1u);
  EXPECT_EQ(msg.cseq().method, Method::kInvite);
  ASSERT_TRUE(msg.contact());
  EXPECT_EQ(msg.contact()->user(), "caller-1");
  EXPECT_EQ(msg.body(), "v=0\r\n");
  EXPECT_EQ(msg.content_type(), "application/sdp");
}

TEST(MessageCodecTest, ResponseRoundTrip) {
  const Message invite = make_invite();
  Message ok = Message::response_to(invite, 200);
  ok.to().tag = "tag-b";
  const auto parsed = sip::parse_message(sip::serialize(ok));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_TRUE(parsed.message->is_response());
  EXPECT_EQ(parsed.message->status_code(), 200);
  EXPECT_EQ(parsed.message->reason(), "OK");
  EXPECT_EQ(parsed.message->to().tag, "tag-b");
  EXPECT_EQ(parsed.message->from().tag, "tag-a");
  // Response copies the request's Via (RFC 3261 §8.2.6).
  ASSERT_EQ(parsed.message->vias().size(), 1u);
  EXPECT_EQ(parsed.message->vias()[0].branch, "z9hG4bK-test-1");
}

TEST(MessageCodecTest, ExtensionHeadersPreserved) {
  Message invite = make_invite();
  invite.add_header("User-Agent", "pbxcap/1.0");
  invite.add_header("X-Custom", "a,b");
  const auto parsed = sip::parse_message(sip::serialize(invite));
  ASSERT_TRUE(parsed.ok());
  ASSERT_NE(parsed.message->header("user-agent"), nullptr);
  EXPECT_EQ(*parsed.message->header("User-Agent"), "pbxcap/1.0");
  EXPECT_EQ(*parsed.message->header("X-Custom"), "a,b");
  EXPECT_EQ(parsed.message->header("Missing"), nullptr);
}

TEST(MessageCodecTest, ParserRejectsMalformed) {
  EXPECT_FALSE(sip::parse_message("").ok());
  EXPECT_FALSE(sip::parse_message("NOT A SIP LINE\r\n\r\n").ok());
  EXPECT_FALSE(sip::parse_message("SIP/2.0 9999 Bad\r\n\r\n").ok());
  // Missing mandatory headers.
  EXPECT_FALSE(
      sip::parse_message("INVITE sip:a@b SIP/2.0\r\nCall-ID: x\r\nCSeq: 1 INVITE\r\n\r\n").ok());
  // Truncated body vs Content-Length.
  const std::string truncated =
      "INVITE sip:a@b SIP/2.0\r\nFrom: <sip:c@d>;tag=1\r\nTo: <sip:a@b>\r\n"
      "Call-ID: x\r\nCSeq: 1 INVITE\r\nContent-Length: 100\r\n\r\nshort";
  EXPECT_FALSE(sip::parse_message(truncated).ok());
}

TEST(MessageCodecTest, ParserAcceptsCompactAndBareLf) {
  const std::string wire =
      "BYE sip:a@b SIP/2.0\n"
      "v: SIP/2.0/UDP h;branch=z9hG4bK-1\n"
      "f: <sip:c@d>;tag=t1\n"
      "t: <sip:a@b>;tag=t2\n"
      "i: cid-9\n"
      "CSeq: 2 BYE\n\n";
  const auto parsed = sip::parse_message(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.message->method(), Method::kBye);
  EXPECT_EQ(parsed.message->call_id(), "cid-9");
  EXPECT_EQ(parsed.message->to().tag, "t2");
}

TEST(MessageCodecTest, WireBytesMatchesSerializedSize) {
  const Message invite = make_invite();
  EXPECT_EQ(sip::wire_bytes(invite), sip::serialize(invite).size());
  EXPECT_GT(sip::wire_bytes(invite), 200u);  // realistic SIP INVITE size
  EXPECT_EQ(sip::SipPayload{invite}.wire_bytes, sip::wire_bytes(invite));
}

TEST(MessageCodecTest, RandomGarbageNeverCrashes) {
  sim::Random rng{0xFACE};
  for (int i = 0; i < 2000; ++i) {
    std::string junk;
    const auto len = rng.uniform_int(200);
    for (std::uint64_t j = 0; j < len; ++j) {
      junk.push_back(static_cast<char>(rng.uniform_int(256)));
    }
    const auto result = sip::parse_message(junk);  // must not crash or UB
    if (!result.ok()) {
      EXPECT_FALSE(result.error.empty());
    }
  }
}

TEST(MessageCodecTest, TruncationsNeverCrash) {
  const std::string wire = sip::serialize(make_invite());
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    const auto result = sip::parse_message(std::string_view{wire}.substr(0, cut));
    (void)result;  // any outcome is fine; absence of crash is the property
  }
  // The full message parses.
  EXPECT_TRUE(sip::parse_message(wire).ok());
}

TEST(MessageCodecTest, MutatedBytesNeverCrash) {
  const std::string wire = sip::serialize(make_invite());
  sim::Random rng{7777};
  for (int i = 0; i < 500; ++i) {
    std::string mutated = wire;
    const auto pos = rng.uniform_int(mutated.size());
    mutated[pos] = static_cast<char>(rng.uniform_int(256));
    const auto result = sip::parse_message(mutated);
    (void)result;
  }
}

/// SDP offers shaped like the ones SipCaller puts in its INVITEs.
sip::Sdp caller_offer(sip::PayloadTypes payload_types) {
  sip::Sdp offer;
  offer.connection_host = "sipp-client.unb.br";
  offer.audio.rtp_port = 30'014;
  offer.audio.payload_types = std::move(payload_types);
  offer.audio.ssrc = 8;
  return offer;
}

/// Feeds seeded single-byte replacements, inserts and deletes of `offer`,
/// then every truncation, through Sdp::parse; negotiates every result that
/// parses against the full codec catalog.
void expect_mutations_parse_cleanly(const sip::Sdp& offer, std::uint64_t seed) {
  sip::Sdp catalog;
  catalog.connection_host = "sipp-server.unb.br";
  for (const auto& codec : rtp::codec_catalog()) {
    catalog.audio.payload_types.push_back(codec.payload_type);
  }
  const std::string text = offer.to_string();
  std::vector<std::string> inputs;
  sim::Random rng{seed};
  for (int i = 0; i < 1500; ++i) {
    std::string mutated = text;
    const auto pos = static_cast<std::size_t>(rng.uniform_int(mutated.size()));
    const auto byte = static_cast<char>(rng.uniform_int(256));
    switch (i % 3) {
      case 0: mutated[pos] = byte; break;
      case 1: mutated.insert(pos, 1, byte); break;
      default: mutated.erase(pos, 1); break;
    }
    inputs.push_back(std::move(mutated));
  }
  for (std::size_t cut = 0; cut <= text.size(); ++cut) inputs.push_back(text.substr(0, cut));

  std::size_t parsed_count = 0;
  for (const std::string& input : inputs) {
    const auto parsed = sip::Sdp::parse(input);
    if (!parsed) continue;
    ++parsed_count;
    const auto& pts = parsed->audio.payload_types;
    ASSERT_FALSE(pts.empty()) << "an accepted offer carries a format";
    const auto pt = sip::Sdp::negotiate(*parsed, catalog);
    if (pt) {
      EXPECT_NE(std::find(pts.begin(), pts.end(), *pt), pts.end());
    }
  }
  EXPECT_GT(parsed_count, 0u) << "no mutation parsed: negotiate was never reached";
}

TEST(SdpTest, MutatedSingleCodecOfferParsesCleanly) {
  expect_mutations_parse_cleanly(caller_offer({rtp::payload_type::kPcmu}), 0x5D01);
}

TEST(SdpTest, MutatedCodecMixOfferParsesCleanly) {
  expect_mutations_parse_cleanly(
      caller_offer({rtp::payload_type::kG729, rtp::payload_type::kPcmu, rtp::payload_type::kPcma}),
      0x5D02);
}

/// One message of every kind the PBX's SIP census sees, built the way the
/// endpoints build them: Message::request and response_to, plus the caller's
/// Dialog for the ACK and BYE.
std::vector<std::pair<std::string, Message>> census_messages() {
  Message invite = make_invite();
  invite.set_body(caller_offer({rtp::payload_type::kPcmu}).to_string(), "application/sdp");
  Message ok = Message::response_to(invite, 200);
  ok.to().tag = "tag-b";
  ok.set_contact(*sip::Uri::parse("sip:recv-1@server.unb.br"));
  ok.set_body(caller_offer({rtp::payload_type::kPcmu}).to_string(), "application/sdp");
  Message ringing = Message::response_to(invite, 180);
  ringing.to().tag = "tag-b";

  sip::Dialog dialog = sip::Dialog::from_uac(invite, ok);
  Message ack = dialog.make_ack();
  ack.vias().push_back({"client.unb.br", "z9hG4bK-test-2"});
  Message bye = dialog.make_request(Method::kBye);
  bye.vias().push_back({"client.unb.br", "z9hG4bK-test-3"});

  // RFC 3261 §9.1: a CANCEL copies the INVITE's Request-URI, top Via,
  // From, To, Call-ID and CSeq number.
  Message cancel = Message::request(Method::kCancel, invite.request_uri());
  cancel.vias() = invite.vias();
  cancel.from() = invite.from();
  cancel.to() = invite.to();
  cancel.set_call_id(invite.call_id());
  cancel.set_cseq({invite.cseq().number, Method::kCancel});

  Message unavailable = Message::response_to(invite, 503);
  unavailable.add_header("Retry-After", "5");

  Message options = Message::request(Method::kOptions, sip::Uri{"ping", "pbx.unb.br"});
  options.vias().push_back({"dispatcher.unb.br", "z9hG4bK-probe-1"});
  options.from() = sip::NameAddr{sip::Uri{"dispatcher", "dispatcher.unb.br"}, "tag-p"};
  options.to() = sip::NameAddr{sip::Uri{"ping", "pbx.unb.br"}, ""};
  options.set_call_id("probe-1@dispatcher.unb.br");
  options.set_cseq({1, Method::kOptions});

  std::vector<std::pair<std::string, Message>> messages;
  const auto add = [&messages](const char* kind, const Message& msg) {
    messages.emplace_back(kind, msg);
  };
  add("INVITE", invite);
  add("100", Message::response_to(invite, 100));
  add("180", ringing);
  add("200 INVITE", ok);
  add("ACK", ack);
  add("BYE", bye);
  add("200 BYE", Message::response_to(bye, 200));
  add("CANCEL", cancel);
  add("487", Message::response_to(invite, 487));
  add("486", Message::response_to(invite, 486));
  add("503", unavailable);
  add("482", Message::response_to(invite, 482));
  add("OPTIONS", options);
  return messages;
}

/// The census messages on the wire: (kind, serialized text).
std::vector<std::pair<std::string, std::string>> census_corpus() {
  std::vector<std::pair<std::string, std::string>> corpus;
  for (const auto& [kind, msg] : census_messages()) corpus.emplace_back(kind, sip::serialize(msg));
  return corpus;
}

/// Calls `check(kind, mutant)` on 400 seeded insert, delete and splice
/// mutations of every census message kind, kind by kind.
template <class Check>
void for_each_census_mutant(const std::vector<std::pair<std::string, std::string>>& corpus,
                            Check check) {
  sim::Random rng{0x51C0};
  const auto pick = [&rng](std::size_t n) { return static_cast<std::size_t>(rng.uniform_int(n)); };
  for (const auto& [kind, wire] : corpus) {
    for (int i = 0; i < 400; ++i) {
      std::string mutant = wire;
      for (std::size_t edits = 1 + pick(3); edits > 0; --edits) {
        const std::size_t pos = pick(mutant.size() + 1);
        switch (pick(3)) {
          case 0: {  // insert a random byte or one of the message's own bytes
            const char byte =
                pick(2) == 0 ? static_cast<char>(pick(256)) : wire[pick(wire.size())];
            mutant.insert(pos, 1, byte);
            break;
          }
          case 1:  // delete a short run
            mutant.erase(pos, 1 + pick(8));
            break;
          default: {  // splice a piece of another census message over a short run
            const std::string& donor = corpus[pick(corpus.size())].second;
            mutant.replace(pos, pick(4), donor.substr(pick(donor.size()), 1 + pick(24)));
            break;
          }
        }
      }
      check(kind, mutant);
    }
  }
}

/// Each census mutant parses or fails with a non-empty error, and nothing
/// else.
TEST(MessageCodecTest, MutatedCensusMessagesParseOrExplain) {
  const auto corpus = census_corpus();
  for (const auto& [kind, wire] : corpus) {
    ASSERT_TRUE(sip::parse_message(wire).ok()) << kind << " does not parse unmutated";
  }
  std::map<std::string, std::pair<std::size_t, std::size_t>> outcomes;  // parsed, rejected
  for_each_census_mutant(corpus, [&outcomes](const std::string& kind, const std::string& mutant) {
    const auto result = sip::parse_message(mutant);
    if (result.ok()) {
      ++outcomes[kind].first;
    } else {
      ++outcomes[kind].second;
      EXPECT_FALSE(result.error.empty()) << kind << " mutant failed without a reason";
    }
  });
  // Both outcomes must occur, or the mutations are too mild or too wild.
  for (const auto& [kind, wire] : corpus) {
    EXPECT_GT(outcomes[kind].first, 0u) << kind;
    EXPECT_GT(outcomes[kind].second, 0u) << kind;
  }
}

/// The counted wire size equals the serialized size: for every census
/// message, every census mutant that parses, and the formatting edge cases
/// (ports, Contact, empty tags and bodies, extension headers, every status
/// code, a negative Max-Forwards).
TEST(MessageCodecTest, CountedWireSizeIsExact) {
  const auto expect_exact = [](const Message& msg, const std::string& what) {
    EXPECT_EQ(sip::wire_bytes(msg), sip::serialize(msg).size()) << what;
  };
  for (const auto& [kind, msg] : census_messages()) expect_exact(msg, kind);

  std::size_t parsed = 0;
  for_each_census_mutant(census_corpus(), [&](const std::string& kind, const std::string& mutant) {
    const auto result = sip::parse_message(mutant);
    if (!result.ok()) return;
    ++parsed;
    expect_exact(*result.message, kind + " mutant");
  });
  EXPECT_GT(parsed, 100u);

  Message edge = Message::request(Method::kInvite, sip::Uri{"recv-1", "pbx.unb.br", 5080});
  edge.vias().push_back({"client.unb.br", ""});
  edge.from() = {sip::Uri{"", "client.unb.br", 65535}, ""};
  edge.to() = {sip::Uri{"recv-1", "pbx.unb.br", 1}, ""};
  edge.set_call_id("c");
  edge.set_cseq({4'294'967'295U, Method::kInvite});
  expect_exact(edge, "non-5060 ports, empty tags, empty body");
  edge.set_contact(sip::Uri{"caller-1", "client.unb.br", 10});
  expect_exact(edge, "Contact");
  edge.add_header("X-Queue-Position", "12");
  edge.add_header("Retry-After", "");
  expect_exact(edge, "extension headers");
  edge.set_body("", "application/sdp");
  expect_exact(edge, "empty body with a content type");
  edge.set_max_forwards(0);
  expect_exact(edge, "Max-Forwards 0");
  edge.set_max_forwards(-1);
  expect_exact(edge, "negative Max-Forwards");
  for (int code = 100; code <= 699; ++code) {
    expect_exact(Message::response_to(edge, code), "status " + std::to_string(code));
  }
}

/// A response shares its request's identity and Via list; it copies
/// neither.
TEST(MessageSharing, ResponseSharesTheRequestIdentityBlock) {
  const Message invite = make_invite();
  const Message ringing = Message::response_to(invite, 180);
  ASSERT_NE(invite.identity(), nullptr);
  EXPECT_EQ(ringing.identity().get(), invite.identity().get());
  EXPECT_EQ(ringing.via_list().get(), invite.via_list().get());
  EXPECT_EQ(ringing.reason(), "Ringing");
}

/// Setting a To-tag on a response copies the shared block first: the
/// request's To keeps no tag, and the tagged block shared onward stays one
/// block.
TEST(MessageSharing, ToTagOnAResponseLeavesTheRequestUntouched) {
  const Message invite = make_invite();
  Message ok = Message::response_to(invite, 200);
  ok.to().tag = "tag-b";
  EXPECT_EQ(ok.to().tag, "tag-b");
  EXPECT_EQ(invite.to().tag, "");
  EXPECT_NE(ok.identity().get(), invite.identity().get());
  EXPECT_EQ(ok.call_id(), invite.call_id());
  EXPECT_EQ(ok.from(), invite.from());

  const auto tagged = invite.identity()->with_to_tag("tag-c");
  Message ringing = Message::response_to(invite, 180);
  ringing.set_identity(tagged);
  Message answer = Message::response_to(invite, 200);
  answer.set_identity(tagged);
  EXPECT_EQ(ringing.identity().get(), answer.identity().get());
  EXPECT_EQ(answer.to().tag, "tag-c");
  EXPECT_EQ(invite.to().tag, "");

  // A request copied before its Via list is stamped keeps the old list.
  Message copy = invite;
  copy.vias().insert(copy.vias().begin(), {"pbx.unb.br", "z9hG4bK-top"});
  ASSERT_EQ(copy.vias().size(), 2u);
  EXPECT_EQ(copy.vias()[0].branch, "z9hG4bK-top");
  EXPECT_EQ(copy.vias()[1].branch, "z9hG4bK-test-1");
  EXPECT_EQ(invite.vias().size(), 1u);
}

/// The dialog's in-dialog requests on the wire, byte for byte: the UAC's
/// ACK and BYE share the 2xx's identity block, the UAS's BYE swaps From and
/// To.
TEST(MessageSharing, DialogRequestsSerializeToGoldenText) {
  const Message invite = make_invite();
  Message ok = Message::response_to(invite, 200);
  ok.to().tag = "tag-b";
  ok.set_contact(*sip::Uri::parse("sip:recv-1@server.unb.br"));
  sip::Dialog uac = sip::Dialog::from_uac(invite, ok);
  sip::Dialog uas = sip::Dialog::from_uas(invite, ok);

  const Message ack = uac.make_ack();
  EXPECT_EQ(ack.identity().get(), ok.identity().get());
  EXPECT_EQ(sip::serialize(ack),
            "ACK sip:recv-1@server.unb.br SIP/2.0\r\n"
            "Max-Forwards: 70\r\n"
            "From: <sip:caller-1@client.unb.br>;tag=tag-a\r\n"
            "To: <sip:recv-1@pbx.unb.br>;tag=tag-b\r\n"
            "Call-ID: call-1@client.unb.br\r\n"
            "CSeq: 1 ACK\r\n"
            "Content-Length: 0\r\n"
            "\r\n");
  const Message bye = uac.make_request(Method::kBye);
  EXPECT_EQ(bye.identity().get(), ok.identity().get());
  EXPECT_EQ(sip::serialize(bye),
            "BYE sip:recv-1@server.unb.br SIP/2.0\r\n"
            "Max-Forwards: 70\r\n"
            "From: <sip:caller-1@client.unb.br>;tag=tag-a\r\n"
            "To: <sip:recv-1@pbx.unb.br>;tag=tag-b\r\n"
            "Call-ID: call-1@client.unb.br\r\n"
            "CSeq: 2 BYE\r\n"
            "Content-Length: 0\r\n"
            "\r\n");
  EXPECT_EQ(sip::serialize(uas.make_request(Method::kBye)),
            "BYE sip:caller-1@client.unb.br SIP/2.0\r\n"
            "Max-Forwards: 70\r\n"
            "From: <sip:recv-1@pbx.unb.br>;tag=tag-b\r\n"
            "To: <sip:caller-1@client.unb.br>;tag=tag-a\r\n"
            "Call-ID: call-1@client.unb.br\r\n"
            "CSeq: 1 BYE\r\n"
            "Content-Length: 0\r\n"
            "\r\n");
}

/// A parsed status line keeps its own reason phrase, even one that is not
/// reason_phrase()'s, through a copy and back onto the wire.
TEST(MessageSharing, ParsedReasonPhraseRoundTrips) {
  const std::string wire = sip::serialize(Message::response_to(make_invite(), 486));
  const std::string custom = "SIP/2.0 486 Gone Fishing" + wire.substr(wire.find("\r\n"));
  const auto parsed = sip::parse_message(custom);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const Message copy = *parsed.message;
  EXPECT_EQ(copy.reason(), "Gone Fishing");
  EXPECT_EQ(sip::serialize(copy), custom);
  EXPECT_EQ(sip::wire_bytes(copy), custom.size());
}

TEST(ViaHeader, ParseAndPrint) {
  const auto via = sip::Via::parse("SIP/2.0/UDP pbx.unb.br;branch=z9hG4bK-42");
  ASSERT_TRUE(via);
  EXPECT_EQ(via->host, "pbx.unb.br");
  EXPECT_EQ(via->branch, "z9hG4bK-42");
  EXPECT_EQ(via->to_string(), "SIP/2.0/UDP pbx.unb.br;branch=z9hG4bK-42");
  EXPECT_FALSE(sip::Via::parse("TCP host"));
}

TEST(CSeqHeader, ParseAndPrint) {
  const auto cseq = sip::CSeq::parse("314 ACK");
  ASSERT_TRUE(cseq);
  EXPECT_EQ(cseq->number, 314u);
  EXPECT_EQ(cseq->method, Method::kAck);
  EXPECT_FALSE(sip::CSeq::parse("notanumber INVITE"));
  EXPECT_FALSE(sip::CSeq::parse("1"));
}

TEST(NameAddrHeader, ParseForms) {
  const auto tagged = sip::NameAddr::parse("<sip:alice@unb.br>;tag=abc");
  ASSERT_TRUE(tagged);
  EXPECT_EQ(tagged->uri.user(), "alice");
  EXPECT_EQ(tagged->tag, "abc");
  const auto bare = sip::NameAddr::parse("sip:bob@unb.br;tag=z");
  ASSERT_TRUE(bare);
  EXPECT_EQ(bare->tag, "z");
  EXPECT_FALSE(sip::NameAddr::parse("<sip:unclosed@x"));
}

TEST(SdpTest, RoundTripWithSsrc) {
  sip::Sdp sdp;
  sdp.connection_host = "client.unb.br";
  sdp.audio.rtp_port = 30'000;
  sdp.audio.payload_types = {0, 8};
  sdp.audio.ssrc = 1234;
  const auto parsed = sip::Sdp::parse(sdp.to_string());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->connection_host, "client.unb.br");
  EXPECT_EQ(parsed->audio.rtp_port, 30'000);
  EXPECT_EQ(parsed->audio.payload_types, (sip::PayloadTypes{0, 8}));
  EXPECT_EQ(parsed->audio.ssrc, 1234u);
}

TEST(SdpTest, ToStringBytesArePinned) {
  // The exact bytes every INVITE and 200 OK body carries: wire sizes, and so
  // every byte count downstream, depend on them.
  sip::Sdp sdp;
  sdp.origin_user = "";
  sdp.connection_host = "h";
  sdp.audio.rtp_port = 0;
  sdp.audio.payload_types = {0, 8, 127};
  sdp.audio.ssrc = 0;  // unannounced: no a=ssrc line
  EXPECT_EQ(sdp.to_string(),
            "v=0\r\no= 0 0 IN IP4 h\r\ns=pbxcap call\r\nc=IN IP4 h\r\nt=0 0\r\n"
            "m=audio 0 RTP/AVP 0 8 127\r\n");

  sdp.origin_user = "pbxcap";
  sdp.connection_host = "client.unb.br";
  sdp.audio.rtp_port = 65'535;
  sdp.audio.payload_types = {18, 3, 0};
  sdp.audio.ssrc = 4'294'967'295U;
  EXPECT_EQ(sdp.to_string(),
            "v=0\r\no=pbxcap 0 0 IN IP4 client.unb.br\r\ns=pbxcap call\r\n"
            "c=IN IP4 client.unb.br\r\nt=0 0\r\nm=audio 65535 RTP/AVP 18 3 0\r\n"
            "a=ssrc:4294967295 cname:pbxcap\r\n");
}

TEST(SdpTest, ParseKeepsFieldSemantics) {
  // Fields are split on every single space, so a doubled space is an empty
  // field, not a wider separator.
  const std::string head = "v=0\r\no=u 0 0 IN IP4 a\r\ns=s\r\nc=IN IP4 a\r\nt=0 0\r\n";
  EXPECT_FALSE(sip::Sdp::parse(head + "m=audio  5004 RTP/AVP 0\r\n"));
  EXPECT_FALSE(sip::Sdp::parse(head + "m=audio 5004 RTP/AVP 0  8\r\n"));
  EXPECT_FALSE(sip::Sdp::parse(head + "m=audio 5004 RTP/AVP\r\n"));
  EXPECT_FALSE(sip::Sdp::parse(head + "m=audio 65536 RTP/AVP 0\r\n"));
  EXPECT_FALSE(sip::Sdp::parse(head + "m=audio 5004 RTP/AVP 128\r\n"));

  // A non-audio m-line is skipped whole, however malformed.
  const auto video_first =
      sip::Sdp::parse(head + "m=video 6000 RTP/AVP 31\r\nm=video x\r\nm=audio 5004 RTP/AVP 0 8\r\n");
  ASSERT_TRUE(video_first);
  EXPECT_EQ(video_first->audio.rtp_port, 5004);
  EXPECT_EQ(video_first->audio.payload_types, (sip::PayloadTypes{0, 8}));

  // c= takes its third field: two fields give no host, and a doubled space
  // shifts the fields.
  EXPECT_FALSE(sip::Sdp::parse("v=0\r\nc=IN IP4\r\nm=audio 5004 RTP/AVP 0\r\n"));
  const auto shifted = sip::Sdp::parse("c=IN  IP4 a\r\nm=audio 5004 RTP/AVP 0\r\n");
  ASSERT_TRUE(shifted);
  EXPECT_EQ(shifted->connection_host, "IP4");

  // o= takes its first field, which may be empty; without an o= line the
  // default origin stays.
  const auto empty_origin = sip::Sdp::parse("o= 0 0\r\nc=IN IP4 a\r\nm=audio 1 RTP/AVP 0\r\n");
  ASSERT_TRUE(empty_origin);
  EXPECT_EQ(empty_origin->origin_user, "");
  const auto no_origin = sip::Sdp::parse("c=IN IP4 a\r\nm=audio 1 RTP/AVP 0\r\n");
  ASSERT_TRUE(no_origin);
  EXPECT_EQ(no_origin->origin_user, "pbxcap");

  // a=ssrc: takes the number before the first space; a bad number is ignored.
  const auto ssrc = sip::Sdp::parse(head + "m=audio 1 RTP/AVP 0\r\na=SSRC:77 cname:x\r\n");
  ASSERT_TRUE(ssrc);
  EXPECT_EQ(ssrc->audio.ssrc, 77U);
  const auto bad_ssrc = sip::Sdp::parse(head + "m=audio 1 RTP/AVP 0\r\na=ssrc:4294967296\r\n");
  ASSERT_TRUE(bad_ssrc);
  EXPECT_EQ(bad_ssrc->audio.ssrc, 0U);

  // The last line needs no newline; bare LF and CRLF parse alike.
  const std::string lines[] = {"v=0", "c=IN IP4 a", "m=audio 5004 RTP/AVP 0 8", "a=ssrc:9 cname:x"};
  std::string lf;
  std::string crlf;
  for (const auto& line : lines) {
    lf += line + "\n";
    crlf += line + "\r\n";
  }
  const std::string unterminated = crlf.substr(0, crlf.size() - 2);
  for (const std::string& text : {lf, crlf, unterminated}) {
    const auto parsed = sip::Sdp::parse(text);
    ASSERT_TRUE(parsed) << text;
    EXPECT_EQ(parsed->connection_host, "a");
    EXPECT_EQ(parsed->audio.rtp_port, 5004);
    EXPECT_EQ(parsed->audio.payload_types, (sip::PayloadTypes{0, 8}));
    EXPECT_EQ(parsed->audio.ssrc, 9U);
  }
  const auto last_m_unterminated = sip::Sdp::parse("c=IN IP4 a\r\nm=audio 5004 RTP/AVP 0");
  ASSERT_TRUE(last_m_unterminated);
  EXPECT_EQ(last_m_unterminated->audio.payload_types, (sip::PayloadTypes{0}));
}

TEST(SdpTest, RejectsMissingMedia) {
  EXPECT_FALSE(sip::Sdp::parse("v=0\r\nc=IN IP4 host\r\n"));
  EXPECT_FALSE(sip::Sdp::parse(""));
}

TEST(SdpTest, RejectsEmptyFormatList) {
  // RFC 4566 §5.14: an m-line carries at least one format. The parser used
  // to accept the bare "m=audio N RTP/AVP" form, producing an Sdp whose
  // to_string() round-trip then failed — reject it at the boundary instead.
  EXPECT_FALSE(sip::Sdp::parse(
      "v=0\r\no=x 0 0 IN IP4 a\r\ns=s\r\nc=IN IP4 a\r\nt=0 0\r\n"
      "m=audio 30000 RTP/AVP\r\n"));
}

TEST(SdpTest, RoundTripPropertyRandomized) {
  // parse(to_string(x)) == x for any well-formed Sdp: random hosts, ports,
  // non-empty payload-type lists drawn from the catalog range, and optional
  // SSRC lines must all survive the round trip field-for-field.
  sim::Random rng{0xC0DEC};
  for (int i = 0; i < 500; ++i) {
    sip::Sdp sdp;
    sdp.connection_host = "host" + std::to_string(rng.uniform_int(1000)) + ".unb.br";
    sdp.audio.rtp_port = static_cast<std::uint16_t>(1024 + rng.uniform_int(60'000));
    const auto n_pts = 1 + rng.uniform_int(5);
    for (std::uint64_t p = 0; p < n_pts; ++p) {
      sdp.audio.payload_types.push_back(static_cast<std::uint8_t>(rng.uniform_int(128)));
    }
    if (rng.uniform_int(2) == 1) {
      sdp.audio.ssrc = static_cast<std::uint32_t>(1 + rng.uniform_int(0xFFFF'FFFE));
    }
    const auto parsed = sip::Sdp::parse(sdp.to_string());
    ASSERT_TRUE(parsed) << sdp.to_string();
    EXPECT_EQ(parsed->connection_host, sdp.connection_host);
    EXPECT_EQ(parsed->audio.rtp_port, sdp.audio.rtp_port);
    EXPECT_EQ(parsed->audio.payload_types, sdp.audio.payload_types);
    EXPECT_EQ(parsed->audio.ssrc, sdp.audio.ssrc);
  }
}

TEST(SdpTest, NegotiationTable) {
  // RFC 3264 answer selection over the codec tier's interesting cases:
  // offerer preference wins, answer order is irrelevant, disjoint sets fail.
  struct Case {
    sip::PayloadTypes offer;
    sip::PayloadTypes answer;
    std::optional<std::uint8_t> expect;
  };
  const std::vector<Case> cases = {
      {{0}, {0}, 0},                // single common codec
      {{0, 8, 18}, {18, 8}, 8},     // first offered pt the answerer supports
      {{18, 0}, {0, 8}, 0},         // G.729 preferred but unsupported
      {{3, 18, 0}, {0}, 0},         // fallback to the last offered pt
      {{97, 3}, {3, 97}, 97},       // offer order beats answer order
      {{0, 8}, {18}, std::nullopt}, // disjoint: 488 territory
      {{18}, {}, std::nullopt},     // empty answer can accept nothing
  };
  for (const Case& c : cases) {
    sip::Sdp offer;
    offer.connection_host = "a";
    offer.audio.payload_types = c.offer;
    sip::Sdp answer;
    answer.connection_host = "b";
    answer.audio.payload_types = c.answer;
    EXPECT_EQ(sip::Sdp::negotiate(offer, answer), c.expect);
  }
}

TEST(SdpTest, NegotiatePrefersOfferOrder) {
  sip::Sdp offer;
  offer.connection_host = "a";
  offer.audio.payload_types = {8, 0};
  sip::Sdp answer;
  answer.connection_host = "b";
  answer.audio.payload_types = {0, 8};
  const auto pt = sip::Sdp::negotiate(offer, answer);
  ASSERT_TRUE(pt);
  EXPECT_EQ(*pt, 8);  // offerer listed PCMA first

  answer.audio.payload_types = {18};
  EXPECT_FALSE(sip::Sdp::negotiate(offer, answer));
}

}  // namespace
