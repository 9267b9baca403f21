// Tests for the SIP endpoint plumbing: host resolution, wire encapsulation,
// tag/branch minting, message counting.
#include <gtest/gtest.h>

#include "net/network.hpp"
#include "net/switch_node.hpp"
#include "sim/simulator.hpp"
#include "sip/endpoint.hpp"
#include "sip/parse.hpp"

namespace {

using namespace pbxcap;
using sip::Message;
using sip::Method;

class EchoEndpoint final : public sip::SipEndpoint {
 public:
  EchoEndpoint(std::string name, std::string host, sim::Simulator& simulator,
               sip::HostResolver& resolver)
      : sip::SipEndpoint{std::move(name), std::move(host), simulator, resolver} {
    transactions().on_request = [this](const Message& req, sip::ServerTransaction& txn) {
      last_request = std::make_unique<Message>(req);
      Message ok = Message::response_to(req, 200);
      txn.respond(ok);
    };
  }

  void probe(const std::string& dst_host) {
    Message msg = Message::request(Method::kOptions, sip::Uri{"", dst_host});
    msg.from() = {sip::Uri{"probe", sip_host()}, new_tag()};
    msg.to() = {sip::Uri{"", dst_host}, ""};
    msg.set_call_id("probe-1@" + sip_host());
    msg.set_cseq({1, Method::kOptions});
    send_request_to(msg, resolver().resolve(dst_host), [this](const Message& resp) {
      last_response_code = resp.status_code();
    });
  }

  std::unique_ptr<Message> last_request;
  int last_response_code{0};
};

struct EndpointFixture : ::testing::Test {
  sim::Simulator simulator;
  net::Network network{simulator, sim::Random{2}};
  sip::HostResolver resolver;
  net::SwitchNode sw{"sw"};
  EchoEndpoint a{"node-a", "a.unb.br", simulator, resolver};
  EchoEndpoint b{"node-b", "b.unb.br", simulator, resolver};

  void SetUp() override {
    network.attach(sw);
    network.attach(a);
    network.attach(b);
    network.connect(a, sw, {});
    network.connect(b, sw, {});
    a.bind();
    b.bind();
  }
};

TEST_F(EndpointFixture, ResolverMapsHostsAfterBind) {
  EXPECT_EQ(resolver.resolve("a.unb.br"), a.id());
  EXPECT_EQ(resolver.resolve("b.unb.br"), b.id());
  EXPECT_EQ(resolver.resolve("nowhere"), net::kInvalidNode);
}

TEST_F(EndpointFixture, RequestResponseRoundTrip) {
  a.probe("b.unb.br");
  simulator.run_until(TimePoint::origin() + Duration::seconds(1));
  EXPECT_EQ(a.last_response_code, 200);
  ASSERT_NE(b.last_request, nullptr);
  EXPECT_EQ(b.last_request->method(), Method::kOptions);
  // Counters: A sent 1 (OPTIONS), received 1 (200); B the reverse.
  EXPECT_EQ(a.sip_messages_sent(), 1u);
  EXPECT_EQ(a.sip_messages_received(), 1u);
  EXPECT_EQ(b.sip_messages_sent(), 1u);
  EXPECT_EQ(b.sip_messages_received(), 1u);
}

TEST_F(EndpointFixture, WireSizeMatchesSerializedMessage) {
  // The packet on the wire must carry the real serialized size + UDP/IP/Eth.
  std::uint32_t captured_size = 0;
  Message captured_msg;
  network.add_tap([&](const net::Packet& pkt, net::NodeId, net::NodeId to) {
    if (pkt.kind == net::PacketKind::kSip && to == b.id()) {
      captured_size = pkt.size_bytes;
      captured_msg = pkt.payload_as<sip::SipPayload>()->msg;
    }
  });
  a.probe("b.unb.br");
  simulator.run_until(TimePoint::origin() + Duration::seconds(1));
  ASSERT_GT(captured_size, 0u);
  EXPECT_EQ(captured_size,
            net::wire_size(static_cast<std::uint32_t>(sip::serialize(captured_msg).size())));
}

TEST_F(EndpointFixture, UnknownDestinationThrows) {
  Message msg = Message::request(Method::kOptions, sip::Uri{"", "ghost.unb.br"});
  msg.from() = {sip::Uri{"probe", "a.unb.br"}, "t1"};
  msg.to() = {sip::Uri{"", "ghost.unb.br"}, ""};
  msg.set_call_id("x");
  msg.set_cseq({1, Method::kOptions});
  EXPECT_THROW(a.probe("ghost.unb.br"), std::invalid_argument);
}

TEST_F(EndpointFixture, TagsAndBranchesAreUnique) {
  EXPECT_NE(a.new_tag(), a.new_tag());
  EXPECT_NE(a.new_tag(), b.new_tag());  // host-scoped prefixes differ
  EXPECT_NE(a.transactions().new_branch(), b.transactions().new_branch());
}

TEST_F(EndpointFixture, ParsedAndCarriedMessagesAgree) {
  // Round-trip what actually crossed the simulated wire through the real
  // parser: the carried object and its re-parsed form must agree.
  Message on_wire;
  network.add_tap([&](const net::Packet& pkt, net::NodeId, net::NodeId to) {
    if (pkt.kind == net::PacketKind::kSip && to == b.id()) {
      on_wire = pkt.payload_as<sip::SipPayload>()->msg;
    }
  });
  a.probe("b.unb.br");
  simulator.run_until(TimePoint::origin() + Duration::seconds(1));
  const auto reparsed = sip::parse_message(sip::serialize(on_wire));
  ASSERT_TRUE(reparsed.ok()) << reparsed.error;
  EXPECT_EQ(sip::serialize(*reparsed.message), sip::serialize(on_wire));
}

}  // namespace
