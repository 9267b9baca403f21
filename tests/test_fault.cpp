// Unit tests for the fault-injection subsystem: plan parsing, the injector's
// target binding, and the link-level blackout accounting the chaos benches
// depend on.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "net/link.hpp"
#include "net/network.hpp"
#include "net/node.hpp"
#include "pbx/asterisk_pbx.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace pbxcap;
using fault::FaultKind;
using fault::FaultPlan;
using fault::LinkTarget;

// ---------------------------------------------------------------------------
// parse_duration
// ---------------------------------------------------------------------------

TEST(FaultDuration, AcceptsAllUnits) {
  Duration d{};
  ASSERT_TRUE(fault::parse_duration("250ns", d));
  EXPECT_EQ(d, Duration::nanos(250));
  ASSERT_TRUE(fault::parse_duration("3us", d));
  EXPECT_EQ(d, Duration::micros(3));
  ASSERT_TRUE(fault::parse_duration("500ms", d));
  EXPECT_EQ(d, Duration::millis(500));
  ASSERT_TRUE(fault::parse_duration("1.5s", d));
  EXPECT_EQ(d, Duration::millis(1500));
  ASSERT_TRUE(fault::parse_duration("2m", d));
  EXPECT_EQ(d, Duration::seconds(120));
}

TEST(FaultDuration, RejectsBareNumbersAndGarbage) {
  Duration d{};
  EXPECT_FALSE(fault::parse_duration("10", d));  // unit is mandatory
  EXPECT_FALSE(fault::parse_duration("", d));
  EXPECT_FALSE(fault::parse_duration("s", d));
  EXPECT_FALSE(fault::parse_duration("-1s", d));
  EXPECT_FALSE(fault::parse_duration("ten seconds", d));
}

// ---------------------------------------------------------------------------
// FaultPlan::parse
// ---------------------------------------------------------------------------

TEST(FaultPlan_, ParsesEveryDirectiveKind) {
  const auto plan = FaultPlan::parse(
      "# a comment, then a blank line\n"
      "\n"
      "@10s link client loss=0.05 jitter_mean=5ms jitter_stddev=2ms\n"
      "@20s link server blackout=on bandwidth=1e6 queue_limit=10\n"
      "@25s link pbx blackout=off propagation=2ms\n"
      "@30s pbx stall 2s\n"
      "@40s pbx crash dead=5s\n");
  ASSERT_EQ(plan.size(), 5u);
  const auto& ev = plan.events();

  EXPECT_EQ(ev[0].at, Duration::seconds(10));
  EXPECT_EQ(ev[0].kind, FaultKind::kLink);
  EXPECT_EQ(ev[0].target, LinkTarget::kClient);
  ASSERT_TRUE(ev[0].change.loss_probability.has_value());
  EXPECT_DOUBLE_EQ(*ev[0].change.loss_probability, 0.05);
  EXPECT_EQ(ev[0].change.jitter_mean, Duration::millis(5));
  EXPECT_EQ(ev[0].change.jitter_stddev, Duration::millis(2));
  EXPECT_FALSE(ev[0].change.blackout.has_value());

  EXPECT_EQ(ev[1].target, LinkTarget::kServer);
  EXPECT_EQ(ev[1].change.blackout, true);
  EXPECT_DOUBLE_EQ(*ev[1].change.bandwidth_bps, 1e6);
  EXPECT_EQ(*ev[1].change.queue_limit_packets, 10u);

  EXPECT_EQ(ev[2].target, LinkTarget::kPbx);
  EXPECT_EQ(ev[2].change.blackout, false);
  EXPECT_EQ(ev[2].change.propagation, Duration::millis(2));

  EXPECT_EQ(ev[3].kind, FaultKind::kStall);
  EXPECT_EQ(ev[3].duration, Duration::seconds(2));

  EXPECT_EQ(ev[4].kind, FaultKind::kCrash);
  EXPECT_EQ(ev[4].duration, Duration::seconds(5));
}

TEST(FaultPlan_, KeepsEventsSortedByTime) {
  const auto plan = FaultPlan::parse(
      "@30s pbx stall 1s\n"
      "@10s pbx stall 1s\n"
      "@20s pbx stall 1s\n");
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.events()[0].at, Duration::seconds(10));
  EXPECT_EQ(plan.events()[1].at, Duration::seconds(20));
  EXPECT_EQ(plan.events()[2].at, Duration::seconds(30));
}

TEST(FaultPlan_, BadLinesNameTheLineNumber) {
  const auto expect_throw = [](const char* text) {
    EXPECT_THROW((void)FaultPlan::parse(text), std::invalid_argument) << text;
  };
  expect_throw("link client loss=0.5\n");         // missing @time
  expect_throw("@10s\n");                          // too few fields
  expect_throw("@10x link client loss=0.5\n");     // bad time unit
  expect_throw("@10s link uplink loss=0.5\n");     // unknown target
  expect_throw("@10s link client\n");              // no key=value pairs
  expect_throw("@10s link client loss=1.5\n");     // probability out of range
  expect_throw("@10s link client color=red\n");    // unknown key
  expect_throw("@10s pbx stall\n");                // stall without duration
  expect_throw("@10s pbx crash dead=0s\n");        // zero dead time
  expect_throw("@10s pbx reboot now\n");           // unknown pbx directive
  expect_throw("@10s router client loss=0.5\n");   // unknown directive

  expect_throw("@10s link client loss=nan\n");     // not a number
  expect_throw("@infs pbx stall 1s\n");            // infinite time
  expect_throw("@1e300s pbx stall 1s\n");          // beyond the clock's range

  try {
    (void)FaultPlan::parse("@1s pbx stall 1s\n@2s nonsense\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("line 2"), std::string::npos) << e.what();
  }
}

/// Seeded insert, delete and splice mutations of a plan that holds every
/// directive kind and every link key: each mutant parses or throws
/// std::invalid_argument, and nothing else.
TEST(FaultPlan_, MutatedPlansParseOrThrowInvalidArgument) {
  const std::string corpus =
      "# every directive kind\n"
      "@10s link client loss=0.05 jitter_mean=5ms jitter_stddev=2ms\n"
      "@20s link server blackout=on bandwidth=1e6 queue_limit=10\n"
      "@25s link pbx blackout=off propagation=2ms\n"
      "@250ms link client loss=0 jitter_mean=0us jitter_stddev=500ns\n"
      "@30s pbx stall 2s\n"
      "@1.5m pbx crash dead=5s\n";
  ASSERT_EQ(FaultPlan::parse(corpus).size(), 6u);

  sim::Random rng{0xFA17};
  const auto pick = [&rng](std::size_t n) { return static_cast<std::size_t>(rng.uniform_int(n)); };
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (int i = 0; i < 3000; ++i) {
    std::string mutant = corpus;
    for (std::size_t edits = 1 + pick(3); edits > 0; --edits) {
      const std::size_t pos = pick(mutant.size() + 1);
      switch (pick(3)) {
        case 0: {  // insert a random byte or one of the corpus's own bytes
          const char byte =
              pick(2) == 0 ? static_cast<char>(pick(256)) : corpus[pick(corpus.size())];
          mutant.insert(pos, 1, byte);
          break;
        }
        case 1:  // delete a short run
          mutant.erase(pos, 1 + pick(8));
          break;
        default: {  // splice a piece of the corpus over a short run
          const std::size_t from = pick(corpus.size());
          const std::string piece = corpus.substr(from, 1 + pick(16));
          mutant.replace(pos, pick(4), piece);
          break;
        }
      }
    }
    try {
      (void)FaultPlan::parse(mutant);
      ++parsed;
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
  }
  // Both outcomes must occur, or the mutations are too mild or too wild.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

// ---------------------------------------------------------------------------
// FaultInjector against a live network.
// ---------------------------------------------------------------------------

/// Test endpoint: sends on schedule, counts deliveries.
class PulseNode final : public net::Node {
 public:
  explicit PulseNode(std::string name) : Node{std::move(name)} {}

  void on_receive(const net::Packet&) override { ++received; }

  void transmit_to(net::NodeId dst) {
    net::Packet pkt;
    pkt.dst = dst;
    pkt.size_bytes = 200;
    send(std::move(pkt));
  }

  int received{0};
};

TEST(FaultInjector_, BlackoutWindowDropsAreCountedAsImpairment) {
  sim::Simulator simulator;
  net::Network network{simulator, sim::Random{7}};
  PulseNode a{"a"};
  PulseNode b{"b"};
  network.attach(a);
  network.attach(b);
  net::Link& link = network.connect(a, b, {});

  const auto plan = FaultPlan::parse(
      "@1s link client blackout=on\n"
      "@2s link client blackout=off\n");
  fault::FaultInjector injector{simulator, plan, {.client_link = &link}};
  injector.arm();

  // One packet every 100 ms for 3 s: 10 land in the blackout second.
  for (int i = 0; i < 30; ++i) {
    simulator.schedule_at(TimePoint::at(Duration::millis(100 * i + 50)),
                          [&a, &b] { a.transmit_to(b.id()); });
  }
  simulator.run();

  EXPECT_EQ(injector.events_applied(), 2u);
  EXPECT_EQ(injector.events_skipped(), 0u);
  EXPECT_FALSE(link.blacked_out());
  // The regression this pins: blackout drops must be *counted*, not vanish.
  EXPECT_EQ(link.stats_from(a.id()).dropped_impairment, 10u);
  EXPECT_EQ(b.received, 20);
}

TEST(FaultInjector_, NullTargetsAreSkippedNotFatal) {
  sim::Simulator simulator;
  const auto plan = FaultPlan::parse(
      "@1s link server loss=0.5\n"
      "@2s pbx stall 1s\n");
  fault::FaultInjector injector{simulator, plan, {}};
  injector.arm();
  simulator.run();
  EXPECT_EQ(injector.events_applied(), 0u);
  EXPECT_EQ(injector.events_skipped(), 2u);
}

TEST(FaultInjector_, DrivesPbxStallAndCrash) {
  sim::Simulator simulator;
  net::Network network{simulator, sim::Random{5}};
  sip::HostResolver resolver;
  pbx::AsteriskPbx pbx{{}, simulator, resolver};
  network.attach(pbx);
  pbx.bind();

  const auto plan = FaultPlan::parse(
      "@1s pbx stall 500ms\n"
      "@3s pbx crash dead=2s\n");
  fault::FaultInjector injector{simulator, plan, {.pbx = &pbx}};
  injector.arm();
  simulator.run();

  EXPECT_EQ(injector.events_applied(), 2u);
  EXPECT_EQ(pbx.stalls(), 1u);
  EXPECT_EQ(pbx.crashes(), 1u);
  EXPECT_EQ(pbx.channels().in_use(), 0u);  // channel state lost on crash
}

}  // namespace
