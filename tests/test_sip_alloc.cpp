// Heap-allocation budgets of the signalling path and the media path.
//
// Replaces the global operator new with a counter. The signalling budget
// runs a small dispatcher cluster with fluid media, so nearly all of the run
// is SIP signalling. Fails when the allocations per completed call rise
// above a bound set just above the measured count: a per-message temporary
// (a stream, a split vector, a key string) added anywhere on the call path
// shows up here before it shows up in wall time. The media budget runs a
// per-packet testbed, where nearly every event is a relayed RTP packet, and
// holds the packet path to no allocation of its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <utility>

#include "dispatch/dispatcher.hpp"
#include "exp/cluster.hpp"
#include "exp/testbed.hpp"
#include "sip/message.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Kept out of line: inlined into a caller, GCC's mismatched-new-delete check
// would see free() on a pointer from operator new.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace pbxcap;

/// 3 x 10 channels behind the least-loaded dispatcher, 24 E of 10 s calls,
/// fluid media. `window` is the placement window; zero places no call.
exp::ClusterConfig signalling_cluster(Duration window) {
  exp::ClusterConfig config;
  config.scenario = loadgen::CallScenario::for_offered_load(24.0, Duration::seconds(10));
  config.scenario.placement_window = window;
  config.servers = 3;
  config.channels_per_server = 10;
  config.drain = Duration::seconds(10);
  config.routing = exp::ClusterRouting::kDispatcher;
  config.dispatcher.policy = dispatch::Policy::kLeastLoaded;
  config.fluid.enabled = true;
  config.seed = 2303;
  return config;
}

struct Counted {
  std::uint64_t allocs{0};
  std::uint64_t completed{0};
};

Counted count_run(const exp::ClusterConfig& config) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const exp::ClusterResult result = exp::run_cluster(config);
  return {g_allocs.load(std::memory_order_relaxed) - before, result.report.calls_completed};
}

TEST(SipAllocationBudget, PerCompletedCallStaysUnderTheBound) {
  // The set-up (topology, endpoints, dispatcher) is the same run with no
  // arrivals; what the placement window adds is the calls' own traffic plus
  // the dispatcher's OPTIONS probes over the window.
  const Counted setup = count_run(signalling_cluster(Duration::zero()));
  const Counted run = count_run(signalling_cluster(Duration::seconds(120)));
  ASSERT_EQ(setup.completed, 0U);
  ASSERT_GT(run.completed, 200U);
  ASSERT_GT(run.allocs, setup.allocs);
  const double per_call =
      static_cast<double>(run.allocs - setup.allocs) / static_cast<double>(run.completed);
  std::printf("allocations: set-up %llu, run %llu, %llu completed calls, %.2f per call\n",
              static_cast<unsigned long long>(setup.allocs),
              static_cast<unsigned long long>(run.allocs),
              static_cast<unsigned long long>(run.completed), per_call);
  // Measured 142.1 per call; the bound sits just above it.
  constexpr double kBudgetPerCall = 146.0;
  EXPECT_LE(per_call, kBudgetPerCall);
}

/// 10 E of 180 s calls onto 30 channels, exact per-packet media. `window` is
/// the placement window; zero places no call.
exp::TestbedConfig media_testbed(Duration window) {
  exp::TestbedConfig config;
  config.scenario = loadgen::CallScenario::for_offered_load(10.0, Duration::seconds(180));
  config.scenario.placement_window = window;
  config.pbx.max_channels = 30;
  config.seed = 2303;
  return config;
}

TEST(MediaAllocationBudget, RelayedRtpPacketsAllocateNothing) {
  // About 8 calls of 18,000 relayed packets each. What a call's signalling,
  // bridge and media legs allocate once (a few hundred) is spread over its
  // packets; an allocation per packet (a payload object, a node-based
  // lookup, a closure off the inline buffer) puts the run at 1 or more.
  const auto count = [](Duration window) {
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    const monitor::ExperimentReport report = exp::run_testbed(media_testbed(window));
    return std::pair{g_allocs.load(std::memory_order_relaxed) - before, report.rtp_relayed};
  };
  const auto [setup_allocs, setup_relayed] = count(Duration::zero());
  const auto [allocs, relayed] = count(Duration::seconds(120));
  ASSERT_EQ(setup_relayed, 0U);
  ASSERT_GT(relayed, 100'000U);
  ASSERT_GT(allocs, setup_allocs);
  const double per_packet =
      static_cast<double>(allocs - setup_allocs) / static_cast<double>(relayed);
  std::printf("allocations: set-up %llu, run %llu, %llu relayed RTP packets, %.4f per packet\n",
              static_cast<unsigned long long>(setup_allocs),
              static_cast<unsigned long long>(allocs), static_cast<unsigned long long>(relayed),
              per_packet);
  EXPECT_LT(per_packet, 0.02);
}

TEST(SipAllocationBudget, ResponseToCopiesNoString) {
  // Every field longer than the 15-byte small-string buffer, so a copied
  // string would allocate.
  sip::Message invite = sip::Message::request(sip::Method::kInvite,
                                              sip::Uri{"receiver-000001", "sipp-server.unb.br"});
  invite.vias().push_back({"sipp-client.unb.br", "z9hG4bK-sipp-client.unb.br-1"});
  invite.set_identity(std::make_shared<const sip::DialogIdentity>(sip::DialogIdentity{
      "call-000001@sipp-client.unb.br",
      {sip::Uri{"caller-000001", "sipp-client.unb.br"}, "sipp-client.unb.br-tag1"},
      {sip::Uri{"receiver-000001", "sipp-server.unb.br"}, ""}}));
  invite.set_cseq({1, sip::Method::kInvite});
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const sip::Message ringing = sip::Message::response_to(invite, sip::status::kRinging);
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0U);
  EXPECT_EQ(ringing.call_id(), invite.call_id());
}

}  // namespace
