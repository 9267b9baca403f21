// Tests for the ACD subsystem: the wait-queue/agent-pool policy core, the
// media-port allocator, and the end-to-end behaviour through run_testbed /
// run_cluster — including regression tests for the two caller-loss bugs the
// subsystem replaced (the serve/acquire race that dropped a popped caller,
// and the wrapping RTP port counter that collided above ~5,000 concurrent
// bridged calls).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "core/erlang_a.hpp"
#include "core/erlang_c.hpp"
#include "exp/cluster.hpp"
#include "exp/testbed.hpp"
#include "pbx/acd.hpp"
#include "pbx/media_ports.hpp"

namespace {

using namespace pbxcap;

// ---------------------------------------------------------- media ports

TEST(MediaPortAllocator, PortsStayUniqueBeyondTheOldWrapPoint) {
  // The old counter wrapped 10000 -> 19998 in steps of 2: the 5,001st
  // concurrent bridge silently reused a live port. The allocator must hand
  // out unique even ports well past that point.
  pbx::MediaPortAllocator alloc;  // default 10000..65534
  std::set<std::uint16_t> seen;
  for (int i = 0; i < 6'000; ++i) {
    const std::uint16_t port = alloc.allocate();
    ASSERT_NE(port, 0) << "exhausted at " << i;
    EXPECT_EQ(port % 2, 0) << "RTP ports are even (RTCP = port + 1)";
    EXPECT_TRUE(seen.insert(port).second) << "port " << port << " reused while live";
  }
  EXPECT_EQ(alloc.in_use(), 6'000u);
  EXPECT_EQ(alloc.exhausted(), 0u);
}

TEST(MediaPortAllocator, ExhaustionIsAnErrorNotAWrap) {
  pbx::MediaPortAllocator alloc{10'000, 10'006};  // 4 even ports
  EXPECT_EQ(alloc.capacity(), 4u);
  std::vector<std::uint16_t> ports;
  for (int i = 0; i < 4; ++i) ports.push_back(alloc.allocate());
  EXPECT_EQ(alloc.allocate(), 0) << "full pool must refuse, not reuse";
  EXPECT_EQ(alloc.exhausted(), 1u);
  alloc.release(ports[1]);
  EXPECT_EQ(alloc.allocate(), ports[1]);
}

// ----------------------------------------------------------- wait queue

std::unique_ptr<pbx::AcdWaitQueue::Entry> make_entry(std::size_t cdr) {
  auto e = std::make_unique<pbx::AcdWaitQueue::Entry>();
  e->cdr = cdr;
  return e;
}

TEST(AcdWaitQueue, LiveCountIsExactUnderInterleavedDeaths) {
  // The old implementation re-scanned the deque per arrival and let dead
  // middle entries linger without bound. live_count() must be O(1)-exact
  // and compaction must bound the raw deque length.
  pbx::AcdWaitQueue q;
  std::vector<pbx::AcdWaitQueue::Entry*> entries;
  for (std::size_t i = 0; i < 100; ++i) entries.push_back(&q.push_back(make_entry(i)));
  EXPECT_EQ(q.live_count(), 100u);

  // Kill every odd entry in the middle (simulating interleaved timeouts).
  for (std::size_t i = 1; i < 100; i += 2) q.mark_dead(*entries[i]);
  EXPECT_EQ(q.live_count(), 50u);
  // Amortized compaction: dead entries never outnumber live + 8.
  EXPECT_LE(q.raw_size(), q.live_count() * 2 + 9);

  // Dispatch must skip the dead prefix/middle and deliver cdrs in FIFO
  // order of the survivors.
  for (std::size_t expect = 0; expect < 100; expect += 2) {
    auto popped = q.pop_front_live();
    ASSERT_NE(popped, nullptr);
    EXPECT_EQ(popped->cdr, expect);
  }
  EXPECT_EQ(q.pop_front_live(), nullptr);
  EXPECT_EQ(q.live_count(), 0u);
}

TEST(AcdWaitQueue, PushFrontRestoresTheHeadAfterAFailedServe) {
  // The serve/acquire race fix: a popped caller whose bridge attempt finds
  // no channel is returned to the head of the line, not dropped.
  pbx::AcdWaitQueue q;
  q.push_back(make_entry(1));
  q.push_back(make_entry(2));
  auto head = q.pop_front_live();
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head->cdr, 1u);
  EXPECT_EQ(q.live_count(), 1u);
  q.push_front(std::move(head));
  EXPECT_EQ(q.live_count(), 2u);
  auto again = q.pop_front_live();
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->cdr, 1u) << "re-queued caller keeps their place in line";
}

TEST(AcdWaitQueue, PositionCountsLiveEntriesOnly) {
  pbx::AcdWaitQueue q;
  auto& a = q.push_back(make_entry(1));
  auto& b = q.push_back(make_entry(2));
  auto& c = q.push_back(make_entry(3));
  EXPECT_EQ(q.position_of(c), 3u);
  q.mark_dead(b);
  EXPECT_EQ(q.position_of(a), 1u);
  EXPECT_EQ(q.position_of(c), 2u);
}

// ----------------------------------------------------------- agent pool

pbx::AcdAgentPool make_pool(std::uint32_t count) {
  return pbx::AcdAgentPool{{pbx::AcdAgentSpec{.count = count}}};
}

TEST(AcdAgentPool, LeastRecentPicksTheLongestIdleAgent) {
  auto pool = make_pool(3);
  std::uint64_t rung = 0;
  // Run one call on agent 0, then on agent 1: agent 2 (never used, oldest
  // sequence) then agent 0 are now the least-recent order.
  for (std::uint32_t id : {0u, 1u}) {
    auto* agent = pool.by_id(id);
    pool.begin_call(*agent, TimePoint::origin());
    pool.end_call(id);
  }
  auto* pick = pool.pick(pbx::RingStrategy::kLeastRecent, rung);
  ASSERT_NE(pick, nullptr);
  EXPECT_EQ(pick->id, 2u);
  EXPECT_EQ(rung, 1u);
}

TEST(AcdAgentPool, FewestCallsBalancesCompletedWork) {
  auto pool = make_pool(3);
  std::uint64_t rung = 0;
  for (int i = 0; i < 2; ++i) {
    pool.begin_call(*pool.by_id(0), TimePoint::origin());
    pool.end_call(0);
  }
  pool.begin_call(*pool.by_id(2), TimePoint::origin());
  pool.end_call(2);
  auto* pick = pool.pick(pbx::RingStrategy::kFewestCalls, rung);
  ASSERT_NE(pick, nullptr);
  EXPECT_EQ(pick->id, 1u) << "agent 1 has taken no calls yet";
}

TEST(AcdAgentPool, PenaltyTiersRingTheLowTierFirst) {
  pbx::AcdAgentPool pool{{pbx::AcdAgentSpec{.count = 2, .penalty = 5},
                          pbx::AcdAgentSpec{.count = 2, .penalty = 0}}};
  std::uint64_t rung = 0;
  auto* pick = pool.pick(pbx::RingStrategy::kPenaltyTiers, rung);
  ASSERT_NE(pick, nullptr);
  EXPECT_EQ(pick->penalty, 0u);
  // Tier 0 fully busy: overflow to the penalty-5 backup tier.
  pool.begin_call(*pick, TimePoint::origin());
  auto* second = pool.pick(pbx::RingStrategy::kPenaltyTiers, rung);
  ASSERT_NE(second, nullptr);
  pool.begin_call(*second, TimePoint::origin());
  EXPECT_EQ(second->penalty, 0u);
  auto* backup = pool.pick(pbx::RingStrategy::kPenaltyTiers, rung);
  ASSERT_NE(backup, nullptr);
  EXPECT_EQ(backup->penalty, 5u);
}

TEST(AcdAgentPool, RingAllChargesEveryAvailableAgent) {
  auto pool = make_pool(4);
  std::uint64_t rung = 0;
  auto* pick = pool.pick(pbx::RingStrategy::kRingAll, rung);
  ASSERT_NE(pick, nullptr);
  EXPECT_EQ(pick->id, 0u) << "lowest id answers first";
  EXPECT_EQ(rung, 4u) << "ringall rings the whole available pool";
  pool.begin_call(*pick, TimePoint::origin());
  EXPECT_EQ(pool.pick(pbx::RingStrategy::kRingAll, rung)->id, 1u);
  EXPECT_EQ(rung, 7u);
}

TEST(AcdAgentPool, WrapupAndBusyAgentsAreNotPickable) {
  auto pool = make_pool(2);
  std::uint64_t rung = 0;
  pool.begin_call(*pool.by_id(0), TimePoint::origin());
  pool.agents()[1].in_wrapup = true;
  EXPECT_EQ(pool.pick(pbx::RingStrategy::kLeastRecent, rung), nullptr);
  EXPECT_EQ(pool.available_count(), 0u);
  pool.agents()[1].in_wrapup = false;
  EXPECT_EQ(pool.pick(pbx::RingStrategy::kLeastRecent, rung)->id, 1u);
}

TEST(AcdAgentPool, EndCallIsIdempotentForTheCrashPath) {
  auto pool = make_pool(1);
  pool.begin_call(*pool.by_id(0), TimePoint::origin());
  EXPECT_NE(pool.end_call(0), nullptr);
  EXPECT_EQ(pool.end_call(0), nullptr) << "double release must be a no-op";
}

// ------------------------------------------------------------ end-to-end

exp::TestbedConfig acd_testbed(double offered_erlangs, std::uint32_t agents,
                               pbx::AcdQueueConfig queue = {}) {
  exp::TestbedConfig config;
  config.scenario =
      loadgen::CallScenario::for_offered_load(offered_erlangs, Duration::seconds(20));
  config.scenario.hold_model = sim::HoldTimeModel::kExponential;
  config.scenario.placement_window = Duration::seconds(300);
  config.scenario.acd.fraction = 1.0;
  config.scenario.acd.queue = "support";
  config.pbx.acd.enabled = true;
  queue.name = "support";
  queue.agents = {pbx::AcdAgentSpec{.count = agents}};
  config.pbx.acd.queues = {queue};
  config.drain = Duration::seconds(180);
  config.seed = 71;
  return config;
}

TEST(AcdEndToEnd, ServeRaceWithExhaustedChannelsLosesNoCaller) {
  // Regression for the headline loss bug: the old serve path popped the
  // caller, cancelled their timers, and only then discovered the channel
  // pool was empty — returning without re-queueing, so the caller hung
  // forever. Run with fewer channels than agents so dispatch genuinely hits
  // the no-channel outcome, and require exact conservation.
  auto config = acd_testbed(2.0, 8);
  config.pbx.max_channels = 3;  // agents free, channels scarce: forces the race
  const auto r = exp::run_testbed(config);
  EXPECT_GT(r.acd.serve_retries, 0u) << "the no-channel path never ran: test is vacuous";
  EXPECT_GT(r.acd.offered, 0u);
  EXPECT_EQ(r.acd.offered, r.acd.served) << "patient stable queue must serve every caller";
  EXPECT_EQ(r.acd.serve_failures, 0u);
  EXPECT_EQ(r.calls_failed, 0u);
}

TEST(AcdEndToEnd, PatientQueueTracksErlangC) {
  // rho = 0.7 on 4 agents: an M/M/4 delay system on the agent pool. Waits
  // are heavily autocorrelated, so this smoke check needs a longish window
  // and a loose bound; the bench sweeps the tight gates over pooled
  // replications.
  auto config = acd_testbed(2.8, 4);
  config.scenario.placement_window = Duration::seconds(1'200);
  const auto r = exp::run_testbed(config);
  ASSERT_GT(r.acd.offered, 0u);
  EXPECT_EQ(r.acd.offered, r.acd.served);
  const double measured =
      static_cast<double>(r.acd.queued) / static_cast<double>(r.acd.offered);
  const double analytic = erlang::erlang_c(erlang::Erlangs{2.8}, 4);
  EXPECT_NEAR(measured, analytic, 0.15);
  // Everyone who waited is also in the wait histogram with a positive wait.
  EXPECT_EQ(r.acd.wait_s.count(), r.acd.offered);
}

TEST(AcdEndToEnd, OverloadAbandonmentTracksErlangA) {
  // rho = 1.2 on 4 agents with Exp(20 s) patience: M/M/4+M. Abandonment is
  // what keeps the queue finite; its rate must sit near the Erlang-A value.
  pbx::AcdQueueConfig queue;
  queue.patience = pbx::PatienceModel::kExponential;
  queue.patience_mean = Duration::seconds(20);
  auto config = acd_testbed(4.8, 4, queue);
  config.scenario.placement_window = Duration::seconds(600);
  const auto r = exp::run_testbed(config);
  ASSERT_GT(r.acd.offered, 0u);
  EXPECT_GT(r.acd.abandoned, 0u);
  const double measured =
      static_cast<double>(r.acd.abandoned) / static_cast<double>(r.acd.offered);
  const auto ea = erlang::erlang_a(erlang::Erlangs{4.8}, 4, Duration::seconds(20),
                                   Duration::seconds(20));
  EXPECT_NEAR(measured, ea.abandon_probability, 0.08);
  // Conservation: every offered caller was served or reneged.
  EXPECT_EQ(r.acd.offered, r.acd.served + r.acd.abandoned);
}

TEST(AcdEndToEnd, FullQueueOverflowsToVoicemailInsteadOf503) {
  pbx::AcdQueueConfig queue;
  queue.max_queue_length = 2;
  queue.max_wait = Duration::seconds(60);
  queue.voicemail_fallback = true;
  auto config = acd_testbed(3.0, 1, queue);
  const auto r = exp::run_testbed(config);
  EXPECT_GT(r.acd.voicemail, 0u) << "overflow must take the voicemail leg";
  EXPECT_EQ(r.acd.blocked_full, 0u) << "with voicemail enabled nobody gets the hard 503";
  EXPECT_EQ(r.calls_blocked, 0u);
  EXPECT_EQ(r.acd.offered, r.acd.served + r.acd.voicemail);
}

TEST(AcdEndToEnd, FullQueueRejectsWith503WithoutVoicemail) {
  pbx::AcdQueueConfig queue;
  queue.max_queue_length = 2;
  auto config = acd_testbed(3.0, 1, queue);
  const auto r = exp::run_testbed(config);
  EXPECT_GT(r.acd.blocked_full, 0u);
  EXPECT_EQ(r.calls_blocked, r.acd.blocked_full)
      << "every ACD queue-full rejection surfaces as a blocked call";
}

TEST(AcdEndToEnd, MaxWaitExpiryTimesTheCallerOut) {
  pbx::AcdQueueConfig queue;
  queue.max_wait = Duration::seconds(15);
  auto config = acd_testbed(3.0, 1, queue);
  const auto r = exp::run_testbed(config);
  EXPECT_GT(r.acd.timed_out, 0u);
  EXPECT_EQ(r.acd.offered,
            r.acd.served + r.acd.timed_out + r.acd.blocked_full + r.acd.voicemail);
}

TEST(AcdEndToEnd, AnnouncementsRideThe182Ladder) {
  // Every queued caller gets an initial 182 position update; with a 5 s
  // announce period and waits far beyond that, recurring updates dominate.
  pbx::AcdQueueConfig queue;
  queue.announce_period = Duration::seconds(5);
  queue.max_wait = Duration::seconds(45);
  auto config = acd_testbed(3.0, 1, queue);
  const auto r = exp::run_testbed(config);
  ASSERT_GT(r.acd.queued, 0u);
  EXPECT_GT(r.acd.announcements, r.acd.queued)
      << "recurring announcements must outnumber the initial per-caller 182";
}

TEST(AcdEndToEnd, WrapupThrottlesAgentThroughput) {
  // Same overloaded workload with and without 15 s of after-call work: the
  // wrapup run must serve strictly fewer callers.
  pbx::AcdQueueConfig queue;
  queue.patience = pbx::PatienceModel::kExponential;
  queue.patience_mean = Duration::seconds(20);
  const auto without = exp::run_testbed(acd_testbed(4.0, 2, queue));
  queue.agents = {};  // acd_testbed overwrites; set wrapup through the spec below
  auto config = acd_testbed(4.0, 2, queue);
  config.pbx.acd.queues[0].agents = {pbx::AcdAgentSpec{.count = 2, .wrapup = Duration::seconds(15)}};
  const auto with = exp::run_testbed(config);
  EXPECT_LT(with.acd.served, without.acd.served);
  EXPECT_GT(with.acd.abandoned, without.acd.abandoned);
}

TEST(AcdEndToEnd, FluidFastPathDoesNotPerturbAcdOutcomes) {
  // Same seed, fluid media engine off vs on: call outcomes and every ACD
  // counter must be identical (the fast path approximates media, never
  // signalling or queueing).
  pbx::AcdQueueConfig queue;
  queue.patience = pbx::PatienceModel::kExponential;
  queue.patience_mean = Duration::seconds(30);
  auto config = acd_testbed(3.6, 4, queue);
  config.scenario.acd.fraction = 0.5;  // mix ACD and plain calls
  const auto packet = exp::run_testbed(config);
  config.fluid.enabled = true;
  const auto fluid = exp::run_testbed(config);
  EXPECT_EQ(packet.calls_attempted, fluid.calls_attempted);
  EXPECT_EQ(packet.calls_completed, fluid.calls_completed);
  EXPECT_EQ(packet.calls_blocked, fluid.calls_blocked);
  EXPECT_EQ(packet.calls_failed, fluid.calls_failed);
  EXPECT_EQ(packet.acd.offered, fluid.acd.offered);
  EXPECT_EQ(packet.acd.queued, fluid.acd.queued);
  EXPECT_EQ(packet.acd.served, fluid.acd.served);
  EXPECT_EQ(packet.acd.abandoned, fluid.acd.abandoned);
  EXPECT_EQ(packet.acd.announcements, fluid.acd.announcements);
}

TEST(AcdEndToEnd, PortExhaustionRejectsCleanlyInsteadOfColliding) {
  // Shrink the RTP range to 8 ports (4 bridges): excess concurrent calls
  // must bounce with 503, not share media ports.
  exp::TestbedConfig config;
  config.scenario =
      loadgen::CallScenario::for_offered_load(10.0, Duration::seconds(20));
  config.scenario.hold_model = sim::HoldTimeModel::kExponential;
  config.scenario.placement_window = Duration::seconds(120);
  config.pbx.rtp_port_min = 10'000;
  config.pbx.rtp_port_max = 10'014;
  config.seed = 71;
  const auto r = exp::run_testbed(config);
  EXPECT_GT(r.calls_blocked, 0u);
  EXPECT_GT(r.calls_completed, 0u);
  // A bridge needs two ports, so 8 ports carry 4 bridges. The 5th channel
  // is acquired one step before port allocation bounces it (and released in
  // the same event), so the peak reads at most 4 + 1.
  EXPECT_LE(r.channels_peak, 5u);
}

// ------------------------------------------------------ Erlang-C system

/// The Erlang-C system at the PBX: every call dials one queue whose agents
/// match the channel pool, a caller still waiting after 60 s is released
/// with 503, and a 64-deep queue bounces the overflow with 503 at once.
exp::TestbedConfig erlang_c_testbed(double offered_erlangs, std::uint32_t channels) {
  pbx::AcdQueueConfig queue;
  queue.max_wait = Duration::seconds(60);
  queue.max_queue_length = 64;
  auto config = acd_testbed(offered_erlangs, channels, queue);
  config.pbx.max_channels = channels;
  return config;
}

TEST(QueueMode, NoQueueingUnderLightLoad) {
  const auto r = exp::run_testbed(erlang_c_testbed(3.0, 10));
  EXPECT_EQ(r.calls_blocked, 0u);
  EXPECT_GT(r.calls_completed, 0u);
  EXPECT_EQ(r.acd.offered, r.acd.served);
  // Setup delay stays at pure signalling latency: nothing waited.
  EXPECT_LT(r.setup_delay_ms.max(), 400.0);
  EXPECT_LT(r.acd.wait_s.mean(), 0.01);
}

TEST(QueueMode, OverloadedCallsWaitInsteadOfBlocking) {
  // 20 E onto 10 channels (rho = 2): the queue diverges, waits blow through
  // the 60 s max wait, and the overflow surfaces as blocked calls — while
  // everything the system does carry waited rather than bounced.
  const auto r = exp::run_testbed(erlang_c_testbed(20.0, 10));
  EXPECT_GT(r.calls_completed, 0u);
  // Some calls waited: their setup delay includes queue time >> signalling.
  EXPECT_GT(r.setup_delay_ms.max(), 1'000.0);
  EXPECT_GT(r.acd.wait_served_s.max(), 1.0) << "served callers waited first";
  EXPECT_GT(r.acd.timed_out, 0u);
  EXPECT_EQ(r.calls_blocked, r.acd.timed_out + r.acd.blocked_full)
      << "every release with 503 surfaces as a blocked call";
}

TEST(QueueMode, StableQueueWaitMatchesErlangC) {
  // A = 7 E on N = 10 channels (stable, rho = 0.7):
  //   P(wait) = ErlangC(7,10) ~ 22%, E[W] = C * h / (N - A) ~ 1.5 s.
  const auto r = exp::run_testbed(erlang_c_testbed(7.0, 10));
  EXPECT_EQ(r.calls_blocked, 0u);  // the 60 s max wait never triggers at rho=0.7

  // The analytical references.
  const double c = erlang::erlang_c(erlang::Erlangs{7.0}, 10);
  const Duration w =
      erlang::erlang_c_mean_wait(erlang::Erlangs{7.0}, 10, Duration::seconds(20));
  EXPECT_NEAR(c, 0.222, 0.02);
  EXPECT_NEAR(w.to_seconds(), c * 20.0 / 3.0, 1e-9);

  // Empirically: the queue's mean wait, and mean setup delay = signalling
  // (~0.2 s) + mean wait.
  ASSERT_GT(r.acd.offered, 0u);
  const double measured =
      static_cast<double>(r.acd.queued) / static_cast<double>(r.acd.offered);
  EXPECT_NEAR(measured, c, 0.15);
  EXPECT_NEAR(r.acd.wait_s.mean(), w.to_seconds(), 0.8);
  const double mean_setup_s = r.setup_delay_ms.mean() / 1000.0;
  EXPECT_NEAR(mean_setup_s, 0.2 + w.to_seconds(), 0.8);
}

TEST(QueueMode, QueueCapStillBlocks) {
  auto config = erlang_c_testbed(20.0, 5);
  config.pbx.acd.queues[0].max_queue_length = 2;
  config.scenario.placement_window = Duration::seconds(120);
  const auto r = exp::run_testbed(config);
  // Queue of 2 on a drowning system: most calls get 503 at once.
  EXPECT_GT(r.blocking_probability, 0.4);
  EXPECT_GT(r.acd.blocked_full, 0u);
  EXPECT_EQ(r.calls_blocked, r.acd.timed_out + r.acd.blocked_full);
}

TEST(QueueMode, EveryAttemptIsAccountedForUnderChurn) {
  // Regression guard for the lost-caller class of bug: with timeouts and
  // serves interleaving heavily (rho = 2, 60 s max wait), every attempted
  // call must still end in exactly one bucket — completed, blocked, or
  // failed — and every offered caller in exactly one ACD outcome.
  const auto r = exp::run_testbed(erlang_c_testbed(20.0, 10));
  EXPECT_GT(r.calls_blocked, 0u);  // max wait fires under this overload
  EXPECT_EQ(r.calls_attempted, r.calls_completed + r.calls_blocked + r.calls_failed);
  EXPECT_EQ(r.acd.offered,
            r.acd.served + r.acd.timed_out + r.acd.blocked_full + r.acd.voicemail);
}

TEST(QueueMode, TimeoutAndServeInterleavingKeepsDepthConsistent) {
  // Timeouts kill entries mid-queue while serves pop the head. If dead
  // entries were double-counted (or live ones lost), the run would either
  // deadlock channels or block far more than the cap explains. With a
  // 64-deep queue at moderate overload, blocking comes only from timeouts,
  // and completions still dominate.
  auto config = erlang_c_testbed(15.0, 10);
  config.scenario.placement_window = Duration::seconds(240);
  const auto r = exp::run_testbed(config);
  EXPECT_GT(r.acd.timed_out, 0u);
  EXPECT_EQ(r.acd.blocked_full, 0u);
  EXPECT_EQ(r.calls_attempted, r.calls_completed + r.calls_blocked + r.calls_failed);
  EXPECT_EQ(r.acd.offered,
            r.acd.served + r.acd.timed_out + r.acd.blocked_full + r.acd.voicemail);
  EXPECT_GT(r.calls_completed, r.calls_blocked);
}

// --------------------------------------------------------------- cluster

exp::ClusterConfig acd_cluster(unsigned threads) {
  exp::ClusterConfig config;
  // Half of 8 E routes at the queues: 2 E of ACD traffic per backend on 2
  // agents (rho = 1), hot enough that Exp(25 s) patience visibly reneges.
  config.scenario = loadgen::CallScenario::for_offered_load(8.0, Duration::seconds(20));
  config.scenario.placement_window = Duration::seconds(180);
  config.scenario.hold_model = sim::HoldTimeModel::kExponential;
  config.scenario.acd.fraction = 0.5;
  config.servers = 2;
  config.channels_per_server = 12;
  config.seed = 61;
  config.acd.enabled = true;
  config.acd.queues = {pbx::AcdQueueConfig{
      .agents = {pbx::AcdAgentSpec{.count = 2}},
      .patience = pbx::PatienceModel::kExponential,
      .patience_mean = Duration::seconds(25),
  }};
  if (threads > 0) {
    config.shard.enabled = true;
    config.shard.threads = threads;
  }
  return config;
}

TEST(AcdCluster, QueuesReplicateAcrossBackends) {
  const auto result = exp::run_cluster(acd_cluster(0));
  EXPECT_GT(result.report.acd.offered, 0u);
  EXPECT_GT(result.report.acd.served, 0u);
  EXPECT_EQ(result.report.acd.agents, 4u) << "2 agents replicated on 2 backends";
}

TEST(AcdCluster, ShardedRunsAreIdenticalAtAnyWorkerCount) {
  const auto compare = [](const exp::ClusterResult& x, const exp::ClusterResult& y) {
    EXPECT_EQ(x.report.calls_attempted, y.report.calls_attempted);
    EXPECT_EQ(x.report.calls_completed, y.report.calls_completed);
    EXPECT_EQ(x.report.calls_blocked, y.report.calls_blocked);
    EXPECT_EQ(x.report.events_processed, y.report.events_processed);
    EXPECT_EQ(x.report.sip_total, y.report.sip_total);
    EXPECT_EQ(x.report.acd.offered, y.report.acd.offered);
    EXPECT_EQ(x.report.acd.queued, y.report.acd.queued);
    EXPECT_EQ(x.report.acd.served, y.report.acd.served);
    EXPECT_EQ(x.report.acd.abandoned, y.report.acd.abandoned);
    EXPECT_EQ(x.report.acd.announcements, y.report.acd.announcements);
    EXPECT_EQ(x.report.acd.busy_agent_s, y.report.acd.busy_agent_s);
  };
  const auto one = exp::run_cluster(acd_cluster(1));
  const auto two = exp::run_cluster(acd_cluster(2));
  const auto eight = exp::run_cluster(acd_cluster(8));
  EXPECT_GT(one.report.acd.offered, 0u);
  EXPECT_GT(one.report.acd.abandoned, 0u) << "patience draws must be shard-stable too";
  compare(one, two);
  compare(one, eight);
}

}  // namespace
