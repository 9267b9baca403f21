// Tests for the conservative shard executor and the sharded cluster run.
//
// The contract under test: per-seed results of a sharded run are
// byte-identical for ANY worker-thread count — the executor's window
// schedule, message drain order and merge order depend only on the shard
// partition, never on which OS thread runs a shard.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/cluster.hpp"
#include "exp/shard_exec.hpp"
#include "fault/plan.hpp"
#include "sim/simulator.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace pbxcap;

// ---------------------------------------------------------------- executor

TEST(ShardExecutor, RejectsNonPositiveLookahead) {
  sim::Simulator a;
  exp::ShardExecConfig cfg;
  cfg.lookahead = Duration::zero();
  EXPECT_THROW((exp::ShardExecutor{{&a}, cfg}), std::invalid_argument);
  cfg.lookahead = Duration::nanos(-1);
  EXPECT_THROW((exp::ShardExecutor{{&a}, cfg}), std::invalid_argument);
}

TEST(ShardExecutor, RejectsEmptyAndNullShards) {
  EXPECT_THROW((exp::ShardExecutor{{}, {}}), std::invalid_argument);
  EXPECT_THROW((exp::ShardExecutor{{nullptr}, {}}), std::invalid_argument);
}

TEST(ShardExecutor, SingleShardDegeneratesToPlainRun) {
  sim::Simulator sim;
  int fired = 0;
  sim.schedule_at(TimePoint::at(Duration::millis(3)), [&] { ++fired; });
  sim.schedule_at(TimePoint::at(Duration::millis(7)), [&] { ++fired; });
  exp::ShardExecutor exec{{&sim}, {}};
  exec.run(TimePoint::at(Duration::millis(10)));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now().ns(), Duration::millis(10).ns());
  EXPECT_EQ(exec.workers(), 1u);
  EXPECT_EQ(exec.total_events(), 2u);
}

TEST(ShardExecutor, DeliversCrossShardMessagesAtTheirTimestamp) {
  sim::Simulator a;
  sim::Simulator b;
  exp::ShardExecConfig cfg;
  cfg.lookahead = Duration::millis(1);
  cfg.threads = 2;
  exp::ShardExecutor exec{{&a, &b}, cfg};

  std::vector<std::int64_t> delivered_at;  // b's clock when each message lands
  a.schedule_at(TimePoint::at(Duration::micros(500)), [&] {
    // Emitted at t=0.5ms with >= 1ms of lookahead: lands at exactly 2ms.
    exec.post(0, 1, Duration::millis(2).ns(), [&] { delivered_at.push_back(b.now().ns()); });
  });
  exec.run(TimePoint::at(Duration::millis(10)));

  ASSERT_EQ(delivered_at.size(), 1u);
  EXPECT_EQ(delivered_at[0], Duration::millis(2).ns());
  EXPECT_EQ(a.now().ns(), Duration::millis(10).ns());
  EXPECT_EQ(b.now().ns(), Duration::millis(10).ns());
  EXPECT_EQ(exec.stats()[0].messages_out, 1u);
  EXPECT_EQ(exec.stats()[1].messages_in, 1u);
  EXPECT_EQ(exec.messages_clamped(), 0u);
}

TEST(ShardExecutor, ClampsMessagesBelowTheCausalityBound) {
  sim::Simulator a;
  sim::Simulator b;
  exp::ShardExecConfig cfg;
  cfg.lookahead = Duration::millis(1);
  exp::ShardExecutor exec{{&a, &b}, cfg};

  std::int64_t delivered_at = -1;
  a.schedule_at(TimePoint::at(Duration::micros(500)), [&] {
    // A zero-delay post would land in b's past; it must be raised to the
    // window boundary (first window starts at the first event: 0.5ms+1ms).
    exec.post(0, 1, 0, [&] { delivered_at = b.now().ns(); });
  });
  exec.run(TimePoint::at(Duration::millis(10)));

  EXPECT_EQ(delivered_at, Duration::micros(1500).ns());
  EXPECT_EQ(exec.messages_clamped(), 1u);
}

TEST(ShardExecutor, MessageAtExactlyTheHorizonFires) {
  sim::Simulator a;
  sim::Simulator b;
  const std::int64_t horizon = Duration::millis(10).ns();
  exp::ShardExecConfig cfg;
  cfg.lookahead = Duration::millis(1);
  exp::ShardExecutor exec{{&a, &b}, cfg};

  bool at_horizon_fired = false;
  bool past_horizon_fired = false;
  a.schedule_at(TimePoint::at(Duration::millis(9)), [&] {
    exec.post(0, 1, horizon, [&] { at_horizon_fired = true; });
    exec.post(0, 1, horizon + 1, [&] { past_horizon_fired = true; });
  });
  exec.run(TimePoint::at(Duration::nanos(horizon)));

  EXPECT_TRUE(at_horizon_fired);    // run_until(horizon) is inclusive
  EXPECT_FALSE(past_horizon_fired); // beyond the horizon stays pending
}

TEST(ShardExecutor, ChainedHorizonHandoffsConverge) {
  // An event at exactly the horizon posts a message that itself posts back:
  // the executor must keep draining at-horizon rounds until dry.
  sim::Simulator a;
  sim::Simulator b;
  const std::int64_t horizon = Duration::millis(5).ns();
  exp::ShardExecConfig cfg;
  cfg.lookahead = Duration::millis(1);
  exp::ShardExecutor exec{{&a, &b}, cfg};

  bool final_hop = false;
  a.schedule_at(TimePoint::at(Duration::nanos(horizon)), [&] {
    exec.post(0, 1, horizon, [&] {
      exec.post(1, 0, horizon, [&] { final_hop = true; });
    });
  });
  exec.run(TimePoint::at(Duration::nanos(horizon)));
  EXPECT_TRUE(final_hop);
}

TEST(ShardExecutor, JumpsIdleGapToATimerBeyondTheWheel) {
  // The only work is a 100 s timer, beyond the kernel's ~68.7 s wheel, that
  // posts to the other shard. The executor must see it as the next event and
  // jump the idle gap to it: a window boundary past it would clamp the
  // message to the horizon instead of delivering it at its timestamp.
  sim::Simulator a;
  sim::Simulator b;
  exp::ShardExecConfig cfg;
  cfg.lookahead = Duration::millis(1);
  cfg.threads = 2;
  exp::ShardExecutor exec{{&a, &b}, cfg};

  const std::int64_t timer_ns = Duration::seconds(100).ns();
  const std::int64_t arrive_ns = timer_ns + Duration::millis(5).ns();
  std::int64_t fired_at = -1;
  std::int64_t delivered_at = -1;
  a.schedule_at(TimePoint::at(Duration::nanos(timer_ns)), [&] {
    fired_at = a.now().ns();
    exec.post(0, 1, arrive_ns, [&] { delivered_at = b.now().ns(); });
  });
  exec.run(TimePoint::at(Duration::seconds(200)));

  EXPECT_EQ(fired_at, timer_ns);
  EXPECT_EQ(delivered_at, arrive_ns);
  EXPECT_EQ(exec.messages_clamped(), 0u);
  EXPECT_LT(exec.rounds(), 10u) << "idle windows were stepped, not jumped";
}

TEST(ShardExecutor, IdenticalResultsForAnyWorkerCount) {
  // Same deterministic message pattern under 1, 2 and 8 workers. The
  // contract is per-shard: each shard's event sequence is identical for any
  // worker count (a single cross-shard trace vector would itself be a race).
  auto run_pattern = [](unsigned threads) {
    sim::Simulator a;
    sim::Simulator b;
    sim::Simulator c;
    exp::ShardExecConfig cfg;
    cfg.lookahead = Duration::millis(1);
    cfg.threads = threads;
    exp::ShardExecutor exec{{&a, &b, &c}, cfg};
    std::vector<std::string> trace_b;
    std::vector<std::string> trace_c;
    for (int k = 1; k <= 5; ++k) {
      a.schedule_at(TimePoint::at(Duration::millis(k)), [&, k] {
        exec.post(0, 1, Duration::millis(k + 2).ns(), [&, k] {
          trace_b.push_back("b" + std::to_string(k) + "@" + std::to_string(b.now().ns()));
          exec.post(1, 2, Duration::millis(k + 4).ns(), [&, k] {
            trace_c.push_back("c" + std::to_string(k) + "@" + std::to_string(c.now().ns()));
          });
        });
      });
    }
    exec.run(TimePoint::at(Duration::millis(20)));
    trace_b.insert(trace_b.end(), trace_c.begin(), trace_c.end());
    return trace_b;
  };
  const auto t1 = run_pattern(1);
  const auto t2 = run_pattern(2);
  const auto t8 = run_pattern(8);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
  ASSERT_EQ(t1.size(), 10u);
}

TEST(ShardExecutor, SameTimestampMessagesMergeInSourceOrder) {
  // Shards 3, 1 and 2 each post two messages to shard 0 for the same
  // instant, interleaved in time. Shard 0 must see them source-ascending,
  // FIFO within a source, whichever worker ran which source. In a later
  // window shard 1 posts again after sitting out the window before it.
  auto run_pattern = [](unsigned threads) {
    sim::Simulator s0;
    sim::Simulator s1;
    sim::Simulator s2;
    sim::Simulator s3;
    exp::ShardExecConfig cfg;
    cfg.lookahead = Duration::millis(1);
    cfg.threads = threads;
    exp::ShardExecutor exec{{&s0, &s1, &s2, &s3}, cfg};
    std::vector<std::string> seen;
    auto post_at = [&](sim::Simulator& from, std::size_t src, std::int64_t emit_us,
                       std::int64_t at_ms, std::string label) {
      from.schedule_at(TimePoint::at(Duration::micros(emit_us)), [&, src, at_ms, label] {
        exec.post(src, 0, Duration::millis(at_ms).ns(), [&, label] {
          seen.push_back(label + "@" + std::to_string(s0.now().ns()));
        });
      });
    };
    // Window [0.1 ms, 1.1 ms): six posts for t = 5 ms, sources out of order.
    post_at(s3, 3, 100, 5, "3a");
    post_at(s2, 2, 200, 5, "2a");
    post_at(s1, 1, 300, 5, "1a");
    post_at(s3, 3, 400, 5, "3b");
    post_at(s1, 1, 500, 5, "1b");
    post_at(s2, 2, 600, 5, "2b");
    // Window [3.3 ms, 4.3 ms) runs only shard 2; shard 1 is skipped.
    s2.schedule_at(TimePoint::at(Duration::micros(3300)), [] {});
    // Window [4.3 ms, 5.3 ms): three posts for t = 7 ms.
    post_at(s3, 3, 4400, 7, "3c");
    post_at(s1, 1, 4500, 7, "1c");
    post_at(s2, 2, 4600, 7, "2c");
    exec.run(TimePoint::at(Duration::millis(10)));
    EXPECT_LT(exec.stats()[1].windows, exec.rounds()) << "shard 1 never sat out a window";
    return seen;
  };
  const std::string at5 = "@" + std::to_string(Duration::millis(5).ns());
  const std::string at7 = "@" + std::to_string(Duration::millis(7).ns());
  const std::vector<std::string> expected{"1a" + at5, "1b" + at5, "2a" + at5,
                                          "2b" + at5, "3a" + at5, "3b" + at5,
                                          "1c" + at7, "2c" + at7, "3c" + at7};
  for (const unsigned threads : {1u, 2u, 4u}) {
    EXPECT_EQ(run_pattern(threads), expected) << threads << " workers";
  }
}

TEST(ShardExecutor, IdleShardSkipsWindowsAndStillReachesTheHorizon) {
  // Shard 0 ticks every 0.5 ms, so every 1 ms window from 0 to the 20 ms
  // horizon runs. Shard 1's only event is at 15 ms; shard 2's only work is a
  // message from shard 0. Both run only the windows holding their work and
  // the final one, and every clock ends at the horizon.
  sim::Simulator busy;
  sim::Simulator idle;
  sim::Simulator woken;
  exp::ShardExecConfig cfg;
  cfg.lookahead = Duration::millis(1);
  cfg.threads = 2;
  exp::ShardExecutor exec{{&busy, &idle, &woken}, cfg};
  const TimePoint horizon = TimePoint::at(Duration::millis(20));

  std::function<void()> tick = [&] {
    if (busy.now() == TimePoint::at(Duration::micros(5200))) {
      // Drained after window [5 ms, 6 ms); lands inside the next window.
      exec.post(0, 2, Duration::micros(6500).ns(),
                [&] { EXPECT_EQ(woken.now().ns(), Duration::micros(6500).ns()); });
    }
    busy.schedule_in(Duration::micros(500), [&] { tick(); });
  };
  busy.schedule_at(TimePoint::at(Duration::micros(200)), [&] { tick(); });
  std::int64_t fired_at = -1;
  idle.schedule_at(TimePoint::at(Duration::millis(15)), [&] { fired_at = idle.now().ns(); });
  exec.run(horizon);

  EXPECT_EQ(fired_at, Duration::millis(15).ns());
  EXPECT_EQ(exec.stats()[2].messages_in, 1u);
  EXPECT_EQ(exec.stats()[2].events, 1u);
  EXPECT_GE(exec.rounds(), 19u);
  EXPECT_EQ(exec.stats()[0].windows, exec.rounds());
  // The window with its work, then the final window at the horizon.
  EXPECT_EQ(exec.stats()[1].windows, 2u);
  EXPECT_EQ(exec.stats()[2].windows, 2u);
  for (const sim::Simulator* sim : {&busy, &idle, &woken}) EXPECT_EQ(sim->now(), horizon);
  ASSERT_EQ(exec.worker_stats().size(), exec.workers());
  for (const auto& w : exec.worker_stats()) {
    EXPECT_GE(w.busy_s, 0.0);
    EXPECT_GE(w.wait_s, 0.0);
  }
  EXPECT_GE(exec.drain_s(), 0.0);
}

// ----------------------------------------------------------- sharded cluster

exp::ClusterConfig sharded_cluster(double erlangs, std::uint32_t servers, unsigned threads) {
  exp::ClusterConfig config;
  config.scenario = loadgen::CallScenario::for_offered_load(erlangs, Duration::seconds(20));
  config.scenario.placement_window = Duration::seconds(60);
  config.servers = servers;
  config.channels_per_server = 12;
  config.seed = 61;
  config.shard.enabled = true;
  config.shard.threads = threads;
  return config;
}

struct ShardedSnapshot {
  exp::ClusterResult result;
  std::string prometheus;
  std::string json;
  std::string csv;
};

ShardedSnapshot run_sharded_with_telemetry(exp::ClusterConfig config) {
  telemetry::Config tcfg;
  tcfg.tracing = false;
  telemetry::Telemetry tel{tcfg};
  config.telemetry = &tel;
  ShardedSnapshot snap;
  snap.result = exp::run_cluster(config);
  snap.prometheus = telemetry::to_prometheus(tel.registry());
  snap.json = telemetry::to_json(tel.registry());
  snap.csv = tel.sampler().to_csv();
  return snap;
}

void expect_identical(const ShardedSnapshot& x, const ShardedSnapshot& y) {
  EXPECT_EQ(x.prometheus, y.prometheus);
  EXPECT_EQ(x.json, y.json);
  EXPECT_EQ(x.csv, y.csv);
  EXPECT_EQ(x.result.report.calls_attempted, y.result.report.calls_attempted);
  EXPECT_EQ(x.result.report.calls_completed, y.result.report.calls_completed);
  EXPECT_EQ(x.result.report.calls_blocked, y.result.report.calls_blocked);
  EXPECT_EQ(x.result.report.events_processed, y.result.report.events_processed);
  EXPECT_EQ(x.result.report.sip_total, y.result.report.sip_total);
  EXPECT_EQ(x.result.report.rtp_packets_at_pbx, y.result.report.rtp_packets_at_pbx);
  ASSERT_EQ(x.result.backends.size(), y.result.backends.size());
  for (std::size_t i = 0; i < x.result.backends.size(); ++i) {
    EXPECT_EQ(x.result.backends[i].peak_channels, y.result.backends[i].peak_channels)
        << "backend " << i;
    EXPECT_EQ(x.result.backends[i].congestion, y.result.backends[i].congestion) << "backend " << i;
  }
  EXPECT_EQ(x.result.shard_rounds, y.result.shard_rounds);
  EXPECT_EQ(x.result.shard_clamped, y.result.shard_clamped);
  ASSERT_EQ(x.result.shards.size(), y.result.shards.size());
  for (std::size_t s = 0; s < x.result.shards.size(); ++s) {
    EXPECT_EQ(x.result.shards[s].events, y.result.shards[s].events) << "shard " << s;
    EXPECT_EQ(x.result.shards[s].messages_in, y.result.shards[s].messages_in) << "shard " << s;
    EXPECT_EQ(x.result.shards[s].messages_out, y.result.shards[s].messages_out)
        << "shard " << s;
  }
}

TEST(ShardedCluster, ProducesWorkingCallsAndShardStats) {
  const auto result = exp::run_cluster(sharded_cluster(6.0, 2, 1));
  EXPECT_GT(result.report.calls_completed, 0u);
  EXPECT_EQ(result.report.calls_failed, 0u);
  EXPECT_GT(result.report.mos.min(), 3.5);
  ASSERT_EQ(result.shards.size(), 3u);  // hub + 2 backends
  EXPECT_GT(result.shards[0].events, 0u);
  EXPECT_GT(result.shards[1].events, 0u);
  EXPECT_GT(result.shards[0].messages_out, 0u);
  EXPECT_GT(result.shards[1].messages_in, 0u);
  EXPECT_GT(result.shard_rounds, 0u);
}

TEST(ShardedCluster, ByteIdenticalAcrossThreadCounts) {
  const auto one = run_sharded_with_telemetry(sharded_cluster(8.0, 3, 1));
  const auto two = run_sharded_with_telemetry(sharded_cluster(8.0, 3, 2));
  const auto eight = run_sharded_with_telemetry(sharded_cluster(8.0, 3, 8));
  expect_identical(one, two);
  expect_identical(one, eight);
  EXPECT_FALSE(one.csv.empty());
  EXPECT_NE(one.csv.find("active_channels_pbx0"), std::string::npos);
}

TEST(ShardedCluster, ByteIdenticalAcrossThreadCountsWithFluid) {
  auto cfg = sharded_cluster(8.0, 2, 1);
  cfg.fluid.enabled = true;
  const auto one = run_sharded_with_telemetry(cfg);
  cfg.shard.threads = 2;
  const auto two = run_sharded_with_telemetry(cfg);
  cfg.shard.threads = 8;
  const auto eight = run_sharded_with_telemetry(cfg);
  expect_identical(one, two);
  expect_identical(one, eight);
  // Fluid batches cross shard boundaries inline, so some messages must have
  // been raised to the causality bound — and deterministically so.
  EXPECT_GT(one.result.report.rtp_packets_at_pbx, 0u);
}

TEST(ShardedCluster, ArrivalStreamMatchesMonolithicRun) {
  // The first two RNG forks match run_cluster's, so the offered-call stream
  // is identical; outcomes differ (cross-shard propagation is floored to
  // the lookahead) but the load itself is seed-compatible.
  auto cfg = sharded_cluster(8.0, 2, 1);
  const auto sharded = exp::run_cluster(cfg);
  cfg.shard.enabled = false;
  const auto mono = exp::run_cluster(cfg);
  EXPECT_EQ(sharded.report.calls_attempted, mono.report.calls_attempted);
  EXPECT_EQ(sharded.report.channels_configured, mono.report.channels_configured);
}

TEST(ShardedCluster, DispatcherFailoverSurvivesCrashFault) {
  const auto plan = fault::FaultPlan::parse("@15s pbx crash dead=60s\n");
  auto cfg = sharded_cluster(8.0, 3, 2);
  cfg.routing = exp::ClusterRouting::kDispatcher;
  cfg.dispatcher.policy = dispatch::Policy::kLeastLoaded;
  cfg.faults = &plan;
  cfg.fault_backend = 1;
  const auto result = exp::run_cluster(cfg);
  EXPECT_GT(result.report.calls_completed, 0u);
  ASSERT_EQ(result.backends.size(), 3u);
  EXPECT_EQ(result.backends[1].crashes, 1u);
  EXPECT_GT(result.circuit_opens, 0u);
  // Same chaos, same seed, different thread count: identical outcome.
  cfg.shard.threads = 8;
  const auto result8 = exp::run_cluster(cfg);
  EXPECT_EQ(result8.report.calls_completed, result.report.calls_completed);
  EXPECT_EQ(result8.report.calls_blocked, result.report.calls_blocked);
  EXPECT_EQ(result8.report.events_processed, result.report.events_processed);
  EXPECT_EQ(result8.circuit_opens, result.circuit_opens);
}

}  // namespace
