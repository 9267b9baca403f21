// Event-engine profiler tests: category attribution and inheritance in the
// simulator kernel, the telemetry::Profiler wrapper and its exports
// (profile JSON golden determinism, attribution JSON), the disabled-profiler
// no-perturbation contract, and the sharded-cluster guarantees — per-shard
// attribution and the merged Chrome trace must be byte-identical for any
// worker count, with and without the fluid media fast path.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/cluster.hpp"
#include "exp/testbed.hpp"
#include "sim/profile.hpp"
#include "sim/simulator.hpp"
#include "telemetry/export.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/span.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace pbxcap;

// ---- kernel attribution -----------------------------------------------------

TEST(ExecProfileTest, CategoryScopeAttributesScheduledEvents) {
  sim::Simulator simulator;
  sim::ExecProfile profile;
  simulator.set_profile(&profile);

  {
    const sim::CategoryScope scope{simulator, sim::Category::kSip};
    simulator.schedule_in(Duration::millis(1), [] {});
    simulator.schedule_in(Duration::millis(2), [] {});
  }
  simulator.schedule_in(Duration::millis(3), [] {});  // outside any scope

  simulator.run();
  EXPECT_EQ(profile.counts[sim::category_id(sim::Category::kSip)], 2u);
  EXPECT_EQ(profile.counts[sim::category_id(sim::Category::kUnattributed)], 1u);
  EXPECT_EQ(profile.total_events(), simulator.events_processed());
}

TEST(ExecProfileTest, NestedSchedulesInheritTheFiringCategory) {
  sim::Simulator simulator;
  sim::ExecProfile profile;
  simulator.set_profile(&profile);

  // A pbx-scoped event schedules a child with no explicit scope: the child
  // must inherit kPbx from the event that scheduled it.
  {
    const sim::CategoryScope scope{simulator, sim::Category::kPbx};
    simulator.schedule_in(Duration::millis(1), [&simulator] {
      simulator.schedule_in(Duration::millis(1), [] {});
    });
  }
  simulator.run();
  EXPECT_EQ(profile.counts[sim::category_id(sim::Category::kPbx)], 2u);
  EXPECT_EQ(profile.counts[sim::category_id(sim::Category::kUnattributed)], 0u);
}

TEST(ExecProfileTest, MergeSumsCountsAndTiming) {
  sim::ExecProfile a;
  sim::ExecProfile b;
  a.counts[1] = 10;
  b.counts[1] = 5;
  b.counts[2] = 7;
  a.record_sample(1, 100);
  b.record_sample(1, 50);
  a.merge(b);
  EXPECT_EQ(a.counts[1], 15u);
  EXPECT_EQ(a.counts[2], 7u);
  EXPECT_EQ(a.total_events(), 22u);
  const sim::CategoryStats s = a.stats(1);
  EXPECT_EQ(s.events, 15u);
  EXPECT_EQ(s.timed_samples, 2u);
  EXPECT_EQ(s.timed_ns, 150u);
}

// ---- Profiler wrapper -------------------------------------------------------

TEST(ProfilerTest, SnapshotSurvivesSimulatorDestruction) {
  telemetry::Profiler profiler;
  {
    sim::Simulator simulator;
    profiler.attach(simulator);
    const sim::CategoryScope scope{simulator, sim::Category::kFault};
    simulator.schedule_in(Duration::millis(1), [] {});
    simulator.run();
    profiler.detach();  // latches the events_processed delta
  }
  const telemetry::ProfileData data = profiler.snapshot();
  EXPECT_EQ(data.events_processed, 1u);
  EXPECT_EQ(data.categories[sim::category_id(sim::Category::kFault)].stats.events, 1u);
  EXPECT_EQ(data.categories[sim::category_id(sim::Category::kFault)].name, "fault");
}

// ---- testbed integration ----------------------------------------------------

exp::TestbedConfig profiled_config(telemetry::Telemetry* tel, bool fluid = false) {
  exp::TestbedConfig config;
  config.scenario = loadgen::CallScenario::for_offered_load(20.0);
  config.scenario.placement_window = Duration::seconds(15);
  config.scenario.hold_time = Duration::seconds(10);
  config.scenario.arrival_rate_per_s = 2.0;
  config.pbx.max_channels = 22;
  config.fluid.enabled = fluid;
  config.seed = 42;
  config.telemetry = tel;
  return config;
}

telemetry::Config profiling_on() {
  telemetry::Config config;
  config.profiling = true;
  return config;
}

TEST(ProfilerIntegrationTest, EveryEventIsAttributed) {
  telemetry::Telemetry tel{profiling_on()};
  const auto report = exp::run_testbed(profiled_config(&tel));
  ASSERT_GT(report.calls_attempted, 0u);
  const telemetry::ProfileData data = tel.profiler()->snapshot();
  EXPECT_EQ(data.events_processed, report.events_processed);
  EXPECT_EQ(data.total_events(), report.events_processed);
  EXPECT_EQ(data.categories[sim::category_id(sim::Category::kUnattributed)].stats.events, 0u);
  // The workload's pillars all show up.
  EXPECT_GT(data.categories[sim::category_id(sim::Category::kSip)].stats.events, 0u);
  EXPECT_GT(data.categories[sim::category_id(sim::Category::kRtpPacket)].stats.events, 0u);
  EXPECT_GT(data.categories[sim::category_id(sim::Category::kLoadgen)].stats.events, 0u);
}

TEST(ProfilerIntegrationTest, SameSeedRunsExportIdenticalProfileJson) {
  telemetry::Telemetry tel_a{profiling_on()};
  telemetry::Telemetry tel_b{profiling_on()};
  (void)exp::run_testbed(profiled_config(&tel_a));
  (void)exp::run_testbed(profiled_config(&tel_b));
  const std::string json_a = telemetry::to_json(tel_a.profiler()->snapshot());
  const std::string json_b = telemetry::to_json(tel_b.profiler()->snapshot());
  EXPECT_EQ(json_a, json_b);
  // Counts are in the export; wall timing is not (it would break goldens).
  EXPECT_NE(json_a.find("\"events_processed\""), std::string::npos);
  EXPECT_EQ(json_a.find("timed_ns"), std::string::npos);
}

TEST(ProfilerIntegrationTest, ProfilingDoesNotPerturbCallOutcomes) {
  // Same seed, profiler off vs on: identical call-level results. (The
  // profiler's series tick adds kernel events, so events_processed may
  // differ — outcomes may not.)
  telemetry::Telemetry off;
  telemetry::Telemetry on{profiling_on()};
  const auto bare = exp::run_testbed(profiled_config(&off));
  const auto profiled = exp::run_testbed(profiled_config(&on));
  EXPECT_EQ(bare.calls_attempted, profiled.calls_attempted);
  EXPECT_EQ(bare.calls_completed, profiled.calls_completed);
  EXPECT_EQ(bare.calls_blocked, profiled.calls_blocked);
  EXPECT_EQ(bare.calls_failed, profiled.calls_failed);
  EXPECT_DOUBLE_EQ(bare.mos.mean(), profiled.mos.mean());
}

// ---- sharded cluster: attribution + merged trace ----------------------------

exp::ClusterConfig shard_config(telemetry::Telemetry* tel, unsigned threads, bool fluid) {
  exp::ClusterConfig config;
  config.scenario = loadgen::CallScenario::for_offered_load(30.0, Duration::seconds(10));
  config.scenario.placement_window = Duration::seconds(15);
  config.servers = 3;
  config.channels_per_server = 15;
  config.seed = 4242;
  config.routing = exp::ClusterRouting::kDispatcher;
  config.fluid.enabled = fluid;
  config.telemetry = tel;
  config.shard.enabled = true;
  config.shard.threads = threads;
  return config;
}

TEST(ShardProfileTest, AttributionIsByteIdenticalForAnyWorkerCount) {
  for (const bool fluid : {false, true}) {
    std::string reference;
    for (const unsigned threads : {1u, 2u, 8u}) {
      telemetry::Config cfg = profiling_on();
      cfg.tracing = false;
      telemetry::Telemetry tel{cfg};
      const exp::ClusterResult r = exp::run_cluster(shard_config(&tel, threads, fluid));
      ASSERT_EQ(r.shard_profiles.size(), 4u) << "hub + 3 backends";
      EXPECT_EQ(r.shard_profiles[0].name, "hub");
      const std::string attr = telemetry::attribution_json(r.shard_profiles);
      if (reference.empty()) {
        reference = attr;
      } else {
        EXPECT_EQ(attr, reference) << "threads=" << threads << " fluid=" << fluid;
      }
    }
    EXPECT_NE(reference.find("\"shard\":\"hub\""), std::string::npos);
    EXPECT_NE(reference.find("\"shard\":\"pbx0.unb.br\""), std::string::npos);
  }
}

TEST(ShardProfileTest, ShardProfilesSumToTotalKernelEvents) {
  telemetry::Config cfg = profiling_on();
  cfg.tracing = false;
  telemetry::Telemetry tel{cfg};
  const exp::ClusterResult r = exp::run_cluster(shard_config(&tel, 2, false));
  std::uint64_t attributed = 0;
  for (const auto& shard : r.shard_profiles) attributed += shard.data.total_events();
  EXPECT_EQ(attributed, r.report.events_processed);
}

TEST(ShardTraceTest, MergedTraceIsByteIdenticalForAnyWorkerCount) {
  std::string reference;
  for (const unsigned threads : {1u, 2u, 8u}) {
    telemetry::Telemetry tel;  // tracing on by default
    const exp::ClusterResult r = exp::run_cluster(shard_config(&tel, threads, false));
    ASSERT_FALSE(r.merged_trace.empty());
    if (reference.empty()) {
      reference = r.merged_trace;
    } else {
      EXPECT_EQ(r.merged_trace, reference) << "threads=" << threads;
    }
  }
  // One Perfetto process per shard, and the call journeys crossed shards.
  EXPECT_NE(reference.find("\"name\":\"hub\""), std::string::npos);
  EXPECT_NE(reference.find("\"name\":\"pbx0.unb.br\""), std::string::npos);
  EXPECT_NE(reference.find("call.setup"), std::string::npos);
  EXPECT_NE(reference.find("dispatch"), std::string::npos);
}

TEST(ShardProfileTest, CounterTrackIsExportedAndByteIdenticalForAnyWorkerCount) {
  std::string reference;
  for (const unsigned threads : {1u, 2u, 8u}) {
    telemetry::Config cfg = profiling_on();
    cfg.tracing = false;
    telemetry::Telemetry tel{cfg};
    (void)exp::run_cluster(shard_config(&tel, threads, false));
    ASSERT_NE(tel.profiler(), nullptr);
    EXPECT_FALSE(tel.profiler()->series().empty());
    const std::string track = telemetry::to_chrome_counter_trace(*tel.profiler());
    if (reference.empty()) {
      reference = track;
    } else {
      EXPECT_EQ(track, reference) << "threads=" << threads;
    }
  }
  EXPECT_NE(reference.find("\"ph\":\"C\""), std::string::npos);
}

TEST(ShardProfileTest, ProfilingOffLeavesResultEmpty) {
  telemetry::Telemetry tel;  // default config: profiling off
  const exp::ClusterResult r = exp::run_cluster(shard_config(&tel, 2, false));
  EXPECT_TRUE(r.shard_profiles.empty());
  EXPECT_EQ(tel.profiler(), nullptr);
}

// ---- merged-trace exporter unit ---------------------------------------------

TEST(MergedTraceTest, AssignsOneProcessPerTracerInOrder) {
  telemetry::SpanTracer a{16};
  telemetry::SpanTracer b{16};
  const auto id = a.begin(a.name_id("setup"), a.track_id("call-1"), TimePoint::at(Duration::millis(1)));
  a.end(id, TimePoint::at(Duration::millis(3)));
  b.instant(b.name_id("fault.crash"), b.track_id("faults"), TimePoint::at(Duration::millis(2)));

  const std::string merged =
      telemetry::to_chrome_trace_merged({{"hub", &a}, {"pbx0.unb.br", &b}});
  EXPECT_NE(merged.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(merged.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(merged.find("\"name\":\"hub\""), std::string::npos);
  EXPECT_NE(merged.find("\"name\":\"pbx0.unb.br\""), std::string::npos);
  EXPECT_NE(merged.find("fault.crash"), std::string::npos);
  // A null tracer entry is skipped, not dereferenced.
  const std::string partial = telemetry::to_chrome_trace_merged({{"hub", &a}, {"gone", nullptr}});
  EXPECT_EQ(partial.find("\"gone\""), std::string::npos);
}

}  // namespace
