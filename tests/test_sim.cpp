// Unit tests for the discrete-event kernel and random variate generators.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <vector>

#include "sim/random.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "stats/summary.hpp"

namespace {

using namespace pbxcap;
using sim::Simulator;

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(TimePoint::origin() + Duration::seconds(3), [&] { order.push_back(3); });
  s.schedule_at(TimePoint::origin() + Duration::seconds(1), [&] { order.push_back(1); });
  s.schedule_at(TimePoint::origin() + Duration::seconds(2), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.events_processed(), 3u);
  EXPECT_EQ(s.now(), TimePoint::origin() + Duration::seconds(3));
}

TEST(SimulatorTest, TiesBreakFifo) {
  Simulator s;
  std::vector<int> order;
  const TimePoint t = TimePoint::origin() + Duration::seconds(1);
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(t, [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, ScheduleInsideCallback) {
  Simulator s;
  int fired = 0;
  s.schedule_in(Duration::seconds(1), [&] {
    ++fired;
    s.schedule_in(Duration::seconds(1), [&] { ++fired; });
  });
  s.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now().to_seconds(), 2.0);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator s;
  bool fired = false;
  const auto id = s.schedule_in(Duration::seconds(1), [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));  // double-cancel reports failure
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.events_processed(), 0u);
}

TEST(SimulatorTest, CancelUnknownIdFails) {
  Simulator s;
  EXPECT_FALSE(s.cancel(0));
  EXPECT_FALSE(s.cancel(12345));
}

TEST(SimulatorTest, RunUntilAdvancesClockToHorizon) {
  Simulator s;
  int fired = 0;
  s.schedule_in(Duration::seconds(1), [&] { ++fired; });
  s.schedule_in(Duration::seconds(10), [&] { ++fired; });
  s.run_until(TimePoint::origin() + Duration::seconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now().to_seconds(), 5.0);
  s.run();  // drains the remaining event
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, StopHaltsLoop) {
  Simulator s;
  int fired = 0;
  s.schedule_in(Duration::seconds(1), [&] {
    ++fired;
    s.stop();
  });
  s.schedule_in(Duration::seconds(2), [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, RejectsPastScheduling) {
  Simulator s;
  s.schedule_in(Duration::seconds(5), [] {});
  s.run();
  EXPECT_THROW((void)s.schedule_at(TimePoint::origin(), [] {}), std::invalid_argument);
  EXPECT_THROW((void)s.schedule_in(Duration::seconds(-1), [] {}), std::invalid_argument);
  EXPECT_THROW((void)s.schedule_in(Duration::seconds(1), nullptr), std::invalid_argument);
}

TEST(SimulatorTest, WheelGivesBackCapacityAfterPeaks) {
  // 330 paced streams (a saturated Table-I PBX's RTP ticks) every 20 ms for
  // 300 s, plus one burst of 5,000 timers at a single instant. Each 268 ms
  // level-1 slot collects the ticks that cross into it, and the burst fills
  // one level-0 slot. What the wheel retains at the end must follow the
  // live population (330 ticks, ~17 per 1 ms slot), not every slot's peak.
  struct Tick {
    Simulator* s;
    std::uint64_t* fired;
    void operator()() const {
      ++*fired;
      s->schedule_in(Duration::millis(20), *this);
    }
  };
  Simulator s;
  std::uint64_t fired = 0;
  constexpr int kStreams = 330;
  for (int i = 0; i < kStreams; ++i) {
    s.schedule_in(Duration::nanos(Duration::millis(20).ns() * i / kStreams), Tick{&s, &fired});
  }
  for (int i = 0; i < 5'000; ++i) s.schedule_in(Duration::seconds(10), [&fired] { ++fired; });
  s.run_until(TimePoint::origin() + Duration::seconds(300) - Duration::nanos(1));
  EXPECT_EQ(fired, 5'000U + std::uint64_t{kStreams} * 15'000U);
  std::printf("retained wheel capacity: %zu items\n", s.wheel_capacity());
  // Freeing cascaded level-1 slots and capping level-0 slots and the spare
  // leaves about 9k items (257 level-0 buffers of up to 32, the spare and
  // one level-1 slot of up to 512 each). Keeping every slot's peak retains
  // about 140k.
  EXPECT_LT(s.wheel_capacity(), 16'384U);
}

TEST(RngTest, DeterministicAcrossInstances) {
  sim::Xoshiro256 a{42};
  sim::Xoshiro256 b{42};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiffer) {
  sim::Xoshiro256 a{1};
  sim::Xoshiro256 b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, JumpDecorrelates) {
  sim::Xoshiro256 a{7};
  sim::Xoshiro256 b{7};
  b.jump();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RandomTest, UniformInRange) {
  sim::Random rng{123};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(5.0, 6.0);
    EXPECT_GE(u, 5.0);
    EXPECT_LT(u, 6.0);
  }
}

TEST(RandomTest, ExponentialMeanMatches) {
  sim::Random rng{99};
  stats::Summary s;
  for (int i = 0; i < 200'000; ++i) s.add(rng.exponential(2.5));
  EXPECT_NEAR(s.mean(), 2.5, 0.03);
  // Memoryless-family check: CV of an exponential is 1.
  EXPECT_NEAR(s.stddev() / s.mean(), 1.0, 0.02);
}

TEST(RandomTest, NormalMoments) {
  sim::Random rng{5};
  stats::Summary s;
  for (int i = 0; i < 200'000; ++i) s.add(rng.normal(10.0, 3.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.05);
  EXPECT_NEAR(s.stddev(), 3.0, 0.05);
}

TEST(RandomTest, LognormalMeanCv) {
  sim::Random rng{17};
  stats::Summary s;
  for (int i = 0; i < 300'000; ++i) s.add(rng.lognormal_mean_cv(120.0, 1.0));
  EXPECT_NEAR(s.mean(), 120.0, 2.0);
  EXPECT_NEAR(s.stddev() / s.mean(), 1.0, 0.03);
}

TEST(RandomTest, ParetoTailMinimum) {
  sim::Random rng{3};
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_GE(rng.pareto(2.0, 2.5), 2.0);
  }
}

TEST(RandomTest, ChanceProbability) {
  sim::Random rng{21};
  int hits = 0;
  constexpr int kTrials = 100'000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.01);
}

TEST(RandomTest, ForkIndependence) {
  sim::Random parent{11};
  sim::Random child = parent.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.uniform() == child.uniform()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(HoldTimeTest, DeterministicModelIsExact) {
  sim::Random rng{1};
  const Duration h =
      draw_hold_time(rng, sim::HoldTimeModel::kDeterministic, Duration::seconds(120));
  EXPECT_EQ(h, Duration::seconds(120));
}

TEST(HoldTimeTest, ExponentialMeanMatches) {
  sim::Random rng{2};
  stats::Summary s;
  for (int i = 0; i < 100'000; ++i) {
    s.add(draw_hold_time(rng, sim::HoldTimeModel::kExponential, Duration::seconds(120))
              .to_seconds());
  }
  EXPECT_NEAR(s.mean(), 120.0, 2.0);
}

TEST(HoldTimeTest, LognormalMeanMatches) {
  sim::Random rng{4};
  stats::Summary s;
  for (int i = 0; i < 100'000; ++i) {
    s.add(draw_hold_time(rng, sim::HoldTimeModel::kLognormal, Duration::seconds(120), 1.2)
              .to_seconds());
  }
  EXPECT_NEAR(s.mean(), 120.0, 3.0);
}

}  // namespace
