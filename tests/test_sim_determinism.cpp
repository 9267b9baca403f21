// Determinism properties of the event engine.
//
// The scheduler rebuild (indexed heap + timer-wheel fast path) must be
// observationally identical to the straightforward ordered-queue semantics it
// replaced: events fire in non-decreasing time order with FIFO tie-break by
// scheduling sequence, regardless of which internal store (heap, level-0/1
// wheel slot, activated run) each event happens to land in. These tests drive
// the real Simulator and an oracle priority queue with identical randomized
// workloads and require identical fire sequences.

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace pbxcap {
namespace {

using sim::EventId;
using sim::Simulator;

// splitmix64: all per-event decisions derive from mix(seed ^ label) so the
// engine under test and the oracle make identical choices independent of
// execution order. Any ordering divergence then shows up as a sequence
// mismatch instead of silently desynchronizing the workloads.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Deltas chosen to straddle every internal boundary: same-slot (heap path),
// level-0 wheel slots (2^20 ns ~ 1.05 ms), the level-0/level-1 boundary
// (~268 ms), level-1 slots (2^28 ns), and beyond the wheel horizon (~68.7 s).
constexpr std::int64_t kDeltasNs[] = {
    0,
    1,
    999,
    20'000,                          // 20 us: same level-0 slot, heap path
    (std::int64_t{1} << 20) - 1,     // just inside the current slot width
    std::int64_t{1} << 20,           // exactly one level-0 slot
    (std::int64_t{1} << 20) + 1,
    20'000'000,                      // 20 ms RTP pacing: the design target
    123'456'789,
    (std::int64_t{1} << 28) - 1,     // just inside the level-0 window
    std::int64_t{1} << 28,           // exactly one level-1 slot
    (std::int64_t{1} << 28) + 1,
    5'000'000'000,                   // 5 s: level 1
    70'000'000'000,                  // 70 s: beyond the wheel, far-future heap
};
constexpr std::size_t kDeltaCount = sizeof(kDeltasNs) / sizeof(kDeltasNs[0]);

struct Fired {
  std::uint64_t label;
  std::int64_t at_ns;
  bool operator==(const Fired&) const = default;
};

// Oracle: the pre-rebuild semantics — a totally ordered set keyed by
// (time, schedule sequence) with eager erase on cancel.
class OracleQueue {
 public:
  void schedule(std::int64_t at, std::uint64_t label) {
    const std::uint64_t seq = next_seq_++;
    queue_.emplace(at, seq, label);
    live_[label] = {at, seq};
  }
  bool cancel(std::uint64_t label) {
    const auto it = live_.find(label);
    if (it == live_.end()) return false;
    queue_.erase({it->second.first, it->second.second, label});
    live_.erase(it);
    return true;
  }
  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::int64_t top_at() const { return std::get<0>(*queue_.begin()); }
  Fired pop() {
    const auto [at, seq, label] = *queue_.begin();
    queue_.erase(queue_.begin());
    live_.erase(label);
    return {label, at};
  }

 private:
  std::set<std::tuple<std::int64_t, std::uint64_t, std::uint64_t>> queue_;
  std::map<std::uint64_t, std::pair<std::int64_t, std::uint64_t>> live_;
  std::uint64_t next_seq_{0};
};

// Shared per-label decision logic for both executors.
struct Decisions {
  std::uint64_t seed;
  [[nodiscard]] unsigned children(std::uint64_t label) const {
    return static_cast<unsigned>(mix(seed ^ label) % 3);  // 0..2 spawned events
  }
  [[nodiscard]] std::int64_t child_delta(std::uint64_t label, unsigned child) const {
    const std::uint64_t r = mix(seed ^ label ^ (0xc0ffee00ULL + child));
    return kDeltasNs[r % kDeltaCount] + static_cast<std::int64_t>(r >> 32 & 0x3ff);
  }
  [[nodiscard]] bool wants_cancel(std::uint64_t label) const {
    return mix(seed ^ label ^ 0xdeadULL) % 4 == 0;
  }
  [[nodiscard]] std::size_t cancel_pick(std::uint64_t label, std::size_t live) const {
    return static_cast<std::size_t>(mix(seed ^ label ^ 0xbeefULL) % live);
  }
  // Call-hold timers: a standing population armed 120 s (plus up to ~1 ms of
  // jitter) ahead, beyond the wheel horizon, and re-armed on every fire.
  // Their labels sort after every workload label, and a workload cancel can
  // pick one: that timer is then gone for good.
  static constexpr std::uint64_t kHoldLabel = std::uint64_t{1} << 40;
  static constexpr std::int64_t kHoldNs = 120'000'000'000;
  [[nodiscard]] std::int64_t hold_first(std::size_t k, std::size_t timers) const {
    return kHoldNs * static_cast<std::int64_t>(k + 1) / static_cast<std::int64_t>(timers) +
           hold_jitter(kHoldLabel + k);
  }
  [[nodiscard]] std::int64_t hold_jitter(std::uint64_t label) const {
    return static_cast<std::int64_t>(mix(seed ^ label ^ 0x401dULL) % 1'000'000);
  }
};

// Runs the randomized workload on the real Simulator. Each fired event may
// spawn children and cancel one still-live event, all chosen by `d`. The run
// stops at max_fires; `hold_timers` adds that many re-armed hold timers.
std::vector<Fired> run_engine(const Decisions& d, std::size_t max_fires,
                              std::size_t hold_timers = 0) {
  Simulator simulator;
  std::vector<Fired> fired;
  std::map<std::uint64_t, EventId> live;  // label -> handle, label-ordered
  std::uint64_t next_label = 0;
  std::uint64_t next_hold = Decisions::kHoldLabel;

  const auto arm_hold = [&](auto&& self, std::uint64_t label, std::int64_t at) -> void {
    live[label] = simulator.schedule_at(TimePoint::at(Duration::nanos(at)), [&, label, at] {
      live.erase(label);
      fired.push_back({label, at});
      if (fired.size() >= max_fires) {
        simulator.stop();
        return;
      }
      const std::uint64_t next = next_hold++;
      self(self, next, at + Decisions::kHoldNs + d.hold_jitter(next));
    });
  };

  const auto spawn = [&](auto&& self, std::uint64_t label, std::int64_t at) -> void {
    live[label] = simulator.schedule_at(
        TimePoint::at(Duration::nanos(at)), [&, label, at] {
          live.erase(label);
          fired.push_back({label, at});
          if (fired.size() >= max_fires) {
            simulator.stop();
            return;
          }
          for (unsigned c = 0; c < d.children(label); ++c) {
            const std::uint64_t child = next_label++;
            self(self, child, at + d.child_delta(label, c));
          }
          if (d.wants_cancel(label) && !live.empty()) {
            auto it = live.begin();
            std::advance(it, static_cast<std::ptrdiff_t>(d.cancel_pick(label, live.size())));
            const auto [victim, handle] = *it;
            live.erase(it);
            EXPECT_TRUE(simulator.cancel(handle)) << "live handle must cancel";
          }
        });
  };
  for (std::uint64_t i = 0; i < 24; ++i) {
    const std::uint64_t label = next_label++;
    spawn(spawn, label, d.child_delta(0xfeedULL, static_cast<unsigned>(i)));
  }
  for (std::size_t k = 0; k < hold_timers; ++k) {
    arm_hold(arm_hold, next_hold++, d.hold_first(k, hold_timers));
  }
  while (!fired.empty() || simulator.pending() > 0) {
    const std::uint64_t before = simulator.events_processed();
    simulator.run();
    if (simulator.events_processed() == before) break;
    if (fired.size() >= max_fires) break;
  }
  return fired;
}

// Same workload on the oracle queue.
std::vector<Fired> run_oracle(const Decisions& d, std::size_t max_fires,
                              std::size_t hold_timers = 0) {
  OracleQueue queue;
  std::vector<Fired> fired;
  std::map<std::uint64_t, bool> live;  // label-ordered, mirrors run_engine's map
  std::uint64_t next_label = 0;
  std::uint64_t next_hold = Decisions::kHoldLabel;

  for (std::uint64_t i = 0; i < 24; ++i) {
    const std::uint64_t label = next_label++;
    queue.schedule(d.child_delta(0xfeedULL, static_cast<unsigned>(i)), label);
    live[label] = true;
  }
  for (std::size_t k = 0; k < hold_timers; ++k) {
    const std::uint64_t label = next_hold++;
    queue.schedule(d.hold_first(k, hold_timers), label);
    live[label] = true;
  }
  while (!queue.empty() && fired.size() < max_fires) {
    const Fired f = queue.pop();
    live.erase(f.label);
    fired.push_back(f);
    if (fired.size() >= max_fires) break;
    if (f.label >= Decisions::kHoldLabel) {
      const std::uint64_t next = next_hold++;
      queue.schedule(f.at_ns + Decisions::kHoldNs + d.hold_jitter(next), next);
      live[next] = true;
      continue;
    }
    for (unsigned c = 0; c < d.children(f.label); ++c) {
      const std::uint64_t child = next_label++;
      queue.schedule(f.at_ns + d.child_delta(f.label, c), child);
      live[child] = true;
    }
    if (d.wants_cancel(f.label) && !live.empty()) {
      auto it = live.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(d.cancel_pick(f.label, live.size())));
      EXPECT_TRUE(queue.cancel(it->first));
      live.erase(it);
    }
  }
  return fired;
}

TEST(SimDeterminism, MatchesOrderedQueueOracleAcrossSeeds) {
  for (const std::uint64_t seed : {1ULL, 42ULL, 0xabcdefULL, 2026ULL}) {
    const Decisions d{seed};
    const auto engine = run_engine(d, 4000);
    const auto oracle = run_oracle(d, 4000);
    ASSERT_EQ(engine.size(), oracle.size()) << "seed " << seed;
    for (std::size_t i = 0; i < engine.size(); ++i) {
      ASSERT_EQ(engine[i].label, oracle[i].label) << "seed " << seed << " fire " << i;
      ASSERT_EQ(engine[i].at_ns, oracle[i].at_ns) << "seed " << seed << " fire " << i;
    }
  }
}

TEST(SimDeterminism, MatchesOrderedQueueOracleWithParkedHoldTimers) {
  // 200 call-hold timers parked beyond the wheel horizon the whole run, each
  // re-armed 120 s ahead when it fires, while the randomized workload fires,
  // spawns and cancels around them (some of its cancels hit hold timers).
  for (const std::uint64_t seed : {1ULL, 42ULL, 0xabcdefULL, 2026ULL}) {
    const Decisions d{seed};
    const auto engine = run_engine(d, 6000, 200);
    const auto oracle = run_oracle(d, 6000, 200);
    ASSERT_EQ(engine.size(), oracle.size()) << "seed " << seed;
    std::size_t rearmed = 0;
    for (std::size_t i = 0; i < engine.size(); ++i) {
      ASSERT_EQ(engine[i].label, oracle[i].label) << "seed " << seed << " fire " << i;
      ASSERT_EQ(engine[i].at_ns, oracle[i].at_ns) << "seed " << seed << " fire " << i;
      if (engine[i].label >= Decisions::kHoldLabel + 200) ++rearmed;
    }
    EXPECT_GT(rearmed, 0u) << "seed " << seed << ": no re-armed hold timer fired";
  }
}

TEST(SimDeterminism, IdenticalRunsProduceIdenticalSequences) {
  const Decisions d{777};
  const auto first = run_engine(d, 2000);
  const auto second = run_engine(d, 2000);
  ASSERT_EQ(first.size(), second.size());
  EXPECT_TRUE(std::equal(first.begin(), first.end(), second.begin()));
}

TEST(SimDeterminism, FifoAmongEqualTimestampsAcrossStores) {
  // Equal-timestamp events whose *scheduling* paths differ (wheel slot vs
  // heap) must still fire in scheduling order. Schedule the same instant from
  // different distances so some entries go through the wheel and some through
  // the heap, then check FIFO.
  Simulator simulator;
  std::vector<int> order;
  const TimePoint t = TimePoint::at(Duration::millis(50));
  // Scheduled far out (level-0 wheel path at distance 50 ms).
  simulator.schedule_at(t, [&] { order.push_back(0); });
  simulator.schedule_at(t, [&] { order.push_back(1); });
  // An earlier event schedules more of the same instant from nearby (heap
  // path: same slot as the by-then-activated run).
  simulator.schedule_at(TimePoint::at(Duration::millis(50) - Duration::micros(600)), [&] {
    simulator.schedule_at(t, [&] { order.push_back(2); });
    simulator.schedule_at(t, [&] { order.push_back(3); });
  });
  simulator.schedule_at(t, [&] { order.push_back(4); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 4, 2, 3}));
}

TEST(SimDeterminism, CancelRaceAtEqualTimestamp) {
  // A and its victim share a timestamp; A fires first (FIFO) and cancels the
  // victim before the engine reaches it — including when the victim is
  // already inside the activated, sorted run.
  Simulator simulator;
  std::vector<char> order;
  EventId victim_near = 0;
  EventId victim_far = 0;
  const TimePoint t = TimePoint::at(Duration::millis(30));
  simulator.schedule_at(t, [&] {
    order.push_back('a');
    EXPECT_TRUE(simulator.cancel(victim_near));
    EXPECT_TRUE(simulator.cancel(victim_far));
    EXPECT_FALSE(simulator.cancel(victim_near)) << "double cancel must fail";
  });
  victim_near = simulator.schedule_at(t, [&] { order.push_back('x'); });
  simulator.schedule_at(t, [&] { order.push_back('b'); });
  victim_far = simulator.schedule_at(t + Duration::seconds(80), [&] { order.push_back('y'); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b'}));
  EXPECT_EQ(simulator.pending(), 0u);
}

// One instant beyond the wheel horizon (~68.7 s), reached from three stores:
// `far` is scheduled at t = 0 (far heap), `wheel` 10 s before (level-1 wheel,
// cascaded and activated in time), and `slot` 200 us before, from inside the
// level-0 slot being drained (near heap). The three tie on time, so they must
// fire in schedule order.
constexpr std::int64_t kTieNs = 100'000'000'000;
constexpr std::int64_t kInSlotNs = kTieNs - 200'000;
static_assert((kTieNs >> 20) == (kInSlotNs >> 20), "both inside one 2^20 ns level-0 slot");

TEST(SimDeterminism, FarTimerTiesWithWheelAndSlotEvents) {
  // Run twice: as is, then with the in-slot event cancelling the far timer
  // just before its instant, which must drop pending() by exactly one.
  for (const bool cancel_far : {false, true}) {
    Simulator simulator;
    std::vector<std::string> order;
    const TimePoint tie = TimePoint::at(Duration::nanos(kTieNs));
    const EventId far = simulator.schedule_at(tie, [&] { order.emplace_back("far"); });
    simulator.schedule_at(tie - Duration::seconds(10), [&] {
      simulator.schedule_at(tie, [&] { order.emplace_back("wheel"); });
      simulator.schedule_at(TimePoint::at(Duration::nanos(kInSlotNs)), [&] {
        simulator.schedule_at(tie, [&] { order.emplace_back("slot"); });
        if (!cancel_far) return;
        EXPECT_EQ(simulator.pending(), 3u);  // far, wheel, slot
        EXPECT_TRUE(simulator.cancel(far));
        EXPECT_FALSE(simulator.cancel(far)) << "double cancel must fail";
        EXPECT_EQ(simulator.pending(), 2u);
      });
    });
    simulator.run();
    const auto expect = cancel_far ? std::vector<std::string>{"wheel", "slot"}
                                   : std::vector<std::string>{"far", "wheel", "slot"};
    EXPECT_EQ(order, expect) << "cancel_far " << cancel_far;
    EXPECT_EQ(simulator.pending(), 0u);
    EXPECT_EQ(simulator.events_processed(), cancel_far ? 4u : 5u);
  }
}

TEST(SimDeterminism, NextEventSeesTimersBeyondTheWheel) {
  Simulator simulator;
  EXPECT_EQ(simulator.next_event_ns(), Simulator::kNoEvent);
  const EventId hold = simulator.schedule_at(TimePoint::at(Duration::seconds(100)), [] {});
  EXPECT_EQ(simulator.next_event_ns(), Duration::seconds(100).ns());
  // A nearer wheel event comes first; once it fires, the far timer is next.
  simulator.schedule_at(TimePoint::at(Duration::seconds(1)), [] {});
  EXPECT_EQ(simulator.next_event_ns(), Duration::seconds(1).ns());
  simulator.run_until(TimePoint::at(Duration::seconds(50)));
  EXPECT_EQ(simulator.next_event_ns(), Duration::seconds(100).ns());
  EXPECT_TRUE(simulator.cancel(hold));
  EXPECT_EQ(simulator.next_event_ns(), Simulator::kNoEvent);
}

TEST(SimDeterminism, CancelOwnEventWhileRunningFails) {
  Simulator simulator;
  EventId self = 0;
  bool checked = false;
  self = simulator.schedule_in(Duration::millis(1), [&] {
    // By the time the callback runs the event no longer exists.
    EXPECT_FALSE(simulator.cancel(self));
    checked = true;
  });
  simulator.run();
  EXPECT_TRUE(checked);
}

TEST(SimDeterminism, RunUntilFiresEventsExactlyAtHorizon) {
  Simulator simulator;
  std::vector<int> order;
  const TimePoint horizon = TimePoint::at(Duration::millis(500));
  simulator.schedule_at(horizon - Duration::nanos(1), [&] { order.push_back(0); });
  simulator.schedule_at(horizon, [&] { order.push_back(1); });  // inclusive
  simulator.schedule_at(horizon + Duration::nanos(1), [&] { order.push_back(2); });
  simulator.run_until(horizon);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(simulator.now(), horizon) << "clock parks exactly at the horizon";
  EXPECT_EQ(simulator.pending(), 1u);
  // The leftover event is still schedulable territory: continuing runs it.
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimDeterminism, RunUntilAdvancesClockOnEmptyQueue) {
  Simulator simulator;
  simulator.run_until(TimePoint::at(Duration::seconds(3)));
  EXPECT_EQ(simulator.now(), TimePoint::at(Duration::seconds(3)));
  // Scheduling relative to the parked clock works and a later horizon in the
  // same slot still fires it.
  bool ran = false;
  simulator.schedule_in(Duration::micros(5), [&] { ran = true; });
  simulator.run_until(TimePoint::at(Duration::seconds(4)));
  EXPECT_TRUE(ran);
}

TEST(SimDeterminism, WheelBoundaryInstantsFireInOrder) {
  // Timestamps sitting exactly on slot-width multiples of both wheel levels
  // (and one past the whole wheel horizon) must come out in global time
  // order with FIFO among equals.
  Simulator simulator;
  std::vector<std::size_t> order;
  std::vector<std::int64_t> ats;
  for (std::size_t i = 0; i < kDeltaCount; ++i) ats.push_back(kDeltasNs[i]);
  ats.push_back(kDeltasNs[5]);   // duplicate 2^20: FIFO pair
  ats.push_back(kDeltasNs[10]);  // duplicate 2^28: FIFO pair
  for (std::size_t i = 0; i < ats.size(); ++i) {
    simulator.schedule_at(TimePoint::at(Duration::nanos(ats[i])),
                          [&order, i] { order.push_back(i); });
  }
  simulator.run();

  std::vector<std::size_t> expect(ats.size());
  for (std::size_t i = 0; i < expect.size(); ++i) expect[i] = i;
  std::stable_sort(expect.begin(), expect.end(),
                   [&](std::size_t a, std::size_t b) { return ats[a] < ats[b]; });
  EXPECT_EQ(order, expect);
}

TEST(SimDeterminism, PeriodicTickCancelledMidRun) {
  // A self-rescheduling 20 ms tick (the wheel's design workload) cancelled
  // from the outside while live on the wheel stops cleanly.
  Simulator simulator;
  int ticks = 0;
  EventId current = 0;
  const auto tick = [&](auto&& self) -> void {
    ++ticks;
    current = simulator.schedule_in(Duration::millis(20),
                                    [&simulator, &self] { self(self); });
    (void)simulator;
  };
  current = simulator.schedule_in(Duration::millis(20), [&] { tick(tick); });
  simulator.schedule_in(Duration::millis(130), [&] { EXPECT_TRUE(simulator.cancel(current)); });
  simulator.run();
  EXPECT_EQ(ticks, 6);  // fired at 20..120 ms; the 140 ms arm was cancelled
  EXPECT_EQ(simulator.pending(), 0u);
}

// --- pending() accounting (regression: the pre-rebuild engine counted
// cancelled-but-unpopped tombstones, so pending() could drift and a cancel
// of an already-fired id could return true). ---

TEST(SimPendingAccounting, ExactWithCancellations) {
  Simulator simulator;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(simulator.schedule_in(Duration::millis(5 + i), [] {}));
  }
  EXPECT_EQ(simulator.pending(), 10u);
  EXPECT_TRUE(simulator.cancel(ids[3]));
  EXPECT_TRUE(simulator.cancel(ids[7]));
  EXPECT_EQ(simulator.pending(), 8u) << "cancelled events leave the count immediately";
  EXPECT_FALSE(simulator.cancel(ids[3])) << "second cancel of the same id fails";
  EXPECT_EQ(simulator.pending(), 8u);
  simulator.run();
  EXPECT_EQ(simulator.pending(), 0u);
  EXPECT_EQ(simulator.events_processed(), 8u);
}

TEST(SimPendingAccounting, CancelAfterFireFailsAndDoesNotDrift) {
  Simulator simulator;
  const EventId id = simulator.schedule_in(Duration::millis(1), [] {});
  simulator.schedule_in(Duration::millis(2), [] {});
  simulator.run_until(TimePoint::at(Duration::millis(1)));
  EXPECT_EQ(simulator.pending(), 1u);
  EXPECT_FALSE(simulator.cancel(id)) << "id already fired";
  EXPECT_EQ(simulator.pending(), 1u) << "failed cancel must not change the count";
  simulator.run();
  EXPECT_EQ(simulator.pending(), 0u);
}

TEST(SimPendingAccounting, RecycledSlotRejectsStaleHandle) {
  // After an event fires, its node slot is recycled for a new event; the old
  // handle's generation no longer matches and must not cancel the newcomer.
  Simulator simulator;
  const EventId old_id = simulator.schedule_in(Duration::millis(1), [] {});
  simulator.run();
  bool ran = false;
  const EventId new_id = simulator.schedule_in(Duration::millis(1), [&] { ran = true; });
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(simulator.cancel(old_id)) << "stale generation must be rejected";
  EXPECT_EQ(simulator.pending(), 1u);
  simulator.run();
  EXPECT_TRUE(ran);
}

}  // namespace
}  // namespace pbxcap
