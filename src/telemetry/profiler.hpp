// Event-engine profiler — the rich wrapper over sim::ExecProfile.
//
// The simulator counts fires into the hot ExecProfile struct (one array
// increment per event; every kSamplePeriod-th callback wall-clocked, see
// sim/profile.hpp). This layer adds what the kernel must not know about:
// category names, an optional per-period event-count series driven by a
// self-scheduling tick (the source of Chrome counter tracks), deterministic
// shard-order merging, and the exporters — profile JSON, a Chrome-trace
// counter track file, the `pbxcap profile` top-N table, and the per-shard
// attribution JSON that backs ROADMAP open item 7.
//
// Determinism: category event counts and the per-period series are pure
// functions of the seed. Wall-clock fields (timed_ns, latency buckets) are
// host noise; exporters exclude them unless include_timing is set, so
// profile JSON participates in byte-identity goldens.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/profile.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace pbxcap::telemetry {

/// Plain-data snapshot of one simulator's profile over its attached
/// interval. Mergeable across shards; the exporters below consume it.
struct ProfileData {
  struct Category {
    std::string name;
    sim::CategoryStats stats;
  };

  std::vector<Category> categories;  // indexed by sim::Category
  /// Simulator::events_processed() delta over the attached interval; the
  /// category counts must sum to exactly this (checked by tools/check_telemetry.py).
  std::uint64_t events_processed{0};

  [[nodiscard]] std::uint64_t total_events() const noexcept {
    std::uint64_t total = 0;
    for (const Category& cat : categories) total += cat.stats.events;
    return total;
  }

  /// Merges another snapshot (same category list) into this one. Callers
  /// merge shards in shard order so the result is deterministic.
  void merge(const ProfileData& other);
};

class Profiler {
 public:
  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Starts counting this simulator's fires into the profile. One simulator
  /// per profiler; the baseline events_processed is captured here.
  void attach(sim::Simulator& simulator);
  /// Stops counting and latches the events_processed delta, so snapshot()
  /// stays valid after the simulator is destroyed. Call it in the harness
  /// epilogue, before the run's sim::Simulator leaves scope.
  void detach();

  /// Self-schedules a per-period tick recording category event-count deltas
  /// (the Chrome counter-track series). Requires attach() first; the tick
  /// itself is attributed to timer-wheel. Use with run_until, like the
  /// sampler: under run() the tick keeps the queue alive forever.
  void start_series(Duration period);
  void stop_series();

  [[nodiscard]] const sim::ExecProfile& profile() const noexcept { return profile_; }

  struct SeriesRow {
    std::int64_t at_ns{0};
    std::array<std::uint64_t, sim::ExecProfile::kMaxCategories> deltas{};
  };
  [[nodiscard]] const std::vector<SeriesRow>& series() const noexcept { return series_; }
  [[nodiscard]] Duration series_period() const noexcept { return series_period_; }

  [[nodiscard]] ProfileData snapshot() const;

 private:
  void tick();

  sim::ExecProfile profile_{};
  sim::Simulator* simulator_{nullptr};
  std::uint64_t attached_processed_{0};
  std::uint64_t latched_processed_{0};  // delta frozen by detach()
  Duration series_period_{Duration::seconds(1)};
  sim::EventId tick_event_{0};
  std::array<std::uint64_t, sim::ExecProfile::kMaxCategories> last_counts_{};
  std::vector<SeriesRow> series_;
};

/// Profile JSON: {"events_processed":N,"categories":[{"name":...,"events":N,
/// "share":...},...]}. Timing fields (wall-clock; nondeterministic) are
/// included only when include_timing is set — goldens leave it off.
[[nodiscard]] std::string to_json(const ProfileData& data, bool include_timing = false);

/// Chrome trace-event counter tracks ("C" phases) from the profiler's
/// per-period series: one counter per category, value = events per period.
[[nodiscard]] std::string to_chrome_counter_trace(const Profiler& profiler);

/// Human-readable top-N table (events, share, sampled mean latency) for the
/// `pbxcap profile` subcommand. Sorted by event count descending; ties break
/// by category id so the table is deterministic.
[[nodiscard]] std::string top_table(const ProfileData& data, std::size_t top_n = 10);

/// Per-shard attribution JSON backing the hub-shard share claim:
/// {"shards":[{"shard":...,"events":N,"share":...,"categories":{...}}],
///  "total":{...}}. Counts only — byte-identical for any worker count.
struct ShardProfile {
  std::string name;
  ProfileData data;
};
[[nodiscard]] std::string attribution_json(const std::vector<ShardProfile>& shards);

}  // namespace pbxcap::telemetry
