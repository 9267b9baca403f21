// Event-engine execution profile: per-category event counts and sampled
// wall-clock callback latency.
//
// The simulator kernel cannot depend on src/telemetry (telemetry already
// depends on sim for the self-scheduling sampler), so the hot data structure
// lives here and the rich wrapper — name interning, JSON / Chrome-trace
// exports, deterministic shard merge — lives in telemetry::Profiler.
//
// Determinism contract: per-category *event counts* are a pure function of
// the seed (every fired event increments exactly one category slot), so they
// participate in byte-identical goldens and cross-worker-count checks.
// Wall-clock figures (timed_ns, latency histogram) are host noise by nature
// and are kept in separate fields that exporters can exclude.
//
// Overhead contract: with no profile attached the fire path pays one
// predictable null-pointer branch (benched in bench_telemetry_overhead,
// <= 2%). With a profile attached every fire pays one slot increment plus a
// mask test on the incremented count; only every `sample_period`-th fire of
// a category is bracketed with steady_clock reads (enabled-path budget
// <= 5% on the Table-I macro workload: perfbench's telemetry.overhead_pct
// for table1-packet).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "sim/simulator.hpp"

namespace pbxcap::sim {

/// Builtin event categories. The numbering is part of the export format:
/// merged profiles and JSON goldens list categories in this order.
enum class Category : std::uint8_t {
  kUnattributed = 0,  // scheduled before any category scope was opened
  kSip,               // SIP transaction timers + SIP packet deliveries
  kRtpPacket,         // per-packet media ticks, RTP/RTCP deliveries
  kRtpFluidFlush,     // fluid-segment flush / transient re-entry events
  kPbx,               // PBX service queue, answer delay, bridge timers
  kDispatch,          // dispatcher health probes and breaker timers
  kFault,             // FaultInjector firings
  kTimerWheel,        // periodic bookkeeping: telemetry sampler, profiler tick
  kShardMailbox,      // cross-shard messages drained into a shard's simulator
  kLoadgen,           // caller arrival process, retry backoff, hold timers
  kAcd,               // ACD queue timers: patience, max-wait, announce, wrapup
};

inline constexpr std::size_t kCategoryCount = 11;

inline constexpr std::uint8_t category_id(Category cat) noexcept {
  return static_cast<std::uint8_t>(cat);
}

/// Simulator::CategoryScope taking the builtin enum directly — the usual
/// spelling at subsystem scheduling sites.
class CategoryScope : public Simulator::CategoryScope {
 public:
  CategoryScope(Simulator& simulator, Category cat) noexcept
      : Simulator::CategoryScope{simulator, category_id(cat)} {}
};

/// Display names, indexed by Category. Doubles as the JSON category key.
inline const char* category_name(std::uint8_t cat) noexcept {
  static constexpr const char* kNames[kCategoryCount] = {
      "unattributed", "sip",   "rtp-packet", "rtp-fluid-flush", "pbx",
      "dispatch",     "fault", "timer-wheel", "shard-mailbox",  "loadgen",
      "acd",
  };
  return cat < kCategoryCount ? kNames[cat] : "unknown";
}

/// Per-category accumulators — the export/merge view. `events` is
/// deterministic; the timing fields are sampled wall-clock measurements.
struct CategoryStats {
  // Log2 latency buckets: bucket i counts sampled callbacks whose wall time
  // fell in [2^i, 2^(i+1)) ns; bucket 0 also absorbs 0–1 ns. 24 buckets
  // reach ~16.8 ms, far beyond any single callback.
  static constexpr std::size_t kLatencyBuckets = 24;

  std::uint64_t events{0};         // deterministic: every fire counts once
  std::uint64_t timed_samples{0};  // wall-clock: sampled subset of fires
  std::uint64_t timed_ns{0};       // wall-clock: summed sampled latency
  std::array<std::uint64_t, kLatencyBuckets> latency_log2{};

  void merge(const CategoryStats& other) noexcept {
    events += other.events;
    timed_samples += other.timed_samples;
    timed_ns += other.timed_ns;
    for (std::size_t i = 0; i < kLatencyBuckets; ++i) latency_log2[i] += other.latency_log2[i];
  }
};

/// The hot profile a Simulator writes into while firing events. Attach with
/// Simulator::set_profile(); read or merge after (or between) run calls.
///
/// Layout matters: every fire increments one entry of `counts`, so the whole
/// per-fire working set (`counts`) is kept to 2 cache lines. The
/// 216-byte-per-category sampled-latency stats are only touched on every
/// kSamplePeriod-th fire and live separately in `timing`.
struct ExecProfile {
  // Room for the builtin categories, rounded up to the power of two the
  // category mask in Simulator::invoke_profiled needs.
  static constexpr std::size_t kMaxCategories = 16;
  // Every kSamplePeriod-th fire of a category is wall-clocked. The fire path
  // tests the just-incremented counts[cat] against kSampleMask, so sampling
  // adds no state of its own (no countdown load/store on the unsampled
  // 255-out-of-256).
  static constexpr std::uint32_t kSamplePeriod = 256;
  static constexpr std::uint32_t kSampleMask = kSamplePeriod - 1;

  /// Sampled-latency accumulators; `events` inside these stays 0 (the
  /// authoritative count is counts[cat] — stats() folds them together).
  struct Timing {
    std::uint64_t timed_samples{0};
    std::uint64_t timed_ns{0};
    std::array<std::uint64_t, CategoryStats::kLatencyBuckets> latency_log2{};
  };

  std::array<std::uint64_t, kMaxCategories> counts{};  // hot: one ++ per fire
  std::array<Timing, kMaxCategories> timing{};  // cold: sampled fires only

  /// Sum of per-category event counts; equals the owning simulator's
  /// events_processed() delta over the attached interval.
  [[nodiscard]] std::uint64_t total_events() const noexcept {
    std::uint64_t total = 0;
    for (const std::uint64_t c : counts) total += c;
    return total;
  }

  /// Export view of one category (count + sampled timing, recombined).
  [[nodiscard]] CategoryStats stats(std::size_t cat) const noexcept {
    CategoryStats s;
    s.events = counts[cat];
    s.timed_samples = timing[cat].timed_samples;
    s.timed_ns = timing[cat].timed_ns;
    s.latency_log2 = timing[cat].latency_log2;
    return s;
  }

  /// Deterministic merge (slot-wise; callers merge shards in shard order).
  void merge(const ExecProfile& other) noexcept {
    for (std::size_t i = 0; i < kMaxCategories; ++i) {
      counts[i] += other.counts[i];
      timing[i].timed_samples += other.timing[i].timed_samples;
      timing[i].timed_ns += other.timing[i].timed_ns;
      for (std::size_t b = 0; b < CategoryStats::kLatencyBuckets; ++b) {
        timing[i].latency_log2[b] += other.timing[i].latency_log2[b];
      }
    }
  }

  void record_sample(std::uint8_t cat, std::uint64_t ns) noexcept {
    Timing& slot = timing[cat];
    ++slot.timed_samples;
    slot.timed_ns += ns;
    std::size_t bucket = 0;
    while (bucket + 1 < CategoryStats::kLatencyBuckets && (std::uint64_t{1} << (bucket + 1)) <= ns) {
      ++bucket;
    }
    ++slot.latency_log2[bucket];
  }
};

}  // namespace pbxcap::sim
