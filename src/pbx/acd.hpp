// Automatic Call Distribution — the first-class queue subsystem.
//
// Modelled on Asterisk's app_queue: named queues, an agent pool with ring
// strategies and per-agent wrapup, caller abandonment via a configurable
// patience distribution, periodic position announcements (delivered as SIP
// 182 updates by the PBX), and a voicemail fallback instead of a hard 503
// when the queue is full or a caller waits too long.
//
// The subsystem owns *queueing policy* only. Everything SIP/media-shaped —
// answering legs, building bridges, sending responses — stays in the PBX and
// is reached through the Hooks struct, so the policy core is unit-testable
// without a network and the PBX keeps a single code path for bridge setup.
//
// Determinism: the only randomness is the exponential patience draw, taken
// from the subsystem's own sim::Random stream (seeded from AcdConfig::seed),
// so enabling ACD never perturbs the caller/impairment RNG sequences, and
// per-shard seeds are mixed by the cluster wiring for byte-identical runs at
// any worker count. All timers are scheduled under the `acd` profiler
// category.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "pbx/cdr.hpp"
#include "sim/profile.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sip/message.hpp"
#include "stats/summary.hpp"
#include "telemetry/metrics.hpp"
#include "util/time.hpp"

namespace pbxcap::sip {
class ServerTransaction;
}

namespace pbxcap::pbx {

/// How a freed agent is chosen for the caller at the head of the queue.
enum class RingStrategy : std::uint8_t {
  kRingAll,       // ring every available agent; lowest id answers first
  kLeastRecent,   // agent idle the longest since finishing a call
  kFewestCalls,   // agent with the fewest completed calls
  kPenaltyTiers,  // lowest penalty tier first, least-recent within a tier
};

/// Caller patience (time-to-abandon while waiting).
enum class PatienceModel : std::uint8_t {
  kNone,           // infinitely patient (the Erlang-C caller)
  kExponential,    // Exp(patience_mean) — the Erlang-A caller
  kDeterministic,  // abandons at exactly patience_mean
};

/// A homogeneous block of agents sharing a penalty tier and wrapup time.
struct AcdAgentSpec {
  std::uint32_t count{1};
  std::uint32_t penalty{0};     // lower tiers ring first under kPenaltyTiers
  Duration wrapup{};            // after-call work before the agent is rung again
};

struct AcdQueueConfig {
  std::string name{"support"};  // callers dial "queue-<name>"
  RingStrategy strategy{RingStrategy::kLeastRecent};
  std::vector<AcdAgentSpec> agents{AcdAgentSpec{.count = 4}};
  std::uint32_t max_queue_length{64};
  PatienceModel patience{PatienceModel::kNone};
  Duration patience_mean{Duration::seconds(60)};
  /// Hard cap on waiting time; zero = wait forever. On expiry the caller
  /// overflows to voicemail (if enabled) or is released with 503.
  Duration max_wait{};
  /// Comfort/position announcement period (SIP 182 updates); zero = only the
  /// initial 182 on entering the queue.
  Duration announce_period{};
  /// Overflow to a one-way-RTP voicemail leg instead of rejecting when the
  /// queue is full or max_wait expires.
  bool voicemail_fallback{false};
};

struct AcdConfig {
  bool enabled{false};
  std::vector<AcdQueueConfig> queues{};
  /// Seed for the patience RNG stream (mixed per backend by cluster wiring).
  std::uint64_t seed{0xACDu};
};

/// Per-queue observations — the Erlang-C/A measurement surface.
struct AcdQueueStats {
  std::uint64_t offered{0};        // calls routed to this queue
  std::uint64_t queued{0};         // entered the wait queue (found no agent)
  std::uint64_t served{0};         // bridged to an agent
  std::uint64_t abandoned{0};      // reneged (patience expired)
  std::uint64_t timed_out{0};      // max_wait expired, no voicemail taken
  std::uint64_t voicemail{0};      // overflowed to the voicemail leg
  std::uint64_t blocked_full{0};   // rejected: queue at max_queue_length
  std::uint64_t serve_failures{0}; // dispatch attempts the PBX failed to bridge
  std::uint64_t serve_retries{0};  // dispatches re-queued: no channel free
  std::uint64_t announcements{0};  // 182 position updates sent
  std::uint64_t agents_rung{0};    // ring attempts (kRingAll rings many per pick)
  stats::Summary wait_s;           // waiting time of every call leaving the queue
  stats::Summary wait_served_s;    // waiting time of served calls only
  double busy_agent_s{0.0};        // accumulated agent talk time (occupancy numerator)
};

/// FIFO wait queue with O(1) live depth and race-safe dispatch.
///
/// Entries die in place (timeout/abandon closures hold raw Entry pointers,
/// so dead entries cannot be erased eagerly) and are compacted amortised
/// once they outnumber the live ones — the fix for the old implementation's
/// O(queue) live-scan per arrival and unbounded dead-entry buildup.
/// pop_front_live() hands ownership to the dispatcher; push_front() returns
/// it with timers intact when the serve attempt finds no channel — the fix
/// for the serve/acquire race that silently lost callers.
class AcdWaitQueue {
 public:
  struct Entry {
    sip::Message invite;
    sip::ServerTransaction* txn{nullptr};
    std::size_t cdr{0};
    TimePoint enqueued_at{};
    sim::EventId patience_event{0};
    sim::EventId max_wait_event{0};
    sim::EventId announce_event{0};
    bool live{true};
  };

  /// Appends and returns a stable reference (deque of unique_ptr: Entry
  /// addresses survive both growth and compaction).
  Entry& push_back(std::unique_ptr<Entry> entry);

  /// Pops the first live entry (discarding any dead prefix), or nullptr.
  [[nodiscard]] std::unique_ptr<Entry> pop_front_live();

  /// Returns a popped entry to the head of the line, timers intact.
  void push_front(std::unique_ptr<Entry> entry);

  /// Kills an entry still in the deque (its timers must already be
  /// cancelled/fired). May compact, which frees other dead entries — never
  /// touch a dead Entry after this call.
  void mark_dead(Entry& entry);

  /// 1-based position among live entries (for position announcements).
  [[nodiscard]] std::size_t position_of(const Entry& entry) const noexcept;

  [[nodiscard]] std::size_t live_count() const noexcept { return live_; }
  /// Deque length including dead, not-yet-compacted entries (tests pin the
  /// compaction bound with this).
  [[nodiscard]] std::size_t raw_size() const noexcept { return entries_.size(); }

  /// Applies `fn` to every live entry, then empties the queue (crash path).
  void drain(const std::function<void(Entry&)>& fn);

 private:
  void compact();

  std::deque<std::unique_ptr<Entry>> entries_;
  std::size_t live_{0};
  std::size_t dead_{0};
};

/// The agents of one queue plus the ring-strategy selection logic.
class AcdAgentPool {
 public:
  struct Agent {
    std::uint32_t id{0};
    std::uint32_t penalty{0};
    Duration wrapup{};
    bool busy{false};
    bool in_wrapup{false};
    std::uint64_t calls_taken{0};
    std::uint64_t last_finished_seq{0};  // for kLeastRecent ordering
    TimePoint busy_since{};
    sim::EventId wrapup_event{0};
  };

  explicit AcdAgentPool(const std::vector<AcdAgentSpec>& specs);

  /// Selects an available agent per the strategy (nullptr if none). Ties
  /// break on lowest id, so selection is deterministic. `rung` counts ring
  /// attempts: kRingAll charges one per available agent, the targeted
  /// strategies one per pick.
  [[nodiscard]] Agent* pick(RingStrategy strategy, std::uint64_t& rung) noexcept;

  void begin_call(Agent& agent, TimePoint now) noexcept;
  /// Finishes the agent's call and returns it, or nullptr if the agent was
  /// not busy (idempotent: the crash path may double-release).
  Agent* end_call(std::uint32_t id) noexcept;

  [[nodiscard]] Agent* by_id(std::uint32_t id) noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return agents_.size(); }
  [[nodiscard]] std::size_t busy_count() const noexcept;
  [[nodiscard]] std::size_t available_count() const noexcept;
  [[nodiscard]] std::vector<Agent>& agents() noexcept { return agents_; }
  [[nodiscard]] const std::vector<Agent>& agents() const noexcept { return agents_; }

  /// Crash: everyone idle, sequence preserved (callers must cancel wrapup
  /// events themselves before resetting).
  void reset() noexcept;

 private:
  std::vector<Agent> agents_;
  std::uint64_t finish_seq_{0};
};

/// Policy core: routes offered calls to queues, dispatches waiting callers
/// to agents, and runs the patience / max-wait / announcement timers.
class AcdSubsystem {
 public:
  enum class ServeOutcome : std::uint8_t {
    kBridged,    // leg B launched, channel + agent committed
    kNoChannel,  // channel pool exhausted — re-queue, retry on release
    kFailed,     // PBX rejected (routing/policy); CDR closed by the hook
  };

  /// PBX-side effectors. All are required once the subsystem is enabled.
  struct Hooks {
    /// Attempts to bridge the caller to the picked agent.
    std::function<ServeOutcome(const sip::Message& invite, sip::ServerTransaction& txn,
                               std::size_t cdr, std::size_t queue_index,
                               std::uint32_t agent_id)>
        serve;
    /// Sends a final rejection and closes the CDR with `disposition`.
    std::function<void(const sip::Message& invite, sip::ServerTransaction& txn,
                       std::size_t cdr, int status, Disposition disposition)>
        reject;
    /// Overflows the caller to a voicemail leg; false = voicemail also
    /// unavailable (caller is then rejected).
    std::function<bool(const sip::Message& invite, sip::ServerTransaction& txn,
                       std::size_t cdr, std::size_t queue_index)>
        voicemail;
    /// Sends a 182 position update on the caller's INVITE transaction.
    std::function<void(const sip::Message& invite, sip::ServerTransaction& txn,
                       std::size_t position)>
        announce;
  };

  AcdSubsystem(AcdConfig config, sim::Simulator& simulator);

  void set_hooks(Hooks hooks) { hooks_ = std::move(hooks); }

  [[nodiscard]] bool enabled() const noexcept {
    return config_.enabled && !config_.queues.empty();
  }

  /// Resolves a request-URI user of the form "queue-<name>".
  [[nodiscard]] std::optional<std::size_t> queue_for_user(std::string_view user) const;

  /// Entry point for an admitted ACD INVITE: serve immediately if an agent
  /// (and channel) is free, otherwise queue / overflow / reject.
  void offer(std::size_t queue_index, const sip::Message& invite,
             sip::ServerTransaction& txn, std::size_t cdr);

  /// An agent's bridged call ended (bridge closed): start wrapup, then
  /// dispatch the next waiting caller.
  void on_agent_released(std::size_t queue_index, std::uint32_t agent_id);

  /// A PBX channel freed up — retry dispatches parked on kNoChannel.
  void on_channel_available();

  /// Process crash: every timer dies, waiting callers are lost (their CDRs
  /// closed via `close_cdr`), agents come back idle.
  void crash(const std::function<void(std::size_t cdr)>& close_cdr);

  /// Registers each queue's event counters, depth and busy-agent gauges
  /// and wait histogram in `reg` and fills them. No rows when disabled.
  void publish(telemetry::MetricsRegistry& reg) const;

  [[nodiscard]] std::size_t queue_count() const noexcept { return queues_.size(); }
  [[nodiscard]] const AcdQueueStats& stats(std::size_t qi) const { return queues_.at(qi)->stats; }
  [[nodiscard]] std::size_t depth(std::size_t qi) const { return queues_.at(qi)->waiting.live_count(); }
  [[nodiscard]] std::size_t busy_agents(std::size_t qi) const {
    return queues_.at(qi)->agents.busy_count();
  }
  [[nodiscard]] std::size_t total_depth() const noexcept;
  [[nodiscard]] std::size_t agent_count(std::size_t qi) const { return queues_.at(qi)->agents.size(); }
  /// Talk time accrued by this queue's agents up to `now`, including calls
  /// still in progress (occupancy numerator; divide by window * agents).
  [[nodiscard]] double busy_agent_seconds(std::size_t qi, TimePoint now) const;

 private:
  struct Queue {
    AcdWaitQueue waiting;
    AcdAgentPool agents;
    AcdQueueStats stats;
    telemetry::Histogram wait_hist{telemetry::log_linear_buckets(0.1, 1000.0, 5)};

    explicit Queue(const AcdQueueConfig& cfg) : agents{cfg.agents} {}
  };

  void enqueue(std::size_t qi, const sip::Message& invite, sip::ServerTransaction& txn,
               std::size_t cdr);
  void try_dispatch(std::size_t qi);
  /// Serves one caller-entry against one picked agent; consumes the timers
  /// and the entry unless the outcome is kNoChannel.
  void cancel_timers(AcdWaitQueue::Entry& entry);
  void schedule_announce(std::size_t qi, AcdWaitQueue::Entry* entry);
  void overflow(std::size_t qi, AcdWaitQueue::Entry& entry, bool from_max_wait);
  void record_wait(Queue& q, double seconds, bool served);

  AcdConfig config_;
  sim::Simulator& sim_;
  sim::Random rng_;
  Hooks hooks_;
  std::vector<std::unique_ptr<Queue>> queues_;
  std::unordered_map<std::string, std::size_t> by_name_;
};

}  // namespace pbxcap::pbx
