// Conservative barrier-window executor for sharded simulations.
//
// Runs S sim::Simulator instances ("shards") to a common horizon, each on a
// pinned worker thread (shard s runs on worker s % W, so the assignment —
// and therefore every result — is independent of how many workers exist).
// Synchronization is conservative, with the minimum cross-shard link
// propagation delay as the lookahead L:
//
//   * Time advances in windows of exactly L. During the window [W0, W1)
//     every shard runs its own events with t < W1 (run_until(W1 - 1ns));
//     anything crossing a shard boundary is post()ed as a timestamped
//     message. Causality holds because a message emitted at local time
//     t in [W0, W1) carries a delivery timestamp >= t + L >= W1: it can
//     never land in a neighbor's past. Posts below the bound (fluid
//     batches, which traverse links inline with their timing carried in
//     the payload; or a fault shrinking a cross-shard propagation below L)
//     are clamped up to the window boundary.
//   * At the barrier, a single completion step drains the channels written
//     this window into their destination simulators. post() records a
//     channel in its source's written list on the channel's first push, so
//     the drain walks only those lists, in ascending source order: every
//     destination schedules its inbound messages source-ascending and FIFO,
//     the deterministic (at, src_shard, FIFO) merge of sim/shard.hpp, and a
//     round costs the messages it carried, not S^2 channel checks. It then
//     picks the next window. If every shard's next event and every pending
//     message lie beyond the next boundary, the window start jumps forward
//     to the earliest of them (idle drain phases cost barriers proportional
//     to activity, not to simulated time).
//   * A shard whose next event (read after the drain) lies at or beyond the
//     window end is skipped: it makes no run_until call and no clock read.
//     Its next event is re-read only after it runs a window or is sent a
//     message; otherwise its queue is unchanged and the cached value holds.
//     Its now() lags until it next runs. That is safe: drained messages are
//     scheduled at absolute times >= the window end, past any lagging
//     clock, and post()'s causality clamp reads the window end, not now().
//   * The final window runs run_until(horizon) inclusive on every shard,
//     then repeats (drain, re-run every shard at the horizon) until no shard
//     produced a message — events at exactly the horizon may hand work
//     across one more boundary. Every clock therefore ends at the horizon.
//
// Thread count changes only which OS thread runs a shard, never the order
// of events inside one or the merge order between them: per-seed results
// are byte-identical for any worker count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <vector>

#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace pbxcap::exp {

struct ShardExecConfig {
  /// Worker threads; 0 means "auto" (default_threads()). Clamped to the
  /// shard count — extra workers would only idle at the barrier.
  unsigned threads{0};
  /// Conservative lookahead: every cross-shard link's propagation delay
  /// must be >= this. Must be positive (a zero-delay boundary admits no
  /// conservative window at all).
  Duration lookahead{Duration::millis(1)};
};

class ShardExecutor {
 public:
  /// Per-shard observations of one run. `events`, `messages_*` and
  /// `windows` (windows the shard ran rather than skipped) are deterministic
  /// per seed; `wall_s` is the host-time cost of the shard's windows
  /// (load-imbalance diagnostics — never byte-compared).
  struct ShardStats {
    std::uint64_t events{0};
    std::uint64_t messages_in{0};
    std::uint64_t messages_out{0};
    std::uint64_t windows{0};
    double wall_s{0.0};
  };

  /// Host time of one worker thread over a run: `busy_s` running its shards'
  /// windows, `wait_s` blocked at the barrier. The completion step runs on
  /// whichever worker arrives last, so its time is inside that worker's
  /// wait. Never byte-compared.
  struct WorkerStats {
    double busy_s{0.0};
    double wait_s{0.0};
  };

  /// `sims` are borrowed; one per shard, all at t = 0 with their models
  /// already built and start()ed callbacks scheduled. Throws
  /// std::invalid_argument on an empty shard list or non-positive lookahead.
  ShardExecutor(std::vector<sim::Simulator*> sims, const ShardExecConfig& config);

  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  /// Queues a cross-shard message: run `deliver` in shard `dst` at
  /// `at_ns` (clamped up to the executor's current causality bound). Must
  /// be called from shard `src`'s running window — i.e. from model code
  /// executing inside that shard's simulator.
  void post(std::size_t src, std::size_t dst, std::int64_t at_ns, sim::Callback deliver);
  /// The causality bound post() clamps to while the current window runs.
  [[nodiscard]] std::int64_t causality_bound_ns() const noexcept { return window_end_ns_; }

  /// Runs every shard to `horizon` (inclusive, matching
  /// Simulator::run_until semantics). Blocks the calling thread, which
  /// participates as worker 0. The single-shard case degenerates to a plain
  /// run_until with no threads and no barriers.
  void run(TimePoint horizon);

  [[nodiscard]] const std::vector<ShardStats>& stats() const noexcept { return stats_; }
  /// One entry per worker, indexed like the workers (shard s ran on s % W).
  [[nodiscard]] const std::vector<WorkerStats>& worker_stats() const noexcept {
    return worker_stats_;
  }
  /// Host time spent in the barrier completion step (drain, window pick).
  [[nodiscard]] double drain_s() const noexcept { return drain_s_; }
  [[nodiscard]] unsigned workers() const noexcept { return workers_; }
  [[nodiscard]] std::uint64_t rounds() const noexcept { return rounds_; }
  [[nodiscard]] std::uint64_t total_events() const noexcept;
  /// Messages whose timestamp was raised to the causality bound (fluid
  /// batches crossing a boundary, or faults shrinking a cross-shard
  /// propagation below the lookahead). Deterministic per seed.
  [[nodiscard]] std::uint64_t messages_clamped() const noexcept;

 private:
  void run_shard_window(std::size_t s) noexcept;
  /// Barrier completion step: drain channels, pick the next window (or
  /// finish). Runs exactly once per round while all workers are blocked.
  void on_round() noexcept;
  [[nodiscard]] bool drain_all();
  /// Advances window_end_ns_ past the global idle gap; flips final_ when the
  /// remaining span fits inside one lookahead.
  void advance_window();
  void record_error(std::exception_ptr err) noexcept;

  std::vector<sim::Simulator*> sims_;
  std::int64_t lookahead_ns_;
  unsigned workers_{1};

  // channels_[src * S + dst]: single-writer (src's worker) during a window,
  // drained by on_round() at the barrier. written_[src] lists the dst of
  // every channel src pushed to this window, in first-push order; same
  // single writer, cleared by the drain.
  std::vector<sim::ShardChannel> channels_;
  std::vector<std::vector<std::size_t>> written_;

  // Window state: written by on_round() only, read by workers after the
  // barrier (the barrier's completion step sequences both).
  std::int64_t horizon_ns_{0};
  std::int64_t window_end_ns_{0};  // exclusive end of the window being run
  bool final_{false};              // current window runs run_until(horizon)
  bool done_{false};
  std::uint64_t rounds_{0};
  std::uint64_t horizon_rounds_{0};
  // Each shard's next event after the drain; a shard whose next event is at
  // or beyond window_end_ns_ skips the (non-final) window. Only a shard that
  // ran a window or was sent a message can have a new next event: those set
  // stale_ (each worker only its own shards' entries; bytes, not
  // vector<bool>, so no two entries share a word) and advance_window()
  // re-reads just them.
  std::vector<std::int64_t> next_event_ns_;
  std::vector<std::uint8_t> stale_;

  std::vector<ShardStats> stats_;
  std::vector<WorkerStats> worker_stats_;  // worker w writes only entry w
  double drain_s_{0.0};
  std::vector<std::uint64_t> clamped_by_src_;  // single-writer like the channels

  std::mutex error_mutex_;
  std::exception_ptr error_;
};

}  // namespace pbxcap::exp
