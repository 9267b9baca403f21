#include "exp/shard_exec.hpp"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "exp/parallel.hpp"
#include "sim/profile.hpp"

namespace pbxcap::exp {

namespace {
// Rounds allowed at the horizon before declaring a livelock. Legitimate
// at-horizon chains are short (a fluid batch crossing twice, an event at
// exactly the horizon handing one message over); thousands of rounds mean
// model code keeps generating work at the same instant forever.
constexpr std::uint64_t kMaxHorizonRounds = 1000;
}  // namespace

ShardExecutor::ShardExecutor(std::vector<sim::Simulator*> sims, const ShardExecConfig& config)
    : sims_{std::move(sims)}, lookahead_ns_{config.lookahead.ns()} {
  if (sims_.empty()) throw std::invalid_argument{"ShardExecutor: need at least one shard"};
  for (const sim::Simulator* sim : sims_) {
    if (sim == nullptr) throw std::invalid_argument{"ShardExecutor: null shard simulator"};
  }
  if (lookahead_ns_ <= 0) {
    throw std::invalid_argument{
        "ShardExecutor: lookahead must be positive (a zero-delay cross-shard "
        "link admits no conservative window)"};
  }
  const unsigned requested = config.threads == 0 ? default_threads() : config.threads;
  workers_ = static_cast<unsigned>(
      std::min<std::size_t>(std::max(requested, 1u), sims_.size()));
  stats_.resize(sims_.size());
  if (sims_.size() > 1) {  // one shard has no channels and posts nothing
    channels_.resize(sims_.size() * sims_.size());
    written_.resize(sims_.size());
    next_event_ns_.resize(sims_.size());
    stale_.resize(sims_.size());
    clamped_by_src_.resize(sims_.size(), 0);
  }
}

void ShardExecutor::post(std::size_t src, std::size_t dst, std::int64_t at_ns,
                         sim::Callback deliver) {
  if (src >= sims_.size() || dst >= sims_.size() || src == dst) {
    throw std::invalid_argument{"ShardExecutor::post: bad shard pair"};
  }
  // Causality clamp: a message may never land in the destination's past.
  // window_end_ns_ is stable for the duration of the window (only the
  // barrier completion step writes it), so reading it from a worker is safe.
  std::int64_t at = at_ns;
  if (at < window_end_ns_) {
    at = window_end_ns_;
    ++clamped_by_src_[src];
  }
  ++stats_[src].messages_out;
  sim::ShardChannel& channel = channels_[src * sims_.size() + dst];
  if (channel.empty()) written_[src].push_back(dst);
  channel.push(at, std::move(deliver));
}

void ShardExecutor::run(TimePoint horizon) {
  horizon_ns_ = horizon.ns();
  const std::int64_t start = sims_.front()->now().ns();
  for (const sim::Simulator* sim : sims_) {
    if (sim->now().ns() != start) {
      throw std::invalid_argument{"ShardExecutor::run: shard clocks must agree at start"};
    }
  }
  if (horizon_ns_ < start) {
    throw std::invalid_argument{"ShardExecutor::run: horizon is in the past"};
  }
  // Each shard's count at the start; turned into this run's events at the end.
  for (std::size_t s = 0; s < sims_.size(); ++s) stats_[s].events = sims_[s]->events_processed();

  if (sims_.size() == 1) {
    // Degenerate case: one shard is just a plain single-threaded run (no
    // windows, no barriers, nothing to post to).
    workers_ = 1;
    rounds_ = 1;
    window_end_ns_ = horizon_ns_;
    const auto t0 = std::chrono::steady_clock::now();
    sims_[0]->run_until(horizon);
    stats_[0].wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    stats_[0].events = sims_[0]->events_processed() - stats_[0].events;
    stats_[0].windows = 1;
    worker_stats_.assign(1, WorkerStats{stats_[0].wall_s, 0.0});
    return;
  }

  done_ = false;
  final_ = false;
  window_end_ns_ = start;
  std::fill(stale_.begin(), stale_.end(), std::uint8_t{1});
  advance_window();  // first window: [start or first-event jump, +lookahead)

  auto completion = [this]() noexcept { on_round(); };
  std::barrier<decltype(completion)> barrier{static_cast<std::ptrdiff_t>(workers_),
                                             completion};
  worker_stats_.assign(workers_, WorkerStats{});
  auto work = [&](unsigned w) {
    using Clock = std::chrono::steady_clock;
    WorkerStats& ws = worker_stats_[w];
    auto resumed = Clock::now();
    while (!done_) {
      for (std::size_t s = w; s < sims_.size(); s += workers_) run_shard_window(s);
      const auto arrived = Clock::now();
      barrier.arrive_and_wait();
      const auto now = Clock::now();
      ws.busy_s += std::chrono::duration<double>(arrived - resumed).count();
      ws.wait_s += std::chrono::duration<double>(now - arrived).count();
      resumed = now;
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers_ - 1);
  for (unsigned w = 1; w < workers_; ++w) pool.emplace_back(work, w);
  work(0);
  for (auto& t : pool) t.join();

  for (std::size_t s = 0; s < sims_.size(); ++s) {
    stats_[s].events = sims_[s]->events_processed() - stats_[s].events;
  }
  if (error_) std::rethrow_exception(error_);
}

void ShardExecutor::run_shard_window(std::size_t s) noexcept {
  // Nothing of this shard's falls inside the window: leave its clock behind.
  if (!final_ && next_event_ns_[s] >= window_end_ns_) return;
  ++stats_[s].windows;
  stale_[s] = 1;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    // Intermediate windows are exclusive of their end (all integer-ns
    // events with t < end), so a drained message at exactly `end` is still
    // strictly in this shard's future. The final window is the inclusive
    // run_until(horizon) the monolithic path performs.
    const std::int64_t target = final_ ? horizon_ns_ : window_end_ns_ - 1;
    sims_[s]->run_until(TimePoint::at(Duration::nanos(target)));
  } catch (...) {
    record_error(std::current_exception());
  }
  stats_[s].wall_s +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

void ShardExecutor::on_round() noexcept {
  const auto t0 = std::chrono::steady_clock::now();
  try {
    ++rounds_;
    {
      const std::scoped_lock lock{error_mutex_};
      if (error_) {
        done_ = true;
        return;
      }
    }
    const bool any = drain_all();
    if (final_) {
      // With no message, done; otherwise events at exactly the horizon
      // handed work across the boundary: run the horizon again so it fires,
      // like a single event queue would.
      done_ = !any;
      if (any && ++horizon_rounds_ > kMaxHorizonRounds) {
        throw std::runtime_error{
            "ShardExecutor: cross-shard message livelock at the horizon"};
      }
    } else {
      advance_window();
    }
  } catch (...) {
    record_error(std::current_exception());
    done_ = true;
  }
  drain_s_ += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

bool ShardExecutor::drain_all() {
  const std::size_t shard_count = sims_.size();
  bool any = false;
  // Source-ascending, each source's written channels in first-push order:
  // every destination schedules its inbound messages in (src, FIFO) order,
  // so the simulator's (time, seq) tie-break yields the deterministic
  // (at, src_shard, seq) merge. The order across destinations is free, as
  // they are different simulators.
  for (std::size_t src = 0; src < shard_count; ++src) {
    for (const std::size_t dst : written_[src]) {
      sim::ShardChannel& channel = channels_[src * shard_count + dst];
      stats_[dst].messages_in += channel.size();
      stale_[dst] = 1;
      const sim::CategoryScope cat_scope{*sims_[dst], sim::Category::kShardMailbox};
      for (sim::ShardMessage& msg : channel) {
        sims_[dst]->schedule_at(TimePoint::at(Duration::nanos(msg.at_ns)),
                                std::move(msg.deliver));
      }
      channel.clear();
    }
    any = any || !written_[src].empty();
    written_[src].clear();
  }
  return any;
}

void ShardExecutor::advance_window() {
  std::int64_t next_event = sim::Simulator::kNoEvent;
  for (std::size_t s = 0; s < sims_.size(); ++s) {
    if (stale_[s] != 0) {
      next_event_ns_[s] = sims_[s]->next_event_ns();
      stale_[s] = 0;
    }
    next_event = std::min(next_event, next_event_ns_[s]);
  }
  // Everything already drained is inside the simulators, so next_event is a
  // complete lower bound on future activity anywhere.
  std::int64_t start = window_end_ns_;
  if (next_event > start) start = next_event;  // jump the global idle gap
  if (start >= horizon_ns_ || horizon_ns_ - start <= lookahead_ns_) {
    final_ = true;
    window_end_ns_ = horizon_ns_;
  } else {
    window_end_ns_ = start + lookahead_ns_;
  }
}

void ShardExecutor::record_error(std::exception_ptr err) noexcept {
  const std::scoped_lock lock{error_mutex_};
  if (!error_) error_ = err;
}

std::uint64_t ShardExecutor::total_events() const noexcept {
  std::uint64_t total = 0;
  for (const ShardStats& s : stats_) total += s.events;
  return total;
}

std::uint64_t ShardExecutor::messages_clamped() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t c : clamped_by_src_) total += c;
  return total;
}

}  // namespace pbxcap::exp
