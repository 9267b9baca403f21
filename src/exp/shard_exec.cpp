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
  channels_[src * sims_.size() + dst].push(at, std::move(deliver));
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
    return;
  }

  done_ = false;
  final_ = false;
  window_end_ns_ = start;
  advance_window();  // first window: [start or first-event jump, +lookahead)

  auto completion = [this]() noexcept { on_round(); };
  std::barrier<decltype(completion)> barrier{static_cast<std::ptrdiff_t>(workers_),
                                             completion};
  auto work = [&](unsigned w) {
    while (!done_) {
      for (std::size_t s = w; s < sims_.size(); s += workers_) run_shard_window(s);
      barrier.arrive_and_wait();
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
      if (!any) {
        done_ = true;
        return;
      }
      // Events at exactly the horizon handed work across the boundary; run
      // the horizon again so it fires, like a single event queue would.
      if (++horizon_rounds_ > kMaxHorizonRounds) {
        throw std::runtime_error{
            "ShardExecutor: cross-shard message livelock at the horizon"};
      }
      return;
    }
    advance_window();
  } catch (...) {
    record_error(std::current_exception());
    done_ = true;
  }
}

bool ShardExecutor::drain_all() {
  const std::size_t shard_count = sims_.size();
  bool any = false;
  // Destination-major, source-ascending: every destination schedules its
  // inbound messages in (src, FIFO) order, so the simulator's (time, seq)
  // tie-break yields the deterministic (at, src_shard, seq) merge.
  for (std::size_t dst = 0; dst < shard_count; ++dst) {
    for (std::size_t src = 0; src < shard_count; ++src) {
      sim::ShardChannel& channel = channels_[src * shard_count + dst];
      if (channel.empty()) continue;
      any = true;
      std::vector<sim::ShardMessage> messages = channel.drain();
      stats_[dst].messages_in += messages.size();
      const sim::CategoryScope cat_scope{*sims_[dst], sim::Category::kShardMailbox};
      for (sim::ShardMessage& msg : messages) {
        sims_[dst]->schedule_at(TimePoint::at(Duration::nanos(msg.at_ns)),
                                std::move(msg.deliver));
      }
    }
  }
  return any;
}

void ShardExecutor::advance_window() {
  std::int64_t next_event = sim::Simulator::kNoEvent;
  for (sim::Simulator* sim : sims_) next_event = std::min(next_event, sim->next_event_ns());
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
