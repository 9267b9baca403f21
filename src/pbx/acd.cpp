#include "pbx/acd.hpp"

#include <algorithm>
#include <utility>

#include "sip/transaction.hpp"
#include "sip/types.hpp"

namespace pbxcap::pbx {

// ---- AcdWaitQueue ---------------------------------------------------------

AcdWaitQueue::Entry& AcdWaitQueue::push_back(std::unique_ptr<Entry> entry) {
  Entry& ref = *entry;
  entries_.push_back(std::move(entry));
  ++live_;
  return ref;
}

std::unique_ptr<AcdWaitQueue::Entry> AcdWaitQueue::pop_front_live() {
  while (!entries_.empty() && !entries_.front()->live) {
    entries_.pop_front();
    --dead_;
  }
  if (entries_.empty()) return nullptr;
  auto entry = std::move(entries_.front());
  entries_.pop_front();
  --live_;
  return entry;
}

void AcdWaitQueue::push_front(std::unique_ptr<Entry> entry) {
  entries_.push_front(std::move(entry));
  ++live_;
}

void AcdWaitQueue::mark_dead(Entry& entry) {
  entry.live = false;
  --live_;
  ++dead_;
  // Amortised sweep: dead entries in the middle of the deque (timeouts,
  // abandons) are only freed here, so bound them by the live population
  // instead of letting them accumulate for the whole run.
  if (dead_ > live_ + 8) compact();
}

std::size_t AcdWaitQueue::position_of(const Entry& entry) const noexcept {
  std::size_t pos = 0;
  for (const auto& e : entries_) {
    if (e->live) ++pos;
    if (e.get() == &entry) return pos;
  }
  return pos;
}

void AcdWaitQueue::drain(const std::function<void(Entry&)>& fn) {
  for (auto& e : entries_) {
    if (e->live) fn(*e);
  }
  entries_.clear();
  live_ = 0;
  dead_ = 0;
}

void AcdWaitQueue::compact() {
  std::erase_if(entries_, [](const std::unique_ptr<Entry>& e) { return !e->live; });
  dead_ = 0;
}

// ---- AcdAgentPool ---------------------------------------------------------

AcdAgentPool::AcdAgentPool(const std::vector<AcdAgentSpec>& specs) {
  std::uint32_t id = 0;
  for (const AcdAgentSpec& spec : specs) {
    for (std::uint32_t i = 0; i < spec.count; ++i) {
      Agent agent;
      agent.id = id++;
      agent.penalty = spec.penalty;
      agent.wrapup = spec.wrapup;
      agents_.push_back(agent);
    }
  }
}

AcdAgentPool::Agent* AcdAgentPool::pick(RingStrategy strategy, std::uint64_t& rung) noexcept {
  Agent* best = nullptr;
  std::uint64_t available = 0;
  // Iteration is in id order, and all comparisons are strict, so ties always
  // resolve to the lowest agent id — deterministic across runs and shards.
  for (Agent& agent : agents_) {
    if (agent.busy || agent.in_wrapup) continue;
    ++available;
    if (best == nullptr) {
      best = &agent;
      continue;
    }
    switch (strategy) {
      case RingStrategy::kRingAll:
        break;  // everyone rings; the lowest id (first found) answers
      case RingStrategy::kLeastRecent:
        if (agent.last_finished_seq < best->last_finished_seq) best = &agent;
        break;
      case RingStrategy::kFewestCalls:
        if (agent.calls_taken < best->calls_taken) best = &agent;
        break;
      case RingStrategy::kPenaltyTiers:
        if (agent.penalty < best->penalty ||
            (agent.penalty == best->penalty &&
             agent.last_finished_seq < best->last_finished_seq)) {
          best = &agent;
        }
        break;
    }
  }
  if (best == nullptr) return nullptr;
  rung += strategy == RingStrategy::kRingAll ? available : 1;
  return best;
}

void AcdAgentPool::begin_call(Agent& agent, TimePoint now) noexcept {
  agent.busy = true;
  agent.busy_since = now;
  ++agent.calls_taken;
}

AcdAgentPool::Agent* AcdAgentPool::end_call(std::uint32_t id) noexcept {
  Agent* agent = by_id(id);
  if (agent == nullptr || !agent->busy) return nullptr;
  agent->busy = false;
  agent->last_finished_seq = ++finish_seq_;
  return agent;
}

AcdAgentPool::Agent* AcdAgentPool::by_id(std::uint32_t id) noexcept {
  // Ids are dense (assigned 0..n-1 at construction).
  return id < agents_.size() ? &agents_[id] : nullptr;
}

std::size_t AcdAgentPool::busy_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(agents_.begin(), agents_.end(), [](const Agent& a) { return a.busy; }));
}

std::size_t AcdAgentPool::available_count() const noexcept {
  return static_cast<std::size_t>(std::count_if(
      agents_.begin(), agents_.end(), [](const Agent& a) { return !a.busy && !a.in_wrapup; }));
}

void AcdAgentPool::reset() noexcept {
  for (Agent& agent : agents_) {
    agent.busy = false;
    agent.in_wrapup = false;
    agent.wrapup_event = 0;
  }
}

// ---- AcdSubsystem ---------------------------------------------------------

AcdSubsystem::AcdSubsystem(AcdConfig config, sim::Simulator& simulator)
    : config_{std::move(config)}, sim_{simulator}, rng_{config_.seed} {
  if (!config_.enabled) return;
  for (std::size_t qi = 0; qi < config_.queues.size(); ++qi) {
    queues_.push_back(std::make_unique<Queue>(config_.queues[qi]));
    by_name_.emplace(config_.queues[qi].name, qi);
  }
}

std::optional<std::size_t> AcdSubsystem::queue_for_user(std::string_view user) const {
  constexpr std::string_view kPrefix = "queue-";
  if (!user.starts_with(kPrefix)) return std::nullopt;
  const auto it = by_name_.find(std::string{user.substr(kPrefix.size())});
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

void AcdSubsystem::offer(std::size_t qi, const sip::Message& invite,
                         sip::ServerTransaction& txn, std::size_t cdr) {
  Queue& q = *queues_.at(qi);
  const AcdQueueConfig& cfg = config_.queues[qi];
  ++q.stats.offered;

  // Fast path: nobody ahead and an agent free — serve without queueing
  // (waiting time 0, which the Erlang E[W]-over-all-arrivals mean needs).
  if (q.waiting.live_count() == 0) {
    AcdAgentPool::Agent* agent = q.agents.pick(cfg.strategy, q.stats.agents_rung);
    if (agent != nullptr) {
      const ServeOutcome out = hooks_.serve(invite, txn, cdr, qi, agent->id);
      if (out == ServeOutcome::kBridged) {
        ++q.stats.served;
        record_wait(q, 0.0, /*served=*/true);
        q.agents.begin_call(*agent, sim_.now());
        return;
      }
      if (out == ServeOutcome::kFailed) {
        ++q.stats.serve_failures;  // the hook rejected and closed the CDR
        return;
      }
      ++q.stats.serve_retries;  // kNoChannel: agent free but no PBX channel —
    }                           // fall through and wait like everyone else
  }

  if (q.waiting.live_count() >= cfg.max_queue_length) {
    if (cfg.voicemail_fallback && hooks_.voicemail && hooks_.voicemail(invite, txn, cdr, qi)) {
      ++q.stats.voicemail;
    } else {
      ++q.stats.blocked_full;
      hooks_.reject(invite, txn, cdr, sip::status::kServiceUnavailable,
                    Disposition::kCongestion);
    }
    return;
  }

  enqueue(qi, invite, txn, cdr);
}

void AcdSubsystem::enqueue(std::size_t qi, const sip::Message& invite,
                           sip::ServerTransaction& txn, std::size_t cdr) {
  Queue& q = *queues_[qi];
  const AcdQueueConfig& cfg = config_.queues[qi];
  ++q.stats.queued;

  auto owned = std::make_unique<AcdWaitQueue::Entry>();
  owned->invite = invite;
  owned->txn = &txn;
  owned->cdr = cdr;
  owned->enqueued_at = sim_.now();
  AcdWaitQueue::Entry& entry = q.waiting.push_back(std::move(owned));

  // Initial 182 with the caller's position: keeps the INVITE transaction in
  // Proceeding (no Timer B pressure, RFC 3261 §17.1.1.2) while they wait.
  if (hooks_.announce) {
    hooks_.announce(entry.invite, txn, q.waiting.position_of(entry));
    ++q.stats.announcements;
  }

  const sim::CategoryScope scope{sim_, sim::Category::kAcd};
  AcdWaitQueue::Entry* raw = &entry;

  if (cfg.patience != PatienceModel::kNone) {
    const Duration patience = cfg.patience == PatienceModel::kExponential
                                  ? rng_.exponential(cfg.patience_mean)
                                  : cfg.patience_mean;
    raw->patience_event = sim_.schedule_in(patience, [this, qi, raw] {
      raw->patience_event = 0;
      Queue& queue = *queues_[qi];
      cancel_timers(*raw);
      ++queue.stats.abandoned;
      record_wait(queue, (sim_.now() - raw->enqueued_at).to_seconds(), /*served=*/false);
      hooks_.reject(raw->invite, *raw->txn, raw->cdr, sip::status::kTemporarilyUnavailable,
                    Disposition::kNoAnswer);
      queue.waiting.mark_dead(*raw);  // may compact and free raw — last use
    });
  }

  if (cfg.max_wait > Duration::zero()) {
    raw->max_wait_event = sim_.schedule_in(cfg.max_wait, [this, qi, raw] {
      raw->max_wait_event = 0;
      overflow(qi, *raw, /*from_max_wait=*/true);
    });
  }

  if (cfg.announce_period > Duration::zero() && hooks_.announce) {
    schedule_announce(qi, raw);
  }
}

void AcdSubsystem::schedule_announce(std::size_t qi, AcdWaitQueue::Entry* raw) {
  const sim::CategoryScope scope{sim_, sim::Category::kAcd};
  raw->announce_event = sim_.schedule_in(config_.queues[qi].announce_period, [this, qi, raw] {
    raw->announce_event = 0;
    Queue& q = *queues_[qi];
    hooks_.announce(raw->invite, *raw->txn, q.waiting.position_of(*raw));
    ++q.stats.announcements;
    schedule_announce(qi, raw);
  });
}

void AcdSubsystem::overflow(std::size_t qi, AcdWaitQueue::Entry& entry, bool /*from_max_wait*/) {
  Queue& q = *queues_[qi];
  const AcdQueueConfig& cfg = config_.queues[qi];
  cancel_timers(entry);
  record_wait(q, (sim_.now() - entry.enqueued_at).to_seconds(), /*served=*/false);
  if (cfg.voicemail_fallback && hooks_.voicemail &&
      hooks_.voicemail(entry.invite, *entry.txn, entry.cdr, qi)) {
    ++q.stats.voicemail;
  } else {
    ++q.stats.timed_out;
    hooks_.reject(entry.invite, *entry.txn, entry.cdr, sip::status::kServiceUnavailable,
                  Disposition::kCongestion);
  }
  q.waiting.mark_dead(entry);  // may compact and free the entry — last use
}

void AcdSubsystem::try_dispatch(std::size_t qi) {
  Queue& q = *queues_[qi];
  const AcdQueueConfig& cfg = config_.queues[qi];
  while (q.waiting.live_count() > 0) {
    AcdAgentPool::Agent* agent = q.agents.pick(cfg.strategy, q.stats.agents_rung);
    if (agent == nullptr) break;
    auto entry = q.waiting.pop_front_live();
    if (entry == nullptr) break;
    const ServeOutcome out = hooks_.serve(entry->invite, *entry->txn, entry->cdr, qi, agent->id);
    if (out == ServeOutcome::kNoChannel) {
      // No PBX channel free. The caller keeps their place at the head of the
      // line with timers intact; on_channel_available() retries. (The old
      // serve_queue() dropped the caller on the floor here.)
      ++q.stats.serve_retries;
      q.waiting.push_front(std::move(entry));
      break;
    }
    cancel_timers(*entry);
    const double waited = (sim_.now() - entry->enqueued_at).to_seconds();
    if (out == ServeOutcome::kBridged) {
      ++q.stats.served;
      record_wait(q, waited, /*served=*/true);
      q.agents.begin_call(*agent, sim_.now());
    } else {
      ++q.stats.serve_failures;
      record_wait(q, waited, /*served=*/false);
    }
  }
}

void AcdSubsystem::on_agent_released(std::size_t qi, std::uint32_t agent_id) {
  Queue& q = *queues_.at(qi);
  AcdAgentPool::Agent* agent = q.agents.end_call(agent_id);
  if (agent == nullptr) return;  // already reset by a crash
  q.stats.busy_agent_s += (sim_.now() - agent->busy_since).to_seconds();
  if (agent->wrapup > Duration::zero()) {
    agent->in_wrapup = true;
    const sim::CategoryScope scope{sim_, sim::Category::kAcd};
    const std::uint32_t id = agent->id;
    agent->wrapup_event = sim_.schedule_in(agent->wrapup, [this, qi, id] {
      Queue& queue = *queues_[qi];
      AcdAgentPool::Agent* a = queue.agents.by_id(id);
      if (a == nullptr || !a->in_wrapup) return;
      a->in_wrapup = false;
      a->wrapup_event = 0;
      try_dispatch(qi);
    });
  } else {
    try_dispatch(qi);
  }
}

void AcdSubsystem::on_channel_available() {
  for (std::size_t qi = 0; qi < queues_.size(); ++qi) {
    try_dispatch(qi);
  }
}

void AcdSubsystem::crash(const std::function<void(std::size_t cdr)>& close_cdr) {
  for (auto& qp : queues_) {
    Queue& q = *qp;
    q.waiting.drain([&](AcdWaitQueue::Entry& entry) {
      cancel_timers(entry);
      close_cdr(entry.cdr);
    });
    for (AcdAgentPool::Agent& agent : q.agents.agents()) {
      if (agent.wrapup_event != 0) {
        sim_.cancel(agent.wrapup_event);
        agent.wrapup_event = 0;
      }
      if (agent.busy) q.stats.busy_agent_s += (sim_.now() - agent.busy_since).to_seconds();
    }
    q.agents.reset();
  }
}

void AcdSubsystem::publish(telemetry::MetricsRegistry& reg) const {
  if (!enabled()) return;
  for (std::size_t qi = 0; qi < queues_.size(); ++qi) {
    const Queue& q = *queues_[qi];
    const std::string& name = config_.queues[qi].name;
    const auto calls = [&](std::string_view event, std::uint64_t value) {
      reg.counter("pbxcap_acd_calls_total", {{"queue", name}, {"event", std::string{event}}},
                  "ACD per-queue call events")
          .add(value);
    };
    calls("offered", q.stats.offered);
    calls("queued", q.stats.queued);
    calls("served", q.stats.served);
    calls("abandoned", q.stats.abandoned);
    calls("timeout", q.stats.timed_out);
    calls("voicemail", q.stats.voicemail);
    calls("blocked_full", q.stats.blocked_full);
    reg.counter("pbxcap_acd_announcements_total", {{"queue", name}},
                "SIP 182 position updates sent")
        .add(q.stats.announcements);
    reg.gauge("pbxcap_acd_queue_depth", {{"queue", name}}, "Callers currently waiting in the queue")
        .add(static_cast<double>(depth(qi)));
    reg.gauge("pbxcap_acd_agents_busy", {{"queue", name}}, "Agents currently on a bridged call")
        .add(static_cast<double>(busy_agents(qi)));
    reg.histogram("pbxcap_acd_wait_seconds", q.wait_hist.bounds(), {{"queue", name}},
                  "Queue waiting time in seconds")
        .merge(q.wait_hist);
  }
}

std::size_t AcdSubsystem::total_depth() const noexcept {
  std::size_t depth = 0;
  for (const auto& qp : queues_) depth += qp->waiting.live_count();
  return depth;
}

double AcdSubsystem::busy_agent_seconds(std::size_t qi, TimePoint now) const {
  const Queue& q = *queues_.at(qi);
  double seconds = q.stats.busy_agent_s;
  for (const AcdAgentPool::Agent& agent : q.agents.agents()) {
    if (agent.busy) seconds += (now - agent.busy_since).to_seconds();
  }
  return seconds;
}

void AcdSubsystem::cancel_timers(AcdWaitQueue::Entry& entry) {
  if (entry.patience_event != 0) {
    sim_.cancel(entry.patience_event);
    entry.patience_event = 0;
  }
  if (entry.max_wait_event != 0) {
    sim_.cancel(entry.max_wait_event);
    entry.max_wait_event = 0;
  }
  if (entry.announce_event != 0) {
    sim_.cancel(entry.announce_event);
    entry.announce_event = 0;
  }
}

void AcdSubsystem::record_wait(Queue& q, double seconds, bool served) {
  q.stats.wait_s.add(seconds);
  if (served) q.stats.wait_served_s.add(seconds);
  q.wait_hist.observe(seconds);
}

}  // namespace pbxcap::pbx
