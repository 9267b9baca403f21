// Cross-shard message plumbing for conservative parallel simulation.
//
// A sharded experiment runs one Simulator per shard; anything crossing a
// shard boundary becomes a timestamped ShardMessage pushed into the
// (src, dst) ShardChannel. Channels are exchanged only at synchronization
// barriers (see exp/shard_exec.hpp): during a window the source shard's
// worker is the only writer, and the drain happens on the barrier's
// completion step while every worker is blocked — so no locks are needed,
// and the happens-before edges come from the barrier itself.
//
// Determinism contract: every destination schedules its inbound messages
// source-ascending, each channel in FIFO order. The Simulator's (time,
// schedule-sequence) tie-break then fires them in exactly (at, src_shard,
// push-order) order — independent of how many threads ran the shards.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/callback.hpp"

namespace pbxcap::sim {

/// One cross-shard delivery: run `deliver` in the destination shard's
/// simulator at absolute time `at_ns`.
struct ShardMessage {
  std::int64_t at_ns{0};
  Callback deliver;
};

/// FIFO queue of messages from one source shard to one destination shard.
/// Single-writer during a window (the source shard's worker); drained on the
/// barrier completion step, which walks it in place and then clear()s it, so
/// the queue keeps its capacity for the next window's pushes.
class ShardChannel {
 public:
  void push(std::int64_t at_ns, Callback deliver) {
    q_.push_back(ShardMessage{at_ns, std::move(deliver)});
  }

  [[nodiscard]] bool empty() const noexcept { return q_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return q_.size(); }

  /// Queued messages in push (FIFO) order.
  [[nodiscard]] auto begin() noexcept { return q_.begin(); }
  [[nodiscard]] auto end() noexcept { return q_.end(); }
  void clear() noexcept { q_.clear(); }

 private:
  std::vector<ShardMessage> q_;
};

}  // namespace pbxcap::sim
