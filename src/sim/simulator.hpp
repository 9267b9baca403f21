// Discrete-event simulation kernel.
//
// A single-threaded event loop over a time-ordered event store. Determinism
// guarantees:
//   * events fire in non-decreasing time order;
//   * ties are broken by scheduling order (FIFO among equal timestamps);
//   * the clock never moves backwards.
// Each experiment run owns one Simulator; parallelism happens across runs
// (see exp/parallel.hpp), never within one, so model code needs no locks.
//
// Internals (rebuilt for throughput; the contract above is unchanged):
//   * Events live in a chunked slab of generation-tagged nodes with stable
//     addresses; an EventId encodes (generation << 32 | node index), so
//     cancel() is an O(1) lookup plus a true removal — no tombstone hash
//     set, no skips at pop time. Stable addresses let the scheduler build
//     each closure directly inside its node and run it there: zero callback
//     relocations on the hot path.
//   * Two index-addressable 4-ary min heaps, both keyed by (time, schedule
//     sequence), hold what the wheel cannot: the near heap (heap_) takes
//     events placed at or before the level-0 slot being drained, the few
//     link/switch hops in flight; the far heap (far_) takes events beyond
//     the wheel's horizon, such as 120 s call-hold timers. Keeping the
//     rarely-touched far timers out of the near heap keeps its sifts a few
//     levels deep. Each node tracks its heap slot, making cancellation an
//     O(log n) sift instead of lazy deletion.
//   * Near-future events — the huge population of short fixed-period timers
//     (20 ms RTP ticks, SIP retransmit timers, link deliveries) — take a
//     two-level timer-wheel fast path: level 0 covers ~268 ms in ~1.05 ms
//     slots, level 1 covers ~68.7 s in ~268 ms slots that cascade into
//     level 0 as the clock approaches. Slots sort by (time, sequence) on
//     activation, and the fire path takes the earliest of the run, the near
//     top and the far top, so events interleave in exactly the order a
//     single global queue would produce. A cascaded level-1 slot hands its
//     buffer to one spare that the next slot to cascade takes, and a level-0
//     slot keeps at most kSlotKeep items of one, so the wheel's memory
//     follows the live population, not each slot's peak.
//   * Callbacks are sim::Callback (see callback.hpp): move-only with 80-byte
//     inline storage, so the dominant capture-a-couple-of-pointers closures
//     never touch the allocator.
//   * The schedule/fire fast paths are defined inline below the class so the
//     tick-reschedule cycle of a paced media stream compiles into one tight
//     loop with no out-of-line calls.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "util/time.hpp"

namespace pbxcap::sim {

struct ExecProfile;  // sim/profile.hpp; the kernel only holds a pointer

/// Opaque handle for cancelling a scheduled event. Zero is never issued.
/// Encodes (generation << 32 | node index); stale handles — fired, cancelled,
/// or from a recycled slot — are recognized and rejected by cancel().
using EventId = std::uint64_t;

class Simulator {
 public:
  using Callback = sim::Callback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Schedules `fn` at absolute time `at` (must be >= now()). The callable
  /// is constructed directly inside the event node — no intermediate
  /// Callback object, no relocation.
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::remove_cvref_t<F>, Callback> &&
                                        std::is_invocable_r_v<void, std::remove_cvref_t<F>&>>>
  EventId schedule_at(TimePoint at, F&& fn) {
    if (at < now_) [[unlikely]] {
      throw std::invalid_argument{"Simulator::schedule_at: time is in the past"};
    }
    const std::uint32_t idx = peek_free();
    node_at(idx).cb.emplace(std::forward<F>(fn));  // may throw: node unclaimed
    take_free(idx);
    return place(at.ns(), idx);
  }

  /// Schedules a pre-built callback; steals it into the event node.
  EventId schedule_at(TimePoint at, Callback&& fn) {
    if (at < now_) [[unlikely]] {
      throw std::invalid_argument{"Simulator::schedule_at: time is in the past"};
    }
    if (!fn) [[unlikely]] {
      throw std::invalid_argument{"Simulator::schedule_at: empty callback"};
    }
    const std::uint32_t idx = alloc_node();
    node_at(idx).cb = std::move(fn);
    return place(at.ns(), idx);
  }

  /// Schedules `fn` after `delay` (must be >= 0).
  template <typename F>
  EventId schedule_in(Duration delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Cancels a pending event. Returns false if it already fired, was already
  /// cancelled, or never existed.
  bool cancel(EventId id);

  [[nodiscard]] TimePoint now() const noexcept { return now_; }
  /// Exact count of scheduled-but-unfired events. Cancelled events leave the
  /// count immediately; they can never make it drift.
  [[nodiscard]] std::size_t pending() const noexcept {
    return static_cast<std::size_t>(scheduled_ - processed_ - cancelled_);
  }
  [[nodiscard]] std::uint64_t events_processed() const noexcept { return processed_; }

  /// Sentinel returned by next_event_ns() when nothing is pending.
  static constexpr std::int64_t kNoEvent = std::numeric_limits<std::int64_t>::max();

  /// Timestamp (ns) of the earliest live pending event, or kNoEvent. Used by
  /// the conservative shard executor to jump idle synchronization windows
  /// forward. May activate wheel slots (pure bookkeeping, fires nothing), so
  /// it is non-const; call it only between run_until() calls, never from
  /// inside a running event.
  [[nodiscard]] std::int64_t next_event_ns();

  /// Wheel entries the kernel has room for across both levels' slots and
  /// the activated run: its retained timer-wheel footprint, in items.
  [[nodiscard]] std::size_t wheel_capacity() const noexcept;

  /// Runs until the queue drains or stop() is called.
  void run();

  /// Runs all events with timestamp <= horizon, then advances the clock to
  /// exactly `horizon`.
  void run_until(TimePoint horizon);

  /// Requests the loop to stop after the currently executing event.
  void stop() noexcept { stopped_ = true; }

  // --- event-category profiling (see sim/profile.hpp) -----------------------
  //
  // Every scheduled event carries a one-byte category id stamped from
  // `current_cat_` at scheduling time, so events scheduled from inside a
  // firing callback inherit that event's category; subsystem roots override
  // it with CategoryScope around their schedule calls. With no profile
  // attached the fire path pays one predictable branch and categories are
  // stamped but never read.

  /// Attaches (or detaches, with nullptr) the profile fires are counted into.
  void set_profile(ExecProfile* profile) noexcept { profile_ = profile; }
  [[nodiscard]] ExecProfile* profile() const noexcept { return profile_; }

  /// Category stamped onto subsequently scheduled events. Prefer
  /// CategoryScope; the raw setter exists for the scope and for tests.
  void set_category(std::uint8_t cat) noexcept { current_cat_ = cat; }
  [[nodiscard]] std::uint8_t category() const noexcept { return current_cat_; }

  /// RAII category override around a group of schedule calls.
  class CategoryScope {
   public:
    CategoryScope(Simulator& simulator, std::uint8_t cat) noexcept
        : sim_{simulator}, prev_{simulator.category()} {
      sim_.set_category(cat);
    }
    CategoryScope(const CategoryScope&) = delete;
    CategoryScope& operator=(const CategoryScope&) = delete;
    ~CategoryScope() { sim_.set_category(prev_); }

   private:
    Simulator& sim_;
    std::uint8_t prev_;
  };

 private:
  // Where a live node currently resides.
  enum class Loc : std::uint8_t {
    kFree,    // on the free list (not a live event)
    kHeap,    // heap_[pos]: the near heap
    kFar,     // far_[pos]: the far heap
    kWheel0,  // wheel0_[slot][pos]
    kWheel1,  // wheel1_[slot][pos]
    kRun,     // run_ (the activated, sorted level-0 slot); cancelled lazily
  };

  struct Node {
    Callback cb;
    std::uint32_t gen{1};  // bumped on every free; validates EventIds
    Loc loc{Loc::kFree};
    std::uint8_t slot{0};  // wheel slot (physical) for kWheel0/kWheel1
    std::uint8_t cat{0};   // profiling category (sim/profile.hpp); fits padding
    std::uint32_t pos{0};  // index within heap_, far_ or the wheel slot vector
  };

  struct HeapItem {
    std::int64_t at;    // ns
    std::uint64_t seq;  // FIFO tie-break among equal timestamps
    std::uint32_t idx;  // node index
  };

  struct WheelItem {
    std::int64_t at;
    std::uint64_t seq;
    std::uint32_t idx;
    std::uint32_t gen;  // detects lazily-cancelled entries in run_
  };

  // Nodes are handed out chunk by chunk so their addresses never move:
  // callbacks run inside their node, and events scheduled from a running
  // callback must not pull the storage out from under it.
  static constexpr std::uint32_t kChunkShift = 9;  // 512 nodes per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  static constexpr int kSlotBits0 = 20;      // level-0 slot width: 2^20 ns ~ 1.05 ms
  static constexpr int kSlotBits1 = 28;      // level-1 slot width: 2^28 ns ~ 268 ms
  static constexpr std::int64_t kSlots = 256;  // slots per level
  static constexpr std::uint32_t kSlotMask = 255;
  // Level-0 slots spanned by one level-1 slot.
  static constexpr std::int64_t kL0PerL1 = std::int64_t{1} << (kSlotBits1 - kSlotBits0);
  // Items of buffer an emptied level-0 slot may keep for its next lap (6 KB);
  // a Table-I run peaks near 64. Level-1 slots keep none; one spare of at
  // most kSpareKeep items (96 KB) serves them in turn. A Table-I run's
  // level-1 population (the ticks that cross into the next slot) peaks near
  // 512.
  static constexpr std::size_t kSlotKeep = 256;
  static constexpr std::size_t kSpareKeep = 4096;
  using SlotBits = std::array<std::uint64_t, 4>;  // 256-bit occupancy map

  static bool earlier(std::int64_t at_a, std::uint64_t seq_a, std::int64_t at_b,
                      std::uint64_t seq_b) noexcept {
    return at_a < at_b || (at_a == at_b && seq_a < seq_b);
  }

  [[nodiscard]] Node& node_at(std::uint32_t idx) noexcept {
    // First chunk through a cached raw pointer: almost every simulation keeps
    // its live-event population under kChunkSize, and the shortcut shaves a
    // dependent pointer load off every hot-path node access.
    if (idx < kChunkSize) [[likely]] return chunk0_[idx];
    return chunks_[idx >> kChunkShift][idx & kChunkMask];
  }

  /// Classifies a freshly filled node into heap / wheel and returns its id.
  EventId place(std::int64_t at_ns, std::uint32_t idx);

  /// Fires the earliest pending event if its time is <= horizon_ns.
  bool fire_next(std::int64_t horizon_ns);
  /// fire_next for every case but the pure near heap: the earliest of the
  /// wheel run, the near top and the far top.
  bool fire_next_general(std::int64_t horizon_ns);
  /// Pop bookkeeping done: runs the node's callback at time `at`.
  void finish_fire(std::int64_t at, std::uint32_t idx);
  /// finish_fire's callback invocation with a profile attached: counts the
  /// category and brackets every kSamplePeriod-th callback with clock reads.
  void invoke_profiled(Node& node);

  /// Slow scheduling path: level-1 placement, window resync, far heap.
  EventId schedule_far(std::int64_t at_ns, std::uint64_t seq, std::uint32_t idx);

  /// Earliest live wheel event, or nullptr if the wheel is empty. Activates
  /// slots and cascades level 1 as needed; pure bookkeeping, fires nothing.
  const WheelItem* wheel_peek();

  void activate_slot0(std::int64_t abs_slot);
  void cascade_slot1(std::int64_t abs_slot);
  void resync_wheel() noexcept;
  [[nodiscard]] bool wheel_is_empty() const noexcept { return wheel_live_ == 0; }

  void grow_nodes();
  // Free-node handout goes through a single-entry cache over free_: the
  // fire-then-reschedule cycle frees one node and claims another back-to-back,
  // so the cache alternates a pair of hot slots without touching the vector.
  [[nodiscard]] std::uint32_t peek_free();
  void take_free(std::uint32_t idx) noexcept;
  void push_free(std::uint32_t idx) noexcept;
  std::uint32_t alloc_node();
  /// Returns a node whose callback has already been moved out or destroyed
  /// to the free list, invalidating outstanding EventIds for it.
  void recycle_node(std::uint32_t idx) noexcept;

  // 4-ary heap operations on heap_ or far_; they keep Node::pos current.
  using Heap = std::vector<HeapItem>;
  void heap_push(Heap& heap, HeapItem item);
  void heap_pop_root(Heap& heap);
  void heap_remove(Heap& heap, std::uint32_t pos);
  void heap_sift_up(Heap& heap, std::uint32_t pos);
  void heap_sift_down(Heap& heap, std::uint32_t pos);

  void slot_remove(std::vector<WheelItem>* wheel, SlotBits& bits, std::uint64_t& count,
                   const Node& node) noexcept;

  // Scans `bits` over absolute slots [from, to) (to - from <= kSlots);
  // returns the first occupied absolute slot or -1.
  static std::int64_t scan_bits(const SlotBits& bits, std::int64_t from, std::int64_t to) noexcept;

  static void set_bit(SlotBits& bits, std::uint32_t phys) noexcept {
    bits[phys >> 6] |= std::uint64_t{1} << (phys & 63);
  }
  static void clear_bit(SlotBits& bits, std::uint32_t phys) noexcept {
    bits[phys >> 6] &= ~(std::uint64_t{1} << (phys & 63));
  }

  // --- event storage ---
  std::vector<std::unique_ptr<Node[]>> chunks_;
  Node* chunk0_{nullptr};  // raw shortcut to chunks_[0]
  std::vector<std::uint32_t> free_;
  static constexpr std::uint32_t kNoFree = 0xffffffffu;  // cache-empty sentinel
  std::uint32_t free_top_{kNoFree};  // single-entry cache over free_
  Heap heap_;  // near: events at or before the drained level-0 slot
  Heap far_;   // far: events schedule_far could not put on the wheel

  std::array<std::vector<WheelItem>, kSlots> wheel0_{};
  std::array<std::vector<WheelItem>, kSlots> wheel1_{};
  SlotBits bits0_{};
  SlotBits bits1_{};
  std::uint64_t wheel0_count_{0};
  std::uint64_t wheel1_count_{0};
  // Live (uncancelled) events anywhere on the wheel: both levels plus the
  // activated run. One load decides the fire-path dispatch.
  std::uint64_t wheel_live_{0};

  std::vector<WheelItem> spare1_;  // a cascaded level-1 slot's buffer, for the next
  std::vector<WheelItem> run_;     // activated level-0 slot, sorted by (at, seq)
  std::size_t run_pos_{0};

  // Wheel windows, in absolute slot indices of the respective level.
  // Invariant: end0_ == next1_ * kL0PerL1; level 0 covers
  // [end0_ - kSlots, end0_), level 1 covers [next1_, next1_ + kSlots).
  std::int64_t drained0_{0};  // slot currently/last extracted into run_
  std::int64_t cursor0_{1};   // next level-0 slot to scan
  std::int64_t end0_{kSlots};
  std::int64_t next1_{1};

  TimePoint now_{};
  ExecProfile* profile_{nullptr};
  std::uint8_t current_cat_{0};
  std::uint64_t next_seq_{1};
  std::uint64_t scheduled_{0};
  std::uint64_t processed_{0};
  std::uint64_t cancelled_{0};
  bool stopped_{false};
};

// ---- inline fast paths ------------------------------------------------------

inline std::uint32_t Simulator::peek_free() {
  if (free_top_ != kNoFree) [[likely]] return free_top_;
  if (free_.empty()) [[unlikely]] grow_nodes();
  return free_.back();
}

inline void Simulator::take_free(std::uint32_t idx) noexcept {
  if (idx == free_top_) [[likely]] {
    free_top_ = kNoFree;
    return;
  }
  free_.pop_back();
}

inline void Simulator::push_free(std::uint32_t idx) noexcept {
  if (free_top_ == kNoFree) [[likely]] {
    free_top_ = idx;
    return;
  }
  free_.push_back(idx);
}

inline std::uint32_t Simulator::alloc_node() {
  const std::uint32_t idx = peek_free();
  take_free(idx);
  return idx;
}

inline void Simulator::recycle_node(std::uint32_t idx) noexcept {
  Node& node = node_at(idx);
  ++node.gen;  // invalidates outstanding EventIds and stale run_ entries
  node.loc = Loc::kFree;
  push_free(idx);
}

inline void Simulator::heap_push(Heap& heap, HeapItem item) {
  const auto pos = static_cast<std::uint32_t>(heap.size());
  heap.push_back(item);
  // Appending an item that is not earlier than its parent needs no sift: the
  // overwhelmingly common shape for a near-empty heap or monotone inserts.
  if (pos == 0 ||
      !earlier(item.at, item.seq, heap[(pos - 1) >> 2].at, heap[(pos - 1) >> 2].seq)) {
    node_at(item.idx).pos = pos;
    return;
  }
  heap_sift_up(heap, pos);
}

inline void Simulator::heap_pop_root(Heap& heap) {
  const HeapItem last = heap.back();
  heap.pop_back();
  if (!heap.empty()) {
    heap[0] = last;
    node_at(last.idx).pos = 0;
    heap_sift_down(heap, 0);
  }
}

inline EventId Simulator::place(std::int64_t at_ns, std::uint32_t idx) {
  const std::uint64_t seq = next_seq_++;
  ++scheduled_;
  Node& node = node_at(idx);
  node.cat = current_cat_;  // category inheritance: one store into a hot line
  const EventId id = (static_cast<EventId>(node.gen) << 32) | idx;

  const std::int64_t abs0 = at_ns >> kSlotBits0;
  if (abs0 <= drained0_) {
    // Lands in (or before) the slot being drained: the near heap keeps it
    // ordered against the already-sorted run. The tightest self-scheduling
    // loops (sub-millisecond periods) and the per-hop packet events live here.
    node.loc = Loc::kHeap;
    heap_push(heap_, HeapItem{at_ns, seq, idx});
    return id;
  }
  if (abs0 >= end0_ - kSlots && abs0 < end0_) {
    // Level-0 fast path: lands directly in a sortable near-future slot; the
    // 20 ms RTP tick population lives here.
    const auto phys = static_cast<std::uint32_t>(abs0) & kSlotMask;
    auto& slot = wheel0_[phys];
    node.loc = Loc::kWheel0;
    node.slot = static_cast<std::uint8_t>(phys);
    node.pos = static_cast<std::uint32_t>(slot.size());
    slot.push_back(WheelItem{at_ns, seq, idx, node.gen});
    set_bit(bits0_, phys);
    ++wheel0_count_;
    ++wheel_live_;
    return id;
  }
  return schedule_far(at_ns, seq, idx);
}

inline void Simulator::finish_fire(std::int64_t at, std::uint32_t idx) {
  Node& node = node_at(idx);
  ++node.gen;  // the id dies now: cancel() from inside the callback says false
  node.loc = Loc::kFree;
  ++processed_;
  now_ = TimePoint::at(Duration::nanos(at));
  // Chunk storage is stable, so the callback runs where it lives; the node
  // rejoins the free list only after it returns, so events it schedules
  // cannot claim the slot out from under it.
  if (profile_ == nullptr) [[likely]] {
    node.cb.invoke_and_reset();
  } else {
    invoke_profiled(node);
  }
  push_free(idx);
}

inline bool Simulator::fire_next(std::int64_t horizon_ns) {
  if (wheel_live_ != 0 || !far_.empty()) return fire_next_general(horizon_ns);
  // Pure near heap: nothing live on the wheel anywhere (run_ may still hold
  // lazily-cancelled leftovers; they are dead and can wait) and nothing far.
  if (heap_.empty()) return false;
  const HeapItem top = heap_[0];
  if (top.at > horizon_ns) return false;
  heap_pop_root(heap_);
  finish_fire(top.at, top.idx);
  return true;
}

}  // namespace pbxcap::sim
