#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <utility>

#include "sim/profile.hpp"

namespace pbxcap::sim {

namespace {
constexpr std::int64_t kNoHorizon = std::numeric_limits<std::int64_t>::max();
}  // namespace

void Simulator::grow_nodes() {
  // A fresh chunk of stable-address nodes; indices join the free list
  // descending so the lowest index is handed out first.
  const auto base = static_cast<std::uint32_t>(chunks_.size()) << kChunkShift;
  chunks_.push_back(std::make_unique<Node[]>(kChunkSize));
  chunk0_ = chunks_.front().get();
  free_.reserve(free_.size() + kChunkSize);
  for (std::uint32_t i = 0; i < kChunkSize; ++i) free_.push_back(base + kChunkSize - 1 - i);
}

EventId Simulator::schedule_far(std::int64_t at_ns, std::uint64_t seq, std::uint32_t idx) {
  Node& node = node_at(idx);
  const EventId id = (static_cast<EventId>(node.gen) << 32) | idx;

  const std::int64_t abs0 = at_ns >> kSlotBits0;
  for (int attempt = 0;; ++attempt) {
    if (abs0 > drained0_ && abs0 >= end0_ - kSlots && abs0 < end0_) {
      // Level 0 after all — a resync below re-anchored the window onto it.
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
    const std::int64_t abs1 = at_ns >> kSlotBits1;
    if (abs0 >= end0_ && abs1 < next1_ + kSlots) {
      // Level 1: waits coarsely, cascades into level 0 as the clock nears.
      const auto phys = static_cast<std::uint32_t>(abs1) & kSlotMask;
      auto& slot = wheel1_[phys];
      // The next slot to cascade collects the short timers that cross into
      // it (a media tick 20 ms before the boundary): it takes the spare.
      if (abs1 == next1_ && slot.capacity() == 0) slot.swap(spare1_);
      node.loc = Loc::kWheel1;
      node.slot = static_cast<std::uint8_t>(phys);
      node.pos = static_cast<std::uint32_t>(slot.size());
      slot.push_back(WheelItem{at_ns, seq, idx, node.gen});
      set_bit(bits1_, phys);
      ++wheel1_count_;
      ++wheel_live_;
      return id;
    }
    // If the wheel is idle its windows may lag the clock; re-anchor them at
    // `now` once and reclassify. Cheap and rare: skipped whenever the windows
    // are already anchored to the current level-0 slot.
    if (attempt == 0 && (now_.ns() >> kSlotBits0) != drained0_ && wheel_is_empty()) {
      resync_wheel();
      continue;
    }
    break;
  }

  // Far heap: beyond the level-1 horizon, or past a wheel window that
  // cascading has already advanced over.
  node.loc = Loc::kFar;
  heap_push(far_, HeapItem{at_ns, seq, idx});
  return id;
}

bool Simulator::cancel(EventId id) {
  const auto idx = static_cast<std::uint32_t>(id);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (idx >= (static_cast<std::uint64_t>(chunks_.size()) << kChunkShift)) return false;
  Node& node = node_at(idx);
  if (node.gen != gen || node.loc == Loc::kFree) return false;

  switch (node.loc) {
    case Loc::kHeap:
      heap_remove(heap_, node.pos);
      break;
    case Loc::kFar:
      heap_remove(far_, node.pos);
      break;
    case Loc::kWheel0:
      slot_remove(wheel0_.data(), bits0_, wheel0_count_, node);
      --wheel_live_;
      break;
    case Loc::kWheel1:
      slot_remove(wheel1_.data(), bits1_, wheel1_count_, node);
      --wheel_live_;
      break;
    case Loc::kRun:
      // Lazy: the generation bump below invalidates the run_ entry, which
      // wheel_peek() discards when it surfaces.
      --wheel_live_;
      break;
    case Loc::kFree:
      break;  // unreachable; handled above
  }
  node.cb = Callback{};
  recycle_node(idx);
  ++cancelled_;
  return true;
}

std::int64_t Simulator::next_event_ns() {
  std::int64_t best = kNoEvent;
  if (wheel_live_ != 0) {
    // wheel_live_ counts only uncancelled items, so the peek always finds one.
    const WheelItem* item = wheel_peek();
    if (item != nullptr) best = item->at;
  }
  if (!heap_.empty() && heap_[0].at < best) best = heap_[0].at;
  if (!far_.empty() && far_[0].at < best) best = far_[0].at;
  return best;
}

std::size_t Simulator::wheel_capacity() const noexcept {
  std::size_t items = run_.capacity() + spare1_.capacity();
  for (const auto& slot : wheel0_) items += slot.capacity();
  for (const auto& slot : wheel1_) items += slot.capacity();
  return items;
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && fire_next(kNoHorizon)) {
  }
}

void Simulator::run_until(TimePoint horizon) {
  if (horizon < now_) throw std::invalid_argument{"Simulator::run_until: horizon is in the past"};
  stopped_ = false;
  while (!stopped_ && fire_next(horizon.ns())) {
  }
  if (!stopped_) now_ = horizon;
}

bool Simulator::fire_next_general(std::int64_t horizon_ns) {
  // The earliest of three tops by (time, sequence): the wheel run, the near
  // heap and the far heap.
  const WheelItem* wheel_min = wheel_peek();
  bool found = wheel_min != nullptr;
  Heap* from = nullptr;  // stays nullptr when the wheel run wins
  std::int64_t at = found ? wheel_min->at : 0;
  std::uint64_t seq = found ? wheel_min->seq : 0;
  std::uint32_t idx = found ? wheel_min->idx : 0;
  for (Heap* heap : {&heap_, &far_}) {
    if (heap->empty()) continue;
    const HeapItem& top = heap->front();
    if (!found || earlier(top.at, top.seq, at, seq)) {
      found = true;
      from = heap;
      at = top.at;
      seq = top.seq;
      idx = top.idx;
    }
  }
  if (!found || at > horizon_ns) return false;

  if (from == nullptr) {
    ++run_pos_;
    --wheel_live_;
  } else {
    heap_pop_root(*from);
  }
  finish_fire(at, idx);
  return true;
}

void Simulator::invoke_profiled(Node& node) {
  ExecProfile& prof = *profile_;
  static_assert((ExecProfile::kMaxCategories & (ExecProfile::kMaxCategories - 1)) == 0,
                "category mask below requires a power-of-two table");
  const auto cat = static_cast<std::uint8_t>(node.cat & (ExecProfile::kMaxCategories - 1));
  current_cat_ = cat;  // events the callback schedules inherit its category
  const std::uint64_t fired = ++prof.counts[cat];
  if ((fired & ExecProfile::kSampleMask) != 0) [[likely]] {
    node.cb.invoke_and_reset();
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  node.cb.invoke_and_reset();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
  prof.record_sample(cat, ns < 0 ? 0 : static_cast<std::uint64_t>(ns));
}

const Simulator::WheelItem* Simulator::wheel_peek() {
  for (;;) {
    while (run_pos_ < run_.size()) {
      const WheelItem& item = run_[run_pos_];
      if (node_at(item.idx).gen == item.gen) return &item;
      ++run_pos_;  // cancelled while activated; node already recycled
    }
    if (wheel0_count_ == 0 && wheel1_count_ == 0) return nullptr;
    run_.clear();
    run_pos_ = 0;

    if (wheel0_count_ != 0) {
      const std::int64_t found = scan_bits(bits0_, cursor0_, end0_);
      if (found >= 0) {
        activate_slot0(found);
        continue;
      }
    }
    if (wheel1_count_ == 0) return nullptr;  // defensive; level 0 scan covers the window
    const std::int64_t found1 = scan_bits(bits1_, next1_, next1_ + kSlots);
    cascade_slot1(found1);
  }
}

void Simulator::activate_slot0(std::int64_t abs_slot) {
  const auto phys = static_cast<std::uint32_t>(abs_slot) & kSlotMask;
  auto& slot = wheel0_[phys];
  run_.swap(slot);  // run_ is empty; recycles capacities both ways
  // The slot now holds the previous run's buffer. Past kSlotKeep items it
  // came from a burst: free it, or a burst's size would stay on the wheel.
  if (slot.capacity() > kSlotKeep) slot = std::vector<WheelItem>{};
  clear_bit(bits0_, phys);
  wheel0_count_ -= run_.size();
  std::sort(run_.begin(), run_.end(), [](const WheelItem& a, const WheelItem& b) noexcept {
    return earlier(a.at, a.seq, b.at, b.seq);
  });
  for (const WheelItem& item : run_) node_at(item.idx).loc = Loc::kRun;
  drained0_ = abs_slot;
  cursor0_ = abs_slot + 1;
}

void Simulator::cascade_slot1(std::int64_t abs_slot) {
  const auto phys = static_cast<std::uint32_t>(abs_slot) & kSlotMask;
  auto& slot = wheel1_[phys];
  for (const WheelItem& item : slot) {
    const std::int64_t abs0 = item.at >> kSlotBits0;
    const auto phys0 = static_cast<std::uint32_t>(abs0) & kSlotMask;
    auto& dst = wheel0_[phys0];
    Node& node = node_at(item.idx);
    node.loc = Loc::kWheel0;
    node.slot = static_cast<std::uint8_t>(phys0);
    node.pos = static_cast<std::uint32_t>(dst.size());
    dst.push_back(item);
    set_bit(bits0_, phys0);
  }
  wheel0_count_ += slot.size();
  wheel1_count_ -= slot.size();
  // The emptied slot keeps no buffer: each level-1 slot fills once per
  // 68.7 s lap, and 256 slots holding their peaks would keep megabytes for a
  // few hundred live items. The larger of its buffer and the spare becomes
  // the spare, unless it is past kSpareKeep items (a burst's).
  slot.clear();
  if (slot.capacity() > spare1_.capacity() && slot.capacity() <= kSpareKeep) slot.swap(spare1_);
  slot = std::vector<WheelItem>{};
  clear_bit(bits1_, phys);
  next1_ = abs_slot + 1;
  end0_ = (abs_slot + 1) * kL0PerL1;
  cursor0_ = abs_slot * kL0PerL1;
}

void Simulator::resync_wheel() noexcept {
  // Only valid while the wheel holds nothing: re-anchor both windows at now.
  const std::int64_t abs0 = now_.ns() >> kSlotBits0;
  const std::int64_t abs1 = now_.ns() >> kSlotBits1;
  drained0_ = abs0;  // the in-progress slot routes to the heap
  cursor0_ = abs0 + 1;
  next1_ = abs1 + 1;
  end0_ = (abs1 + 1) * kL0PerL1;
}

void Simulator::heap_remove(Heap& heap, std::uint32_t pos) {
  const HeapItem last = heap.back();
  heap.pop_back();
  if (pos < heap.size()) {
    heap[pos] = last;
    node_at(last.idx).pos = pos;
    heap_sift_up(heap, pos);
    heap_sift_down(heap, pos);
  }
}

void Simulator::heap_sift_up(Heap& heap, std::uint32_t pos) {
  const HeapItem item = heap[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) >> 2;
    if (!earlier(item.at, item.seq, heap[parent].at, heap[parent].seq)) break;
    heap[pos] = heap[parent];
    node_at(heap[pos].idx).pos = pos;
    pos = parent;
  }
  heap[pos] = item;
  node_at(item.idx).pos = pos;
}

void Simulator::heap_sift_down(Heap& heap, std::uint32_t pos) {
  const HeapItem item = heap[pos];
  const auto n = static_cast<std::uint32_t>(heap.size());
  for (;;) {
    const std::uint32_t first = (pos << 2) + 1;
    if (first >= n) break;
    std::uint32_t best = first;
    const std::uint32_t limit = std::min(first + 4, n);
    for (std::uint32_t child = first + 1; child < limit; ++child) {
      if (earlier(heap[child].at, heap[child].seq, heap[best].at, heap[best].seq)) {
        best = child;
      }
    }
    if (!earlier(heap[best].at, heap[best].seq, item.at, item.seq)) break;
    heap[pos] = heap[best];
    node_at(heap[pos].idx).pos = pos;
    pos = best;
  }
  heap[pos] = item;
  node_at(item.idx).pos = pos;
}

void Simulator::slot_remove(std::vector<WheelItem>* wheel, SlotBits& bits, std::uint64_t& count,
                            const Node& node) noexcept {
  auto& slot = wheel[node.slot];
  const std::uint32_t pos = node.pos;
  if (pos + 1 < slot.size()) {
    slot[pos] = slot.back();
    node_at(slot[pos].idx).pos = pos;
  }
  slot.pop_back();
  if (slot.empty()) clear_bit(bits, node.slot);
  --count;
}

std::int64_t Simulator::scan_bits(const SlotBits& bits, std::int64_t from, std::int64_t to) noexcept {
  std::int64_t abs = from;
  while (abs < to) {
    const std::uint32_t phys = static_cast<std::uint32_t>(abs) & kSlotMask;
    const std::uint32_t off = phys & 63;
    const std::int64_t span = std::min<std::int64_t>(to - abs, 64 - off);
    std::uint64_t word = bits[phys >> 6] >> off;
    if (span < 64) word &= (std::uint64_t{1} << span) - 1;
    if (word != 0) return abs + std::countr_zero(word);
    abs += span;
  }
  return -1;
}

}  // namespace pbxcap::sim
