// SSRC -> stream owner table for the per-packet media path.
//
// The PBX routes every relayed RTP packet by its SSRC and each SIPp host
// hands every arriving one to the leg its SSRC names, so this lookup runs
// once per hop end. SSRCs come from a run-wide counter (SsrcAllocator), so
// the low bits of live SSRCs are already spread: the table indexes an
// open-addressed array by `ssrc & mask` and probes linearly, with no hash
// function and no node allocation. Capacity doubles to keep the load at most
// one half and is sized by the peak of live streams, not by the run-wide
// SSRC range. SSRC 0 marks an empty slot; it is never stored (SDP uses 0 for
// "no SSRC").
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pbxcap::rtp {

template <typename T>
class SsrcTable {
 public:
  /// The owner of `ssrc`, or nullptr.
  [[nodiscard]] T* find(std::uint32_t ssrc) const noexcept {
    if (ssrc == 0 || slots_.empty()) return nullptr;
    for (std::size_t i = ssrc & mask_;; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.ssrc == ssrc) return slot.owner;
      if (slot.ssrc == 0) return nullptr;
    }
  }

  /// Maps `ssrc` to `owner`, replacing an earlier owner. SSRC 0 is ignored.
  void assign(std::uint32_t ssrc, T* owner) {
    if (ssrc == 0) return;
    if (2 * (size_ + 1) > slots_.size()) grow();
    std::size_t i = ssrc & mask_;
    while (slots_[i].ssrc != 0 && slots_[i].ssrc != ssrc) i = (i + 1) & mask_;
    if (slots_[i].ssrc == 0) ++size_;
    slots_[i] = Slot{ssrc, owner};
  }

  /// Unmaps `ssrc` if present. Backward-shift deletion: later members of the
  /// probe run move up into the hole, so no tombstones accumulate.
  void erase(std::uint32_t ssrc) noexcept {
    if (ssrc == 0 || slots_.empty()) return;
    std::size_t hole = ssrc & mask_;
    while (slots_[hole].ssrc != ssrc) {
      if (slots_[hole].ssrc == 0) return;
      hole = (hole + 1) & mask_;
    }
    --size_;
    for (std::size_t i = (hole + 1) & mask_; slots_[i].ssrc != 0; i = (i + 1) & mask_) {
      // An entry may fill the hole only if its home slot is not cyclically
      // inside (hole, i]: otherwise the move would put it before its home.
      const std::size_t home = slots_[i].ssrc & mask_;
      if (((i - home) & mask_) >= ((i - hole) & mask_)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole] = Slot{};
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  struct Slot {
    std::uint32_t ssrc{0};
    T* owner{nullptr};
  };

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
    mask_ = slots_.size() - 1;
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.ssrc != 0) assign(slot.ssrc, slot.owner);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_{0};
  std::size_t size_{0};
};

}  // namespace pbxcap::rtp
