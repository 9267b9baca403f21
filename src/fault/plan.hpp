// Deterministic fault-injection schedules.
//
// A FaultPlan is a time-ordered script of impairments applied to a running
// testbed: link degradations (loss bursts, jitter ramps, bandwidth drops,
// blackouts), PBX processing stalls, and PBX crash/restart cycles. Plans are
// parsed from a tiny line-oriented text format (see FAULTS.md):
//
//   # t=10s: the access link turns lossy and jittery
//   @10s link client loss=0.05 jitter_mean=5ms jitter_stddev=2ms
//   @20s link server blackout=on
//   @25s link server blackout=off
//   @30s pbx stall 2s
//   @40s pbx crash dead=5s
//
// Everything is driven off the simulator clock, so a plan replayed with the
// same seed yields byte-identical exports — chaos you can diff.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "net/link.hpp"
#include "util/time.hpp"

namespace pbxcap::fault {

/// Which testbed link an impairment addresses (run_testbed's topology:
/// caller access link, receiver access link, PBX uplink).
enum class LinkTarget : std::uint8_t { kClient, kServer, kPbx };

enum class FaultKind : std::uint8_t {
  kLink,   // overlay `change` onto the target link's config
  kStall,  // PBX stops processing for `duration` (SIP deferred, RTP dropped)
  kCrash,  // PBX dies for `duration`, loses all channel state, restarts
};

struct FaultEvent {
  Duration at{};                    // offset from simulation start
  FaultKind kind{FaultKind::kLink};
  LinkTarget target{LinkTarget::kClient};  // kLink only
  net::LinkImpairment change{};            // kLink only
  Duration duration{};                     // kStall / kCrash only
};

[[nodiscard]] const char* to_string(LinkTarget target) noexcept;
[[nodiscard]] const char* to_string(FaultKind kind) noexcept;

class FaultPlan {
 public:
  FaultPlan() = default;

  /// Parses the text format above. Lines are `@<time> <directive>`; blank
  /// lines and `#` comments are ignored. Durations take ns/us/ms/s/m
  /// suffixes. Throws std::invalid_argument naming the offending line.
  [[nodiscard]] static FaultPlan parse(std::string_view text);

  void add(FaultEvent event);

  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept { return events_; }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

 private:
  std::vector<FaultEvent> events_;  // kept sorted by `at` (stable)
};

/// Parses "5s" / "200ms" / "1.5s" / "3m" etc. Returns false on bad syntax,
/// a negative or non-finite value, or a span the nanosecond clock cannot hold.
[[nodiscard]] bool parse_duration(std::string_view token, Duration& out);

}  // namespace pbxcap::fault
