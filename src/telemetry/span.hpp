// Call-lifecycle span tracing into a preallocated ring.
//
// Spans are begun/ended against the simulation clock and land in a
// fixed-capacity ring that keeps the NEWEST spans (oldest are overwritten
// and counted in dropped()). Names and tracks are interned once; recording
// a span is an array write, no allocation. Tracks map to Perfetto threads:
// one row per call, labelled with its Call-ID, so a single slow call can be
// drilled into visually (see OBSERVABILITY.md for the Perfetto workflow).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/metrics.hpp"
#include "util/time.hpp"

namespace pbxcap::telemetry {

class SpanTracer {
 public:
  /// Handle for closing a span. 0 is the null span: end(0, ...) is a no-op,
  /// so call sites need no branching when tracing never began a span.
  using SpanId = std::uint64_t;

  /// Sentinel for "no detail string" (0 is a valid interned name id).
  static constexpr std::uint32_t kNoDetail = 0xffffffffu;

  enum class Kind : std::uint8_t {
    kSlice,    // duration span: Perfetto "X" complete event
    kInstant,  // zero-duration marker: Perfetto "i" instant event
  };

  struct Span {
    std::uint32_t name{0};       // interned name id
    std::uint32_t detail{kNoDetail};  // interned arg string, or kNoDetail
    std::uint64_t track{0};      // interned track id (1-based)
    std::int64_t start_ns{0};
    std::int64_t end_ns{-1};     // -1 while open; unended spans are not exported
    std::uint64_t seq{0};        // global sequence; validates SpanIds after wrap
    Kind kind{Kind::kSlice};
  };

  explicit SpanTracer(std::size_t capacity = 1u << 16);

  /// Interns a span name; cheap after the first call per name.
  [[nodiscard]] std::uint32_t name_id(std::string_view name);
  /// Interns a track key (e.g. a Call-ID); the key becomes the Perfetto
  /// thread name. Ids are assigned sequentially from 1 in first-seen order.
  [[nodiscard]] std::uint64_t track_id(std::string_view key);

  [[nodiscard]] SpanId begin(std::uint32_t name, std::uint64_t track, TimePoint at,
                             std::uint32_t detail = kNoDetail);
  void end(SpanId id, TimePoint at);

  /// Records a zero-duration marker (dispatcher pick, fault firing). The
  /// optional detail is an interned string surfaced as a trace-event arg.
  void instant(std::uint32_t name, std::uint64_t track, TimePoint at,
               std::uint32_t detail = kNoDetail);

  /// Total spans begun, including overwritten ones.
  [[nodiscard]] std::uint64_t recorded() const noexcept { return seq_; }
  /// Spans lost to ring wrap-around (oldest evicted first).
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return seq_ > ring_.size() ? seq_ - ring_.size() : 0;
  }
  void publish(MetricsRegistry& reg) const {
    reg.counter("pbxcap_trace_spans_dropped_total", {}, "Span-ring overwrites (oldest spans lost)")
        .add(dropped());
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }

  /// Retained spans, oldest first.
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] const std::string& name_of(std::uint32_t id) const { return names_.at(id); }
  [[nodiscard]] const std::vector<std::string>& track_keys() const noexcept {
    return track_keys_;  // index i names track id i+1
  }

 private:
  std::vector<Span> ring_;
  std::uint64_t seq_{0};  // next slot = seq_ % ring_.size()
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> name_ids_;
  std::vector<std::string> track_keys_;
  std::map<std::string, std::uint64_t, std::less<>> track_ids_;
};

}  // namespace pbxcap::telemetry
