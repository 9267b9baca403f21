// Sim-clock time-series sampler.
//
// Snapshots registered probes on a fixed simulated-time period (default 1 s)
// into columnar series — the per-second active-channels / CPU / blocking /
// SIP-rate curves that end-of-run aggregates hide. Two column flavours:
//   * gauge columns record the probe value as-is;
//   * rate columns record the per-second delta of a cumulative probe
//     (counter -> events/s).
// The sampler drives itself with a self-rescheduling simulator event, so it
// must be used with Simulator::run_until (or stop()ped) — under run() it
// would keep the queue alive forever.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace pbxcap::telemetry {

class TimeSeriesSampler {
 public:
  using Probe = std::function<double()>;

  TimeSeriesSampler() = default;
  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  /// Registers a level column (sampled value recorded directly).
  void add_gauge(std::string name, Probe probe);
  /// Registers a rate column: probe must be cumulative; the column records
  /// (probe(t) - probe(t - period)) / period_seconds.
  void add_rate(std::string name, Probe probe);

  /// Begins sampling; the first row lands at now + period. Columns must be
  /// registered before start().
  void start(sim::Simulator& simulator, Duration period = Duration::seconds(1));
  /// Cancels the pending tick; the series keeps its rows.
  void stop();

  [[nodiscard]] bool running() const noexcept { return tick_event_ != 0; }
  [[nodiscard]] Duration period() const noexcept { return period_; }
  [[nodiscard]] std::size_t rows() const noexcept { return at_ns_.size(); }
  [[nodiscard]] std::size_t columns() const noexcept { return columns_.size(); }
  [[nodiscard]] const std::string& column_name(std::size_t c) const {
    return columns_.at(c).name;
  }
  [[nodiscard]] double value(std::size_t column, std::size_t row) const {
    return columns_.at(column).values.at(row);
  }
  [[nodiscard]] TimePoint time(std::size_t row) const {
    return TimePoint::at(Duration::nanos(at_ns_.at(row)));
  }

  /// "time_s,<col>,..." CSV of the whole series, one row per sample.
  [[nodiscard]] std::string to_csv() const;

  /// Appends another sampler's columns after this one's. Both must be
  /// stopped with identical row timestamps (shards sample the same period
  /// over the same horizon, so their rows line up exactly); throws
  /// std::invalid_argument otherwise. Appending shards in a fixed order
  /// keeps the combined column order deterministic.
  void merge_columns(const TimeSeriesSampler& other);

 private:
  struct Column {
    std::string name;
    Probe probe;
    bool rate{false};
    double last{0.0};  // previous cumulative value for rate columns
    std::vector<double> values;
  };

  void tick();

  std::vector<Column> columns_;
  std::vector<std::int64_t> at_ns_;
  sim::Simulator* simulator_{nullptr};
  Duration period_{Duration::seconds(1)};
  sim::EventId tick_event_{0};
};

}  // namespace pbxcap::telemetry
