// Central metrics registry: typed, exportable metrics.
//
// Metrics are registered once by (name, fixed label set) and addressed
// through typed handles afterwards: a hot-path update is a pointer
// dereference and an add, never a string hash or map lookup. Handle
// pointers stay valid for the registry's lifetime (deque storage).
// Registration order is deterministic (single-threaded simulation), so every
// exporter emits byte-identical output for identical-seed runs.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pbxcap::telemetry {

/// One `key="value"` pair of a metric's fixed label set.
struct Label {
  std::string key;
  std::string value;
};
using LabelSet = std::vector<Label>;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_{0};
};

/// Point-in-time level (active channels, queue depth, ...).
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double d) noexcept { value_ += d; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_{0.0};
};

/// Fixed-bucket histogram with explicit ascending upper bounds plus an
/// implicit +inf bucket — the Prometheus cumulative-bucket model. Use
/// log_linear_buckets() for latency-like quantities spanning decades
/// (setup delay, jitter) and linear_buckets() for bounded scores (MOS).
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double x) noexcept;

  /// Adds another histogram's observations bucket-by-bucket. Throws
  /// std::invalid_argument unless both have identical bounds.
  void merge(const Histogram& other);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  /// Finite upper bounds; counts() has one extra trailing +inf bucket.
  [[nodiscard]] const std::vector<double>& bounds() const noexcept { return bounds_; }
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const noexcept { return counts_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;  // bounds_.size() + 1 (last = +inf)
  std::uint64_t count_{0};
  double sum_{0.0};
};

/// Log-linear bucket ladder: `per_decade` evenly spaced bounds within each
/// power of ten from `min_upper` up to at least `max_upper`. E.g.
/// (1.0, 1000.0, 5) yields 1, 2.8, 4.6, 6.4, 8.2, 10, 28, 46, ... 1000.
[[nodiscard]] std::vector<double> log_linear_buckets(double min_upper, double max_upper,
                                                     int per_decade);

/// `n` evenly spaced upper bounds over (lo, hi].
[[nodiscard]] std::vector<double> linear_buckets(double lo, double hi, std::size_t n);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or finds) a metric; the returned reference stays valid for
  /// the registry's lifetime. Re-registering the same (name, labels) returns
  /// the same instance; `help` is kept from the first registration. A name
  /// may not be reused with a different kind.
  Counter& counter(std::string_view name, LabelSet labels = {}, std::string_view help = "");
  Gauge& gauge(std::string_view name, LabelSet labels = {}, std::string_view help = "");
  Histogram& histogram(std::string_view name, std::vector<double> upper_bounds,
                       LabelSet labels = {}, std::string_view help = "");

  /// One registered metric, in registration order (deterministic).
  struct Row {
    std::string name;
    LabelSet labels;
    std::string help;
    MetricKind kind{MetricKind::kCounter};
    const Counter* counter{nullptr};
    const Gauge* gauge{nullptr};
    const Histogram* histogram{nullptr};
  };
  [[nodiscard]] const std::vector<Row>& rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }

  /// Folds another registry into this one: counters add, gauges add,
  /// histograms bucket-merge (bounds must match when a name collides).
  /// Metrics absent here are registered in `other`'s row order, so absorbing
  /// shards in a fixed order yields a deterministic combined registry. Used
  /// by the sharded cluster run to merge per-backend registries.
  void absorb(const MetricsRegistry& other);

 private:
  std::size_t intern(std::string_view name, LabelSet& labels, std::string_view help,
                     MetricKind kind, bool& existed);

  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::vector<Row> rows_;
  std::map<std::string, std::size_t, std::less<>> by_key_;  // "name{k=v,...}" -> row index
};

}  // namespace pbxcap::telemetry
