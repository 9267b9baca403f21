// Telemetry facade — one object per simulation run bundling the metrics
// registry, the sim-time sampler, and the span tracer.
//
// Components take a nullable `Telemetry*` via set_telemetry(): with nullptr
// they register nothing and every instrumentation site reduces to one
// predictable null-handle branch, which is not measured on its own
// (perfbench's telemetry.overhead_pct measures the enabled cost). Not
// thread-safe: like the Simulator, each run owns its own instance;
// parallelism happens across runs.
#pragma once

#include <cstddef>
#include <memory>

#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/span.hpp"
#include "util/time.hpp"

namespace pbxcap::telemetry {

struct Config {
  /// Span tracing can be switched off independently (the ring costs memory).
  bool tracing{true};
  /// Event-engine profiling (per-category counts + sampled latency) is off
  /// by default: even one increment per fire is measurable at 50M ev/s.
  bool profiling{false};
  Duration sample_period{Duration::seconds(1)};
};

class Telemetry {
 public:
  explicit Telemetry(Config config = {})
      : config_{config},
        tracer_{config.tracing ? std::make_unique<SpanTracer>() : nullptr},
        profiler_{config.profiling ? std::make_unique<Profiler>() : nullptr} {}

  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] MetricsRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] const MetricsRegistry& registry() const noexcept { return registry_; }
  [[nodiscard]] TimeSeriesSampler& sampler() noexcept { return sampler_; }
  [[nodiscard]] const TimeSeriesSampler& sampler() const noexcept { return sampler_; }
  /// Null when tracing is disabled.
  [[nodiscard]] SpanTracer* tracer() noexcept { return tracer_.get(); }
  [[nodiscard]] const SpanTracer* tracer() const noexcept { return tracer_.get(); }
  /// Null when profiling is disabled.
  [[nodiscard]] Profiler* profiler() noexcept { return profiler_.get(); }
  [[nodiscard]] const Profiler* profiler() const noexcept { return profiler_.get(); }

 private:
  Config config_;
  MetricsRegistry registry_;
  TimeSeriesSampler sampler_;
  std::unique_ptr<SpanTracer> tracer_;
  std::unique_ptr<Profiler> profiler_;
};

}  // namespace pbxcap::telemetry
