// Telemetry facade — one object per simulation run bundling the metrics
// registry, the sim-time sampler, and the span tracer.
//
// Metrics are counted once, by the model: each component keeps its own
// counters and copies them into the registry in publish(), which
// exp::Experiment::run() calls once, after the run; it is the only caller,
// and the experiment front ends add no rows, so a graph exports the same
// rows whichever front end built it. Registry rows therefore exist only
// after run(), and nothing reads the registry mid-run: the sampler's probes
// read the model directly. Components take a nullable
// `Telemetry*` via set_telemetry() only to wire the span tracer; nullptr
// records no spans. Not thread-safe: like the Simulator, each run owns its
// own instance; parallelism happens across runs.
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
