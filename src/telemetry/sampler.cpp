#include "telemetry/sampler.hpp"

#include <stdexcept>

#include "sim/profile.hpp"

#include "util/strings.hpp"

namespace pbxcap::telemetry {

void TimeSeriesSampler::add_gauge(std::string name, Probe probe) {
  if (running()) throw std::logic_error{"TimeSeriesSampler: add columns before start()"};
  columns_.push_back(Column{std::move(name), std::move(probe), /*rate=*/false, 0.0, {}});
}

void TimeSeriesSampler::add_rate(std::string name, Probe probe) {
  if (running()) throw std::logic_error{"TimeSeriesSampler: add columns before start()"};
  columns_.push_back(Column{std::move(name), std::move(probe), /*rate=*/true, 0.0, {}});
}

void TimeSeriesSampler::start(sim::Simulator& simulator, Duration period) {
  if (period <= Duration::zero()) {
    throw std::invalid_argument{"TimeSeriesSampler: period must be positive"};
  }
  if (running()) throw std::logic_error{"TimeSeriesSampler: already started"};
  simulator_ = &simulator;
  period_ = period;
  for (auto& column : columns_) {
    if (column.rate) column.last = column.probe();
  }
  const sim::CategoryScope cat_scope{*simulator_, sim::Category::kTimerWheel};
  tick_event_ = simulator_->schedule_in(period_, [this] { tick(); });
}

void TimeSeriesSampler::stop() {
  if (tick_event_ != 0 && simulator_ != nullptr) simulator_->cancel(tick_event_);
  tick_event_ = 0;
}

void TimeSeriesSampler::tick() {
  const double period_s = period_.to_seconds();
  at_ns_.push_back(simulator_->now().ns());
  for (auto& column : columns_) {
    const double v = column.probe();
    if (column.rate) {
      column.values.push_back((v - column.last) / period_s);
      column.last = v;
    } else {
      column.values.push_back(v);
    }
  }
  const sim::CategoryScope cat_scope{*simulator_, sim::Category::kTimerWheel};
  tick_event_ = simulator_->schedule_in(period_, [this] { tick(); });
}

void TimeSeriesSampler::merge_columns(const TimeSeriesSampler& other) {
  if (running() || other.running()) {
    throw std::logic_error{"TimeSeriesSampler::merge_columns: stop both samplers first"};
  }
  if (other.columns_.empty()) return;
  if (at_ns_.empty() && columns_.empty()) {
    at_ns_ = other.at_ns_;
  } else if (at_ns_ != other.at_ns_) {
    throw std::invalid_argument{"TimeSeriesSampler::merge_columns: row timestamps differ"};
  }
  for (const Column& column : other.columns_) {
    // Probes reference the other run's objects; keep only the recorded data.
    columns_.push_back(Column{column.name, nullptr, column.rate, column.last, column.values});
  }
}

std::string TimeSeriesSampler::to_csv() const {
  std::string out{"time_s"};
  for (const auto& column : columns_) {
    out += ',';
    out += column.name;
  }
  out += '\n';
  for (std::size_t row = 0; row < at_ns_.size(); ++row) {
    out += util::format("%.3f", static_cast<double>(at_ns_[row]) * 1e-9);
    for (const auto& column : columns_) {
      out += util::format(",%.6g", column.values[row]);
    }
    out += '\n';
  }
  return out;
}

}  // namespace pbxcap::telemetry
