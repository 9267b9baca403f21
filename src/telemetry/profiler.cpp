#include "telemetry/profiler.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/strings.hpp"

namespace pbxcap::telemetry {

void Profiler::attach(sim::Simulator& simulator) {
  if (simulator_ != nullptr) throw std::logic_error{"Profiler: already attached"};
  simulator_ = &simulator;
  attached_processed_ = simulator.events_processed();
  simulator.set_profile(&profile_);
}

void Profiler::detach() {
  if (simulator_ == nullptr) return;
  stop_series();
  simulator_->set_profile(nullptr);
  latched_processed_ += simulator_->events_processed() - attached_processed_;
  simulator_ = nullptr;
}

void Profiler::start_series(Duration period) {
  if (simulator_ == nullptr) throw std::logic_error{"Profiler: attach before start_series"};
  if (period <= Duration::zero()) {
    throw std::invalid_argument{"Profiler: series period must be positive"};
  }
  if (tick_event_ != 0) throw std::logic_error{"Profiler: series already started"};
  series_period_ = period;
  for (std::size_t i = 0; i < sim::ExecProfile::kMaxCategories; ++i) {
    last_counts_[i] = profile_.counts[i];
  }
  const sim::Simulator::CategoryScope scope{
      *simulator_, static_cast<std::uint8_t>(sim::Category::kTimerWheel)};
  tick_event_ = simulator_->schedule_in(period, [this] { tick(); });
}

void Profiler::stop_series() {
  if (tick_event_ != 0 && simulator_ != nullptr) simulator_->cancel(tick_event_);
  tick_event_ = 0;
}

void Profiler::tick() {
  SeriesRow row;
  row.at_ns = simulator_->now().ns();
  for (std::size_t i = 0; i < sim::ExecProfile::kMaxCategories; ++i) {
    const std::uint64_t now = profile_.counts[i];
    row.deltas[i] = now - last_counts_[i];
    last_counts_[i] = now;
  }
  series_.push_back(row);
  // The tick fires inside a timer-wheel-categorized event, so the reschedule
  // inherits the right category without an explicit scope.
  tick_event_ = simulator_->schedule_in(series_period_, [this] { tick(); });
}

ProfileData Profiler::snapshot() const {
  ProfileData data;
  data.categories.reserve(sim::kCategoryCount);
  for (std::size_t cat = 0; cat < sim::kCategoryCount; ++cat) {
    data.categories.push_back(ProfileData::Category{
        sim::category_name(static_cast<std::uint8_t>(cat)), profile_.stats(cat)});
  }
  data.events_processed = latched_processed_;
  if (simulator_ != nullptr) {
    data.events_processed += simulator_->events_processed() - attached_processed_;
  }
  return data;
}

void ProfileData::merge(const ProfileData& other) {
  if (categories.size() < other.categories.size()) {
    categories.resize(other.categories.size());
  }
  for (std::size_t i = 0; i < other.categories.size(); ++i) {
    if (categories[i].name.empty()) {
      categories[i].name = other.categories[i].name;
    } else if (categories[i].name != other.categories[i].name) {
      throw std::invalid_argument{"ProfileData::merge: category tables diverge at \"" +
                                  categories[i].name + "\" vs \"" + other.categories[i].name +
                                  "\""};
    }
    categories[i].stats.merge(other.categories[i].stats);
  }
  events_processed += other.events_processed;
}

namespace {

std::string category_json(const ProfileData::Category& cat, std::uint64_t total,
                          bool include_timing) {
  const double share =
      total == 0 ? 0.0 : static_cast<double>(cat.stats.events) / static_cast<double>(total);
  std::string out = util::format("{\"name\":\"%s\",\"events\":%llu,\"share\":%.6f",
                                 cat.name.c_str(),
                                 static_cast<unsigned long long>(cat.stats.events), share);
  if (include_timing) {
    out += util::format(",\"timed_samples\":%llu,\"timed_ns\":%llu",
                        static_cast<unsigned long long>(cat.stats.timed_samples),
                        static_cast<unsigned long long>(cat.stats.timed_ns));
    out += ",\"latency_log2_ns\":[";
    for (std::size_t i = 0; i < cat.stats.latency_log2.size(); ++i) {
      if (i != 0) out += ',';
      out += util::format("%llu", static_cast<unsigned long long>(cat.stats.latency_log2[i]));
    }
    out += ']';
  }
  out += '}';
  return out;
}

}  // namespace

std::string to_json(const ProfileData& data, bool include_timing) {
  const std::uint64_t total = data.total_events();
  std::string out = util::format("{\"events_processed\":%llu,\"categories\":[",
                                 static_cast<unsigned long long>(data.events_processed));
  for (std::size_t i = 0; i < data.categories.size(); ++i) {
    if (i != 0) out += ',';
    out += category_json(data.categories[i], total, include_timing);
  }
  out += "]}\n";
  return out;
}

std::string to_chrome_counter_trace(const Profiler& profiler) {
  std::string out{"{\"traceEvents\":[\n"};
  out += "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"pbxcap profile\"}}";
  const double period_s = profiler.series_period().to_seconds();
  for (const Profiler::SeriesRow& row : profiler.series()) {
    for (std::size_t cat = 0; cat < sim::ExecProfile::kMaxCategories; ++cat) {
      if (row.deltas[cat] == 0) continue;
      const double per_s = period_s <= 0.0
                               ? static_cast<double>(row.deltas[cat])
                               : static_cast<double>(row.deltas[cat]) / period_s;
      out += util::format(
          ",\n{\"ph\":\"C\",\"pid\":1,\"name\":\"events/s\",\"ts\":%.3f,\"args\":{\"%s\":%.1f}}",
          static_cast<double>(row.at_ns) / 1e3,
          sim::category_name(static_cast<std::uint8_t>(cat)), per_s);
    }
  }
  out += "\n]}\n";
  return out;
}

std::string top_table(const ProfileData& data, std::size_t top_n) {
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < data.categories.size(); ++i) {
    if (data.categories[i].stats.events != 0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const std::uint64_t ea = data.categories[a].stats.events;
    const std::uint64_t eb = data.categories[b].stats.events;
    return ea != eb ? ea > eb : a < b;
  });
  if (order.size() > top_n) order.resize(top_n);

  const std::uint64_t total = data.total_events();
  std::string out = util::format("%-18s %14s %8s %12s %14s\n", "category", "events", "share",
                                 "sampled", "mean ns/event");
  for (const std::size_t i : order) {
    const ProfileData::Category& cat = data.categories[i];
    const double share =
        total == 0 ? 0.0 : 100.0 * static_cast<double>(cat.stats.events) / static_cast<double>(total);
    const std::string mean =
        cat.stats.timed_samples == 0
            ? std::string{"-"}
            : util::format("%.0f", static_cast<double>(cat.stats.timed_ns) /
                                       static_cast<double>(cat.stats.timed_samples));
    out += util::format("%-18s %14llu %7.2f%% %12llu %14s\n", cat.name.c_str(),
                        static_cast<unsigned long long>(cat.stats.events), share,
                        static_cast<unsigned long long>(cat.stats.timed_samples), mean.c_str());
  }
  out += util::format("%-18s %14llu %7.2f%% (events_processed %llu)\n", "total",
                      static_cast<unsigned long long>(total), total == 0 ? 0.0 : 100.0,
                      static_cast<unsigned long long>(data.events_processed));
  return out;
}

std::string attribution_json(const std::vector<ShardProfile>& shards) {
  std::uint64_t fleet_total = 0;
  for (const ShardProfile& shard : shards) fleet_total += shard.data.total_events();

  ProfileData total;
  std::string out{"{\"shards\":[\n"};
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const ShardProfile& shard = shards[s];
    if (s != 0) out += ",\n";
    const std::uint64_t events = shard.data.total_events();
    const double share =
        fleet_total == 0 ? 0.0 : static_cast<double>(events) / static_cast<double>(fleet_total);
    out += util::format("{\"shard\":\"%s\",\"events\":%llu,\"share\":%.6f,\"categories\":{",
                        shard.name.c_str(), static_cast<unsigned long long>(events), share);
    bool first = true;
    for (const ProfileData::Category& cat : shard.data.categories) {
      if (cat.stats.events == 0) continue;
      if (!first) out += ',';
      first = false;
      out += util::format("\"%s\":%llu", cat.name.c_str(),
                          static_cast<unsigned long long>(cat.stats.events));
    }
    out += "}}";
    total.merge(shard.data);
  }
  out += "\n],\"total\":";
  out += to_json(total);
  // to_json ends with a newline; fold it back into the enclosing object.
  while (!out.empty() && out.back() == '\n') out.pop_back();
  out += "}\n";
  return out;
}

}  // namespace pbxcap::telemetry
