#include "pbx/cpu_model.hpp"

#include <algorithm>
#include <stdexcept>

namespace pbxcap::pbx {

CpuModel::CpuModel(CpuModelConfig config, Duration bucket_width)
    : config_{config}, bucket_width_{bucket_width} {
  if (bucket_width <= Duration::zero()) {
    throw std::invalid_argument{"CpuModel: bucket width must be positive"};
  }
}

std::size_t CpuModel::bucket_of(TimePoint at) const noexcept {
  return static_cast<std::size_t>(at.ns() / bucket_width_.ns());
}

void CpuModel::deposit(TimePoint at, Duration work) {
  if (config_.overload_threshold < 1.0 && config_.overload_multiplier > 1.0 &&
      utilization_at(at) >= config_.overload_threshold) {
    work = Duration::from_seconds(work.to_seconds() * config_.overload_multiplier);
    ++overload_inflations_;
  }
  const std::size_t idx = bucket_of(at);
  if (idx >= buckets_.size()) buckets_.resize(idx + 1, Duration::zero());
  buckets_[idx] += work;
}

void CpuModel::on_rtp_packets(TimePoint first, Duration spacing, std::uint32_t count,
                              Duration extra) {
  if (count == 0) return;
  const Duration per_packet = config_.cost_per_rtp_packet + extra;
  if (spacing <= Duration::zero()) {
    for (std::uint32_t i = 0; i < count; ++i) deposit(first, per_packet);
    return;
  }
  const bool overload_mode =
      config_.overload_threshold < 1.0 && config_.overload_multiplier > 1.0;
  std::uint32_t done = 0;
  TimePoint t = first;
  while (done < count) {
    const std::size_t idx = bucket_of(t);
    if (overload_mode && utilization_at(t) >= config_.overload_threshold) {
      // Super-linear regime: the inflation decision is per packet (each
      // deposit can push the bucket further past the threshold), so the
      // closed form no longer applies. The fluid engine avoids entering
      // fluid mode near saturation; this path is a correctness backstop.
      deposit(t, per_packet);
      ++done;
      t = t + spacing;
      continue;
    }
    // Packets landing in bucket `idx`: arrivals t + k * spacing strictly
    // below the bucket's end. Integer-ns math, order-independent.
    const std::int64_t bucket_end_ns = static_cast<std::int64_t>(idx + 1) * bucket_width_.ns();
    std::int64_t in_bucket = (bucket_end_ns - 1 - t.ns()) / spacing.ns() + 1;
    in_bucket = std::min<std::int64_t>(in_bucket, count - done);
    const Duration work = per_packet * in_bucket;
    if (idx >= buckets_.size()) buckets_.resize(idx + 1, Duration::zero());
    buckets_[idx] += work;
    done += static_cast<std::uint32_t>(in_bucket);
    t = t + spacing * in_bucket;
  }
}

double CpuModel::utilization_at(TimePoint at) const {
  const std::size_t idx = bucket_of(at);
  const double work =
      idx < buckets_.size() ? buckets_[idx].to_seconds() : 0.0;
  return std::min(1.0, config_.base_utilization + work / bucket_width_.to_seconds());
}

stats::Summary CpuModel::utilization(TimePoint from, TimePoint to) const {
  if (to < from) throw std::invalid_argument{"CpuModel::utilization: to < from"};
  stats::Summary summary;
  const std::size_t first = bucket_of(from);
  const std::size_t last = bucket_of(to);
  for (std::size_t i = first; i < last; ++i) {
    const double work = i < buckets_.size() ? buckets_[i].to_seconds() : 0.0;
    summary.add(std::min(1.0, config_.base_utilization + work / bucket_width_.to_seconds()));
  }
  return summary;
}

}  // namespace pbxcap::pbx
