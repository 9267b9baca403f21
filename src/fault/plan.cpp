#include "fault/plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "util/strings.hpp"

namespace pbxcap::fault {

namespace {

[[noreturn]] void fail(std::size_t line_no, std::string_view line, const char* why) {
  throw std::invalid_argument{util::format("FaultPlan line %zu: %s: '%.*s'", line_no, why,
                                           static_cast<int>(line.size()), line.data())};
}

bool parse_double(std::string_view token, double& out) {
  if (token.empty()) return false;
  const std::string buf{token};
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || !std::isfinite(value)) return false;
  out = value;
  return true;
}

bool parse_bool(std::string_view token, bool& out) {
  if (util::iequals(token, "on") || util::iequals(token, "true") || token == "1") {
    out = true;
    return true;
  }
  if (util::iequals(token, "off") || util::iequals(token, "false") || token == "0") {
    out = false;
    return true;
  }
  return false;
}

std::vector<std::string_view> words(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < s.size() && s[j] != ' ' && s[j] != '\t') ++j;
    if (j > i) out.push_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

// Overlay one `key=value` pair onto the impairment being built.
bool apply_pair(net::LinkImpairment& imp, std::string_view key, std::string_view value) {
  if (key == "loss") {
    double p = 0.0;
    if (!parse_double(value, p) || p < 0.0 || p > 1.0) return false;
    imp.loss_probability = p;
    return true;
  }
  if (key == "bandwidth") {
    double bps = 0.0;
    if (!parse_double(value, bps) || bps <= 0.0) return false;
    imp.bandwidth_bps = bps;
    return true;
  }
  if (key == "propagation" || key == "jitter_mean" || key == "jitter_stddev") {
    Duration d{};
    if (!parse_duration(value, d)) return false;
    if (key == "propagation") imp.propagation = d;
    if (key == "jitter_mean") imp.jitter_mean = d;
    if (key == "jitter_stddev") imp.jitter_stddev = d;
    return true;
  }
  if (key == "queue_limit") {
    std::uint64_t n = 0;
    if (!util::parse_u64(value, n) || n == 0) return false;
    imp.queue_limit_packets = static_cast<std::uint32_t>(n);
    return true;
  }
  if (key == "blackout") {
    bool on = false;
    if (!parse_bool(value, on)) return false;
    imp.blackout = on;
    return true;
  }
  return false;
}

}  // namespace

const char* to_string(LinkTarget target) noexcept {
  switch (target) {
    case LinkTarget::kClient: return "client";
    case LinkTarget::kServer: return "server";
    case LinkTarget::kPbx: return "pbx";
  }
  return "?";
}

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kLink: return "link";
    case FaultKind::kStall: return "stall";
    case FaultKind::kCrash: return "crash";
  }
  return "?";
}

bool parse_duration(std::string_view token, Duration& out) {
  if (token.empty()) return false;
  double scale = 1.0;
  std::string_view digits = token;
  const auto strip = [&](std::string_view suffix, double s) {
    if (digits.size() > suffix.size() && digits.substr(digits.size() - suffix.size()) == suffix) {
      digits = digits.substr(0, digits.size() - suffix.size());
      scale = s;
      return true;
    }
    return false;
  };
  // Longest suffixes first so "ms" is not read as "m" + stray 's'.
  if (!strip("ns", 1e-9) && !strip("us", 1e-6) && !strip("ms", 1e-3) && !strip("s", 1.0) &&
      !strip("m", 60.0)) {
    return false;  // unit is mandatory: bare numbers are too easy to misread
  }
  double value = 0.0;
  if (!parse_double(digits, value) || value < 0.0) return false;
  // The clock is int64 nanoseconds: a longer span has no representation.
  if (value * scale >= Duration::max().to_seconds()) return false;
  out = Duration::from_seconds(value * scale);
  return true;
}

void FaultPlan::add(FaultEvent event) {
  // Keep the schedule sorted; stable insert preserves same-time order.
  const auto pos = std::upper_bound(
      events_.begin(), events_.end(), event,
      [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  events_.insert(pos, std::move(event));
}

FaultPlan FaultPlan::parse(std::string_view text) {
  FaultPlan plan;
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::string_view raw =
        text.substr(start, nl == std::string_view::npos ? text.size() - start : nl - start);
    start = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;

    const std::string_view line = util::trim(raw);
    if (line.empty() || line.front() == '#') continue;
    if (line.front() != '@') fail(line_no, line, "expected '@<time> ...'");

    const auto tokens = words(line);
    if (tokens.size() < 3) fail(line_no, line, "too few fields");

    FaultEvent ev;
    if (!parse_duration(tokens[0].substr(1), ev.at)) {
      fail(line_no, line, "bad time (need e.g. @10s, @500ms)");
    }

    if (tokens[1] == "link") {
      ev.kind = FaultKind::kLink;
      if (tokens[2] == "client") {
        ev.target = LinkTarget::kClient;
      } else if (tokens[2] == "server") {
        ev.target = LinkTarget::kServer;
      } else if (tokens[2] == "pbx") {
        ev.target = LinkTarget::kPbx;
      } else {
        fail(line_no, line, "unknown link target (client|server|pbx)");
      }
      if (tokens.size() < 4) fail(line_no, line, "link directive needs key=value pairs");
      for (std::size_t i = 3; i < tokens.size(); ++i) {
        const auto [key, value, found] = util::split_once(tokens[i], '=');
        if (!found || !apply_pair(ev.change, key, value)) {
          fail(line_no, line, "bad key=value pair");
        }
      }
    } else if (tokens[1] == "pbx") {
      if (tokens[2] == "stall") {
        ev.kind = FaultKind::kStall;
        if (tokens.size() != 4 || !parse_duration(tokens[3], ev.duration) ||
            ev.duration <= Duration::zero()) {
          fail(line_no, line, "stall needs a positive duration, e.g. 'pbx stall 2s'");
        }
      } else if (tokens[2] == "crash") {
        ev.kind = FaultKind::kCrash;
        if (tokens.size() != 4) fail(line_no, line, "crash needs 'dead=<duration>'");
        const auto [key, value, found] = util::split_once(tokens[3], '=');
        if (!found || key != "dead" || !parse_duration(value, ev.duration) ||
            ev.duration <= Duration::zero()) {
          fail(line_no, line, "crash needs 'dead=<duration>'");
        }
      } else {
        fail(line_no, line, "unknown pbx directive (stall|crash)");
      }
    } else {
      fail(line_no, line, "unknown directive (link|pbx)");
    }
    plan.add(ev);
  }
  return plan;
}

}  // namespace pbxcap::fault
