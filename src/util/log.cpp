#include "util/log.hpp"

#include <cstdio>
#include <mutex>

namespace pbxcap::util {

void log_warn(std::string_view component, std::string_view message) {
  static std::mutex mutex;
  const std::scoped_lock lock{mutex};
  std::fprintf(stderr, "[WARN ] %.*s: %.*s\n", static_cast<int>(component.size()),
               component.data(), static_cast<int>(message.size()), message.data());
}

}  // namespace pbxcap::util
