// Warning logger.
//
// The simulation is deterministic and single-threaded per run, but experiment
// replications run on several threads, so emission is serialized with a
// mutex. Warnings are the only level: nothing else is printed, so bench
// output stays clean.
#pragma once

#include <string_view>

namespace pbxcap::util {

/// Prints "[WARN ] component: message" to stderr.
void log_warn(std::string_view component, std::string_view message);

}  // namespace pbxcap::util
