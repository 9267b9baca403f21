# Fails when a metric handle (a pointer or reference to telemetry::Counter,
# Gauge or Histogram) appears in src/ outside src/telemetry/. Each fact is
# counted once, in a component's own members; publish() copies it into the
# registry after the run, so no component holds a registry handle.
#
# Usage: cmake -DSRC_DIR=<repo>/src -P lint_metric_handles.cmake
if(NOT IS_DIRECTORY "${SRC_DIR}")
  message(FATAL_ERROR "lint_metric_handles: SRC_DIR '${SRC_DIR}' is not a directory")
endif()
file(GLOB_RECURSE sources "${SRC_DIR}/*.cpp" "${SRC_DIR}/*.hpp")
set(offenders "")
foreach(source IN LISTS sources)
  file(RELATIVE_PATH rel "${SRC_DIR}" "${source}")
  if(rel MATCHES "^telemetry/")
    continue()
  endif()
  file(STRINGS "${source}" hits REGEX "telemetry::(Counter|Gauge|Histogram)[ \t]*(\\*|&)")
  if(NOT hits STREQUAL "")
    list(APPEND offenders "${rel}")
  endif()
endforeach()
if(offenders)
  list(JOIN offenders "\n  " listing)
  message(FATAL_ERROR "metric handles outside src/telemetry/ (count in the component and "
                      "publish() after the run instead):\n  ${listing}")
endif()
list(LENGTH sources scanned)
message(STATUS "lint_metric_handles: no metric handles outside telemetry/ (${scanned} files)")
