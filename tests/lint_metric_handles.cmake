# Fails when a metric handle (a pointer or reference to telemetry::Counter,
# Gauge or Histogram) appears in src/ outside src/telemetry/, or when a file
# under src/exp/ registers a metric (calls .counter(, .gauge( or
# .histogram(). Each fact is counted once, in a component's own members;
# that component's publish() copies it into the registry after the run, so
# no component holds a registry handle and the experiment front ends add no
# rows of their own.
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
    list(APPEND offenders "${rel}: metric handle")
  endif()
  if(rel MATCHES "^exp/")
    file(STRINGS "${source}" hits REGEX "(\\.|->)(counter|gauge|histogram)\\(")
    if(NOT hits STREQUAL "")
      list(APPEND offenders "${rel}: registers a metric")
    endif()
  endif()
endforeach()
if(offenders)
  list(JOIN offenders "\n  " listing)
  message(FATAL_ERROR "metrics registered outside their components (count in the component "
                      "and publish() after the run instead):\n  ${listing}")
endif()
list(LENGTH sources scanned)
message(STATUS "lint_metric_handles: no metric handles outside telemetry/ and no metric "
               "registered in exp/ (${scanned} files)")
