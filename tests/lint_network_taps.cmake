# Fails when a file under src/ other than monitor/trace.cpp installs a
# network tap (calls .add_tap( or ->add_tap(). The packet trace is the one
# observer of the wire; a model counts its own traffic in its own members
# (the PBX's NIC census counts in AsteriskPbx::on_receive and send_sip), so
# no model count rides on a per-hop callback.
#
# Usage: cmake -DSRC_DIR=<repo>/src -P lint_network_taps.cmake
if(NOT IS_DIRECTORY "${SRC_DIR}")
  message(FATAL_ERROR "lint_network_taps: SRC_DIR '${SRC_DIR}' is not a directory")
endif()
file(GLOB_RECURSE sources "${SRC_DIR}/*.cpp" "${SRC_DIR}/*.hpp")
set(offenders "")
foreach(source IN LISTS sources)
  file(RELATIVE_PATH rel "${SRC_DIR}" "${source}")
  if(rel STREQUAL "monitor/trace.cpp")
    continue()
  endif()
  file(STRINGS "${source}" hits REGEX "(\\.|->)add_tap\\(")
  if(NOT hits STREQUAL "")
    list(APPEND offenders "${rel}")
  endif()
endforeach()
if(offenders)
  list(JOIN offenders "\n  " listing)
  message(FATAL_ERROR "network taps outside monitor/trace.cpp (count in the component that "
                      "sends or receives instead):\n  ${listing}")
endif()
list(LENGTH sources scanned)
message(STATUS "lint_network_taps: only monitor/trace.cpp taps the network (${scanned} files)")
