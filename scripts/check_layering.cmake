# Layering check: the timed components (src/mem, src/accel, src/vm,
# src/soc) keep plain Stats and know nothing of the metrics registry;
# telemetry pulls their counts through Soc::counts(). Fails if any file
# there includes src/metrics/ or names metrics::.
#
#   cmake -DSRC_DIR=<repo>/src -P scripts/check_layering.cmake
if(NOT SRC_DIR)
  message(FATAL_ERROR "usage: cmake -DSRC_DIR=<repo>/src -P check_layering.cmake")
endif()

cmake_minimum_required(VERSION 3.16)

set(offenders "")
foreach(dir mem accel vm soc)
  file(GLOB_RECURSE files "${SRC_DIR}/${dir}/*.h" "${SRC_DIR}/${dir}/*.cc")
  if(NOT files)
    message(FATAL_ERROR "no sources under ${SRC_DIR}/${dir}")
  endif()
  foreach(f IN LISTS files)
    file(STRINGS "${f}" hits REGEX "src/metrics/|metrics::")
    if(hits)
      string(APPEND offenders "\n  ${f}")
    endif()
  endforeach()
endforeach()

if(offenders)
  message(FATAL_ERROR "timed components must not include src/metrics/ "
                      "or name metrics:: —${offenders}")
endif()
message(STATUS "layering: src/{mem,accel,vm,soc} do not depend on src/metrics/")
