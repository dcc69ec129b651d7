# Runs one bench binary and compares its stdout byte for byte with the
# committed golden next to this script. Registered per bench run by
# bench/CMakeLists.txt under the ctest label `bench_golden`:
#
#   ctest -L bench_golden --output-on-failure
#
# A bench that exits non-zero (one of its own gates failed) fails the test
# before any comparison. To regenerate the goldens after an intended output
# change, run the label with QUILT_UPDATE_GOLDEN=1 in the environment; each
# regeneration must be argued in CHANGES.md:
#
#   QUILT_UPDATE_GOLDEN=1 ctest -L bench_golden
#
# Inputs (-D): BENCH (binary), ARGS (;-list), GOLDEN (committed file),
# ACTUAL (where this run's stdout is kept for inspection).
execute_process(COMMAND ${BENCH} ${ARGS}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited with status ${status}")
endif()

if("$ENV{QUILT_UPDATE_GOLDEN}" STREQUAL "1")
  file(WRITE "${GOLDEN}" "${actual}")
  message(STATUS "rewrote ${GOLDEN}")
  return()
endif()

file(WRITE "${ACTUAL}" "${actual}")
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  execute_process(COMMAND diff -u "${GOLDEN}" "${ACTUAL}")
  message(FATAL_ERROR "stdout of ${BENCH} ${ARGS} differs from ${GOLDEN}")
endif()
