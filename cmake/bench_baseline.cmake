# Baseline gate for one bench, run as a ctest via `cmake -P` (label
# `baseline`).
#
# Runs the bench at the CI contract, so it writes BENCH_<name>.json
# into OUT_DIR, then holds that report to the checked-in baseline with
# `panoptes_cli baseline-check`. A stale pin fails here, in tier-1,
# before it can fail CI. The pins are all this test holds: it sets
# PANOPTES_BENCH_LAX_TIMING, so stream_ingest skips its wall-clock
# throughput band, which a loaded machine can miss (CI's baseline-gate
# job runs that band on its own).
#
# Expected variables:
#   BENCH    - path to the bench executable
#   CLI      - path to the panoptes_cli executable
#   BASELINE - checked-in bench/baselines/BENCH_<name>.json
#   OUT_DIR  - directory the bench writes its report into
# Optional:
#   SITES    - PANOPTES_SITES for crawl-derived benches
#   ARGS     - extra bench arguments (e.g. --benchmark_min_time=0.05)

foreach(var BENCH CLI BASELINE OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_baseline.cmake needs -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY "${OUT_DIR}")
get_filename_component(report_name "${BASELINE}" NAME)
file(REMOVE "${OUT_DIR}/${report_name}")

set(ENV{PANOPTES_BENCH_OUT} "${OUT_DIR}")
set(ENV{PANOPTES_BENCH_LAX_TIMING} 1)
if(DEFINED SITES)
  set(ENV{PANOPTES_SITES} "${SITES}")
endif()
separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${BENCH}" ${bench_args}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} failed (rc=${rc})\n${out}${err}")
endif()

execute_process(
  COMMAND "${CLI}" baseline-check
    --baseline "${BASELINE}" --current "${OUT_DIR}/${report_name}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "baseline-check failed (rc=${rc})\n${out}${err}")
endif()
