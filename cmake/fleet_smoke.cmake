# Telemetry smoke test, run as a ctest via `cmake -P`.
#
# Drives the real CLI end to end: a small fleet crawl that writes both
# telemetry artifacts, then the CLI's own validator on the results. Runs
# in every build flavor (including the sanitizer configs), so the whole
# instrumented pipeline gets exercised under TSan/ASan too. The plain
# run (no CHAOS, no POPULATION) also checks that the worker count never
# changes a report byte.
#
# Expected variables:
#   CLI     - path to the panoptes_cli executable
#   OUT_DIR - scratch directory for the telemetry artifacts
#   CHAOS   - optional: when set, run under the "flaky" fault profile
#             with retries armed and validate the run manifest too
#   POPULATION - optional: when set, run a --population 32 device-cohort
#             campaign and require the cohort breakdown in the reports

if(NOT DEFINED CLI OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "fleet_smoke.cmake needs -DCLI=... and -DOUT_DIR=...")
endif()

file(MAKE_DIRECTORY "${OUT_DIR}")
set(metrics_file "${OUT_DIR}/metrics.prom")
set(trace_file "${OUT_DIR}/trace.json")
set(manifest_file "${OUT_DIR}/manifest.json")
file(REMOVE "${metrics_file}" "${trace_file}" "${manifest_file}")

set(fleet_args fleet --jobs 2 --sites 6 --shards 2
    --browsers Yandex,DuckDuckGo
    --metrics-out "${metrics_file}" --trace-out "${trace_file}")
set(artifacts "${metrics_file}" "${trace_file}")
set(validate_args --metrics "${metrics_file}" --trace "${trace_file}")
if(CHAOS)
  list(APPEND fleet_args --chaos-profile flaky --max-retries 2
       --manifest-out "${manifest_file}")
  list(APPEND artifacts "${manifest_file}")
  list(APPEND validate_args --manifest "${manifest_file}")
endif()
if(POPULATION)
  set(json_file "${OUT_DIR}/report.json")
  set(csv_file "${OUT_DIR}/report.csv")
  file(REMOVE "${json_file}" "${csv_file}")
  list(APPEND fleet_args --population 32 --population-seed 20231024
       --json "${json_file}" --csv "${csv_file}")
  list(APPEND artifacts "${json_file}" "${csv_file}")
endif()

execute_process(
  COMMAND "${CLI}" ${fleet_args}
  RESULT_VARIABLE fleet_rc
  OUTPUT_VARIABLE fleet_out
  ERROR_VARIABLE fleet_err)
if(NOT fleet_rc EQUAL 0)
  message(FATAL_ERROR
      "panoptes_cli fleet failed (rc=${fleet_rc})\n${fleet_out}${fleet_err}")
endif()

foreach(artifact IN LISTS artifacts)
  if(NOT EXISTS "${artifact}")
    message(FATAL_ERROR "fleet did not write ${artifact}\n${fleet_out}")
  endif()
endforeach()

if(POPULATION)
  # The cohort breakdown must actually land in the artifacts: the JSON
  # report carries per-entry cohort objects plus the population-weighted
  # aggregate block, the CSV the cohort columns.
  file(READ "${json_file}" json_content)
  string(FIND "${json_content}" "\"population\"" population_at)
  string(FIND "${json_content}" "\"cohort\"" cohort_at)
  if(population_at EQUAL -1 OR cohort_at EQUAL -1)
    message(FATAL_ERROR "population fleet report lacks cohort breakdown")
  endif()
  file(READ "${csv_file}" csv_content)
  string(FIND "${csv_content}" "cohort" csv_cohort_at)
  if(csv_cohort_at EQUAL -1)
    message(FATAL_ERROR "population fleet CSV lacks cohort columns")
  endif()
endif()

execute_process(
  COMMAND "${CLI}" validate-telemetry ${validate_args}
  RESULT_VARIABLE validate_rc
  OUTPUT_VARIABLE validate_out
  ERROR_VARIABLE validate_err)
if(NOT validate_rc EQUAL 0)
  message(FATAL_ERROR
      "validate-telemetry failed (rc=${validate_rc})\n"
      "${validate_out}${validate_err}")
endif()

# Worker count must not change a byte: without --shards, --jobs 1 and
# --jobs 4 run the same plan and emit identical JSON and CSV reports.
if(NOT CHAOS AND NOT POPULATION)
  foreach(jobs 1 4)
    execute_process(
      COMMAND "${CLI}" fleet --jobs ${jobs} --sites 6
        --browsers Yandex,DuckDuckGo --idle
        --json "${OUT_DIR}/jobs${jobs}.json" --csv "${OUT_DIR}/jobs${jobs}.csv"
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
          "fleet --jobs ${jobs} failed (rc=${rc})\n${out}${err}")
    endif()
  endforeach()
  foreach(ext json csv)
    file(READ "${OUT_DIR}/jobs1.${ext}" one)
    file(READ "${OUT_DIR}/jobs4.${ext}" four)
    if(NOT one STREQUAL four)
      message(FATAL_ERROR "fleet --jobs 1 and --jobs 4 ${ext} reports differ")
    endif()
  endforeach()
endif()

message(STATUS "fleet telemetry smoke ok:\n${validate_out}")
