# Perf-regression gate: re-runs a perf_engine benchmark selection and fails
# if any benchmark regressed more than PERF_TOLERANCE percent against the
# committed baseline JSON.  Invoked as a CTest command:
#
#   cmake -DPERF_ENGINE=<perf_engine binary> -DPERF_FILTER=<regex>
#         -DCURRENT_JSON=<build-tree json> -DBASELINE_JSON=<committed json>
#         -DDIV_BUILD_TYPE=<config> -DDIV_HOST_TUNED=<ON/OFF>
#         [-DPERF_REPETITIONS=<n>] [-DPERF_TOLERANCE=<pct>]
#         [-DRATIO_SLOW=<bench> -DRATIO_FAST=<bench> -DRATIO_FLOOR=<x>]
#         -P bench_compare.cmake
#
# Policy:
#   * Non-Release builds print [SKIP-PERF-GATE] and run nothing -- timing a
#     debug library proves nothing about regressions, and the CTest
#     SKIP_REGULAR_EXPRESSION property turns the marker into a skip, not a
#     pass.
#   * Builds without host-tuned codegen (DIV_MARCH_NATIVE=OFF, i.e. any
#     tree but the perf preset's build-perf/) also skip: the committed
#     baselines are minted host-tuned (perf_smoke.cmake refuses to archive
#     anything else), so an untuned re-time would compare different codegen
#     and report phantom regressions -- or mask real ones.
#   * A missing baseline passes: the gate's job is to protect committed
#     numbers, not to demand them before they exist.  Run the `perf` test
#     preset to mint a baseline (it archives BENCH_*.json at the source
#     root through the same honesty gate).
#   * Comparison is per benchmark on the MINIMUM cpu_time over repetition
#     runs, so wall-clock noise from a loaded host is damped twice: host
#     noise is strictly additive (the min filters it), and CPU time rather
#     than real time is compared across runs.
#   * A regression must survive a DOUBLE-CHECK: if any benchmark exceeds
#     the tolerance, the whole selection is re-run once and only benchmarks
#     over tolerance in BOTH runs fail the gate.  A genuine code regression
#     persists across back-to-back runs; a noisy-neighbor spike minutes
#     apart does not, so the re-run squares the false-alarm probability
#     away without loosening the threshold a real slowdown must beat.
#   * Optional same-run ratio: with RATIO_SLOW/RATIO_FAST/RATIO_FLOOR set,
#     the slow benchmark's min cpu_time must be at least RATIO_FLOOR times
#     the fast one's, both timed in the same selection run.  A ratio needs
#     no baseline, so it is checked even where none is committed, and a
#     miss gets the same double-check as a regression.
cmake_minimum_required(VERSION 3.24)

if(NOT DEFINED PERF_TOLERANCE)
  set(PERF_TOLERANCE 15)
endif()
if(NOT DEFINED DIV_BUILD_TYPE)
  set(DIV_BUILD_TYPE "")
endif()
if(NOT DIV_BUILD_TYPE STREQUAL "Release")
  message(STATUS
    "[SKIP-PERF-GATE] perf gate needs a Release library build, got "
    "'${DIV_BUILD_TYPE}' -- use the perf preset (cmake --preset perf).")
  return()
endif()
if(NOT DEFINED DIV_HOST_TUNED)
  set(DIV_HOST_TUNED OFF)
endif()
if(NOT DIV_HOST_TUNED)
  message(STATUS
    "[SKIP-PERF-GATE] perf gate needs host-tuned codegen to match the "
    "committed baselines (DIV_MARCH_NATIVE=ON) -- use the perf preset "
    "(cmake --preset perf).")
  return()
endif()
set(CHECK_RATIO FALSE)
if(DEFINED RATIO_SLOW OR DEFINED RATIO_FAST OR DEFINED RATIO_FLOOR)
  if(NOT (DEFINED RATIO_SLOW AND DEFINED RATIO_FAST AND DEFINED RATIO_FLOOR))
    message(FATAL_ERROR
      "perf gate: RATIO_SLOW, RATIO_FAST and RATIO_FLOOR go together")
  endif()
  set(CHECK_RATIO TRUE)
endif()
if(EXISTS "${BASELINE_JSON}")
  set(HAVE_BASELINE TRUE)
else()
  set(HAVE_BASELINE FALSE)
  if(NOT CHECK_RATIO)
    message(STATUS
      "no committed baseline at ${BASELINE_JSON}; gate passes vacuously. "
      "Run the 'perf' test preset to archive one.")
    return()
  endif()
endif()

if(NOT DEFINED PERF_MIN_TIME)
  set(PERF_MIN_TIME 0.05)
endif()
# Runs the benchmark selection once, writing google-benchmark JSON to
# `out_json`.
function(run_selection out_json)
  set(args
    "--benchmark_filter=${PERF_FILTER}"
    "--benchmark_min_time=${PERF_MIN_TIME}"
    "--benchmark_enable_random_interleaving=true"
    "--benchmark_out=${out_json}"
    "--benchmark_out_format=json")
  if(DEFINED PERF_REPETITIONS)
    list(APPEND args "--benchmark_repetitions=${PERF_REPETITIONS}")
  endif()
  execute_process(
    COMMAND "${PERF_ENGINE}" ${args}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "perf_engine gate run failed with status ${rc}")
  endif()
endfunction()

# Converts a JSON number -- plain ("123"), decimal ("123.45") or
# scientific ("1.2345e+03", benchmark's usual cpu_time form) -- to a
# non-negative integer in MILLI-units (the value times 1000, truncated):
# CMake math is 64-bit integer only, and whole units are too coarse for
# millisecond-scale benchmarks (1.6 vs 1.7 ms must not read as 1 vs 2).
# Comparisons stay unit-agnostic because both files use each benchmark's
# fixed time_unit.
function(json_number_to_int value outvar)
  if(NOT value MATCHES "^([0-9]+)(\\.([0-9]*))?([eE]\\+?(-?[0-9]+))?$")
    message(FATAL_ERROR "unparseable benchmark number: '${value}'")
  endif()
  set(int_part "${CMAKE_MATCH_1}")
  set(frac "${CMAKE_MATCH_3}")
  set(exp "${CMAKE_MATCH_5}")
  if(exp STREQUAL "")
    set(exp 0)
  endif()
  # Strip leading zeros ("-03", "06") before math(EXPR) sees them.  NOTE:
  # string(REGEX REPLACE) is unusable for this -- CMake re-anchors ^ after
  # every replacement, so "^0+(.)" applied to "0708" yields "78", not "708".
  string(REGEX REPLACE "^-" "" exp_abs "${exp}")
  while(exp_abs MATCHES "^0[0-9]")
    string(SUBSTRING "${exp_abs}" 1 -1 exp_abs)
  endwhile()
  if(exp MATCHES "^-")
    set(exp "-${exp_abs}")
  else()
    set(exp "${exp_abs}")
  endif()
  # Shift the decimal point `exp` + 3 digits right within the digit string
  # (+3 is the milli-unit scaling).
  set(digits "${int_part}${frac}")
  string(LENGTH "${int_part}" point)
  math(EXPR point "${point} + ${exp} + 3")
  string(LENGTH "${digits}" len)
  if(point LESS_EQUAL 0)
    set(result 0)
  elseif(point GREATER_EQUAL len)
    math(EXPR pad "${point} - ${len}")
    set(result "${digits}")
    if(pad GREATER 0)
      foreach(i RANGE 1 ${pad})
        string(APPEND result "0")
      endforeach()
    endif()
  else()
    string(SUBSTRING "${digits}" 0 ${point} result)
  endif()
  while(result MATCHES "^0[0-9]")
    string(SUBSTRING "${result}" 1 -1 result)
  endwhile()
  set(${outvar} "${result}" PARENT_SCOPE)
endfunction()

# Loads `<json_file>`s benchmarks into two parallel lists in the caller's
# scope: ${TAG}_NAMES and ${TAG}_TIMES (integer milli-unit cpu_time).
# Each benchmark contributes the MINIMUM over its repetition runs:
# scheduler/neighbor noise on a shared host is strictly additive, so
# min-vs-min is far more stable run-to-run than median-vs-median (medians
# drift with sustained background load), and a genuine code regression
# still shifts the minimum.
function(load_bench_times TAG JSON_FILE)
  file(READ "${JSON_FILE}" content)
  string(JSON count LENGTH "${content}" benchmarks)
  set(names "")
  set(times "")
  math(EXPR last "${count} - 1")
  foreach(i RANGE ${last})
    string(JSON run_type GET "${content}" benchmarks ${i} run_type)
    if(NOT run_type STREQUAL "iteration")
      continue()
    endif()
    string(JSON name GET "${content}" benchmarks ${i} name)
    string(JSON cpu GET "${content}" benchmarks ${i} cpu_time)
    json_number_to_int("${cpu}" cpu)
    list(FIND names "${name}" idx)
    if(idx EQUAL -1)
      list(APPEND names "${name}")
      list(APPEND times "${cpu}")
    else()
      list(GET times ${idx} prev)
      if(cpu LESS prev)
        list(REMOVE_AT times ${idx})
        list(INSERT times ${idx} "${cpu}")
      endif()
    endif()
  endforeach()
  set(${TAG}_NAMES "${names}" PARENT_SCOPE)
  set(${TAG}_TIMES "${times}" PARENT_SCOPE)
endfunction()

# Compares `current_json` against the BASE_NAMES/BASE_TIMES baseline loaded
# at top level and sets ${outvar} to the list of over-tolerance benchmark
# names (empty when everything is within bounds).
function(compare_to_baseline current_json outvar)
  load_bench_times(CURR "${current_json}")
  set(regressed "")
  set(row 0)
  foreach(name IN LISTS CURR_NAMES)
    list(GET CURR_TIMES ${row} curr)
    math(EXPR row "${row} + 1")
    list(FIND BASE_NAMES "${name}" base_idx)
    if(base_idx EQUAL -1)
      message(STATUS "  ${name}: NEW (no baseline entry) cpu=${curr}")
      continue()
    endif()
    list(GET BASE_TIMES ${base_idx} base)
    if(base EQUAL 0)
      message(STATUS "  ${name}: baseline cpu_time 0, skipping")
      continue()
    endif()
    math(EXPR delta_pct "(${curr} - ${base}) * 100 / ${base}")
    math(EXPR limit "${base} * (100 + ${PERF_TOLERANCE}) / 100")
    if(curr GREATER limit)
      set(verdict "REGRESSION (> +${PERF_TOLERANCE}%)")
      list(APPEND regressed "${name}")
    else()
      set(verdict "ok")
    endif()
    message(STATUS
      "  ${name}: baseline=${base} current=${curr} milli-units "
      "(${delta_pct}%) ${verdict}")
  endforeach()
  set(${outvar} "${regressed}" PARENT_SCOPE)
endfunction()

# Checks the same-run ratio in `json` and sets ${outvar} to TRUE when the
# slow benchmark is less than RATIO_FLOOR times the fast one.
function(ratio_missed json outvar)
  load_bench_times(RUN "${json}")
  list(FIND RUN_NAMES "${RATIO_SLOW}" slow_idx)
  list(FIND RUN_NAMES "${RATIO_FAST}" fast_idx)
  if(slow_idx EQUAL -1 OR fast_idx EQUAL -1)
    message(FATAL_ERROR
      "perf gate: ratio needs ${RATIO_SLOW} and ${RATIO_FAST} in the "
      "selection '${PERF_FILTER}'")
  endif()
  list(GET RUN_TIMES ${slow_idx} slow)
  list(GET RUN_TIMES ${fast_idx} fast)
  json_number_to_int("${RATIO_FLOOR}" floor_milli)
  if(fast EQUAL 0)
    message(FATAL_ERROR "perf gate: ${RATIO_FAST} cpu_time is 0")
  endif()
  math(EXPR ratio_milli "${slow} * 1000 / ${fast}")
  if(ratio_milli LESS floor_milli)
    set(verdict "BELOW FLOOR")
    set(${outvar} TRUE PARENT_SCOPE)
  else()
    set(verdict "ok")
    set(${outvar} FALSE PARENT_SCOPE)
  endif()
  message(STATUS
    "  ratio ${RATIO_SLOW} / ${RATIO_FAST} = ${ratio_milli}/1000 "
    "(floor ${RATIO_FLOOR}) ${verdict}")
endfunction()

if(HAVE_BASELINE)
  load_bench_times(BASE "${BASELINE_JSON}")
endif()
run_selection("${CURRENT_JSON}")
set(REGRESSIONS "")
if(HAVE_BASELINE)
  compare_to_baseline("${CURRENT_JSON}" REGRESSIONS)
endif()
set(RATIO_MISS FALSE)
if(CHECK_RATIO)
  ratio_missed("${CURRENT_JSON}" RATIO_MISS)
endif()

if(NOT REGRESSIONS STREQUAL "" OR RATIO_MISS)
  # Double-check: re-run the selection and keep only benchmarks that are
  # over tolerance, and a ratio that is below its floor, in both runs (see
  # the policy comment up top).
  set(flagged ${REGRESSIONS})
  if(RATIO_MISS)
    list(APPEND flagged "ratio ${RATIO_SLOW} / ${RATIO_FAST}")
  endif()
  message(STATUS
    "perf gate: ${flagged} out of bounds -- re-running the selection to "
    "separate a real regression from a host-load spike")
  run_selection("${CURRENT_JSON}.recheck")
  set(RECHECK_REGRESSIONS "")
  if(HAVE_BASELINE)
    compare_to_baseline("${CURRENT_JSON}.recheck" RECHECK_REGRESSIONS)
  endif()
  set(confirmed "")
  foreach(name IN LISTS REGRESSIONS)
    if(name IN_LIST RECHECK_REGRESSIONS)
      list(APPEND confirmed "${name}")
    endif()
  endforeach()
  if(RATIO_MISS)
    ratio_missed("${CURRENT_JSON}.recheck" RATIO_MISS)
  endif()
  if(confirmed STREQUAL "" AND NOT RATIO_MISS)
    message(STATUS
      "perf gate: re-run came back within bounds for every flagged "
      "check; treating the first run as host noise")
  endif()
  set(REGRESSIONS "${confirmed}")
endif()

set(FAILURES "")
if(RATIO_MISS)
  string(APPEND FAILURES
    "perf gate: ${RATIO_SLOW} is less than ${RATIO_FLOOR}x ${RATIO_FAST} "
    "in both runs of the selection.  ")
endif()
if(NOT REGRESSIONS STREQUAL "")
  string(APPEND FAILURES
    "perf gate: benchmark(s) regressed more than ${PERF_TOLERANCE}% vs "
    "${BASELINE_JSON}: ${REGRESSIONS}.  If the slowdown is intended, "
    "re-archive the baseline with the 'perf' test preset and commit it.")
endif()
if(NOT FAILURES STREQUAL "")
  message(FATAL_ERROR "${FAILURES}")
endif()
if(HAVE_BASELINE)
  message(STATUS
    "perf gate: all benchmarks within ${PERF_TOLERANCE}% of baseline")
endif()
if(CHECK_RATIO)
  message(STATUS "perf gate: ratio at or above ${RATIO_FLOOR}")
endif()
