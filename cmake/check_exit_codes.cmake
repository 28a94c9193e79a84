# Argument and config errors are usage errors: every tool exits exactly 2
# on them (README's exit-code table), never 1 and never a silent run with a
# truncated number. That covers the retired ESTEEM_* variables (scale, memo
# directory and fault schedule; every tool refuses them whatever their
# value, so each case below would exit 0 without the refusal), a --print
# given a flag it would ignore, an unknown --print report
# id, a --telemetry-dir that cannot be made, whose trace.json cannot be
# opened (a path past PATH_MAX) or that already holds an earlier process's telemetry (any *.json
# or *.jsonl file, e.g. counters.json or a series), the retired telemetry
# flags (--timeline, --interval-stats, --trace; --telemetry-dir replaced
# all three), an
# esteem_validate --check whose golden file cannot be read, a [faults]
# max_tracked_extension past its cap, an ecc-extended fault run whose
# extension the weak-cell map does not track, a zero --instr budget (single
# run and sweep), and a technique listed twice in --techniques. Invoked by the cli_exit_codes
# ctest with -DCLI=, -DVALIDATE=, -DBENCH=, -DCHAOS=<binaries>
# -DWORKDIR=<scratch dir>.
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})
file(WRITE ${WORKDIR}/bad_value.ini "[esteem]\nalpha = zero\n")
file(WRITE ${WORKDIR}/retired.ini "[resilience]\nmax_retries = 0\n")
file(WRITE ${WORKDIR}/wide_l2.ini "[l2]\nsize_kb = 8192\nways = 512\n")
file(WRITE ${WORKDIR}/huge_tracking.ini "[faults]\nmax_tracked_extension = 4000000000\n")
file(WRITE ${WORKDIR}/short_tracking.ini
     "[faults]\nenabled = true\nmax_tracked_extension = 2\n")
file(MAKE_DIRECTORY ${WORKDIR}/trace_is_dir/trace.json)
file(WRITE ${WORKDIR}/used_series/gamess.esteem.s42.intervals.jsonl "")
file(WRITE ${WORKDIR}/used_counters/counters.json "{}\n")

# Each case is one command line with its arguments separated by '|'. The
# budgets are tiny, so a tool that wrongly accepted a value still returns
# quickly and the check fails on its exit code instead of timing out.
set(cases
  "${CLI}|--config|${WORKDIR}/no-such-file.ini"
  "${CLI}|--config|${WORKDIR}/bad_value.ini"
  "${CLI}|--config|${WORKDIR}/retired.ini"
  "${CLI}|--config|${WORKDIR}/wide_l2.ini|--workload|gamess|--instr|1000|--warmup|0"
  "${CLI}|--config|${WORKDIR}/huge_tracking.ini|--workload|gamess|--instr|1000|--warmup|0"
  "${CLI}|--config|${WORKDIR}/short_tracking.ini|--workload|h264ref|--technique|ecc-extended|--instr|1000|--warmup|0"
  "${CLI}|--sweep|gamess|--techniques|nosuch"
  "${CLI}|--sweep|gamess|--techniques|baseline"
  "${CLI}|--sweep|gamess|--techniques|rpv,rpv|--instr|1000|--warmup|0"
  "${CLI}|--workload|gamess|--technique|esteem|--instr|0|--warmup|0"
  "${CLI}|--sweep|gamess|--techniques|rpv|--instr|0|--warmup|0"
  "${CLI}|--workload|gamess|--technique|nosuch"
  "${CLI}|--workload|gamess|--warmup|0|--instr|1e6"
  "${CLI}|--workload|gamess|--warmup|0|--instr|abc"
  "${CLI}|--workload|gamess|--instr|1000|--warmup|0|--seed|4x2"
  "${CLI}|--workload|gamess|--instr|1000|--warmup|5k"
  "${CLI}|--sweep|gamess|--instr|1000|--warmup|0|--jobs|2.5"
  "${VALIDATE}|--list|--instr|1e6"
  "${VALIDATE}|--list|--seed|3.5"
  "${VALIDATE}|--list|--perturb-refresh-energy|2x"
  "${BENCH}|--instr|1e6"
  "${BENCH}|--workloads|two"
  "${CHAOS}|--explore|--random|4x"
  "${CHAOS}|--random-replay|0x10"
  "${CLI}|--workload|gamess|--instr|1000|--warmup|0|--telemetry-dir|${WORKDIR}/trace_is_dir"
  "${CLI}|--workload|gamess|--instr|1000|--warmup|0|--telemetry-dir|${WORKDIR}/used_series"
  "${CLI}|--sweep|gamess|--techniques|rpv|--instr|1000|--warmup|0|--telemetry-dir|${WORKDIR}/used_counters"
  "${CLI}|--workload|gamess|--instr|1000|--warmup|0|--timeline|${WORKDIR}/t.csv"
  "${CLI}|--workload|gamess|--instr|1000|--warmup|0|--interval-stats"
  "${CLI}|--workload|gamess|--instr|1000|--warmup|0|--trace|${WORKDIR}/t.json"
  "${CLI}|--workload|gamess|--instr|1000|--warmup|0|--telemetry-dir|${WORKDIR}/bad_value.ini/sub"
  "${CMAKE_COMMAND}|-E|env|ESTEEM_INSTR=1e6|${VALIDATE}|--check|--scale|bench|--figures|fig3|--jobs|1"
  "${CMAKE_COMMAND}|-E|env|ESTEEM_THREADS=4x2|${VALIDATE}|--check|--scale|bench|--figures|fig3|--instr|10000|--warmup|1"
  "${VALIDATE}|--check|--golden|${WORKDIR}/no-such-golden.json|--figures|fig3|--instr|10000|--warmup|1|--jobs|1"
  "${VALIDATE}|--print|nosuch"
  "${CMAKE_COMMAND}|-E|env|ESTEEM_TABLE3_STRIDE=2|${VALIDATE}|--print|table3|--instr|1000|--warmup|1|--jobs|1"
  "${CMAKE_COMMAND}|-E|env|ESTEEM_MEMO_DIR=x|${CLI}|--workload|gamess|--instr|1000|--warmup|0"
  "${CMAKE_COMMAND}|-E|env|ESTEEM_MEMO_DIR=x|${VALIDATE}|--list"
  "${CMAKE_COMMAND}|-E|env|ESTEEM_MEMO_DIR=x|${BENCH}|--help"
  "${CMAKE_COMMAND}|-E|env|ESTEEM_CHAOS_SCHEDULE=memo.rename=fail|${CLI}|--workload|gamess|--instr|1000|--warmup|0"
  "${CMAKE_COMMAND}|-E|env|ESTEEM_CHAOS_RATE=5|${CHAOS}|--list-points"
  "${VALIDATE}|--print|fig3|--perturb-refresh-energy|2|--instr|1000|--warmup|1|--jobs|1"
  "${VALIDATE}|--print|fig3|--figures|fig3|--instr|1000|--warmup|1|--jobs|1"
  "${VALIDATE}|--golden|${WORKDIR}/no-such-golden.json|--print|fig3|--instr|1000|--warmup|1|--jobs|1")

foreach(args IN LISTS cases)
  string(REPLACE "|" ";" args "${args}")
  execute_process(COMMAND ${args}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2")
    string(REPLACE ";" " " shown "${args}")
    message(FATAL_ERROR "'${shown}' exited ${rc}, expected 2:\n${out}${err}")
  endif()
endforeach()

# A --telemetry-dir the CLI can make but whose trace.json it cannot open:
# the directory path is 4090 bytes, built from components of at most 255
# bytes, so mkdir succeeds while <dir>/trace.json exceeds PATH_MAX (4096)
# and its open fails with ENAMETOOLONG. This is the only case that reaches
# the up-front trace.json open check: the tests run as root, so no
# directory is unwritable.
set(long_dir ${WORKDIR}/long)
string(REPEAT "d" 250 component)
string(LENGTH "${long_dir}" len)
while(len LESS 3834)
  string(APPEND long_dir "/${component}")
  math(EXPR len "${len} + 251")
endwhile()
math(EXPR tail_len "4089 - ${len}")  # 5..255 bytes
string(REPEAT "t" ${tail_len} tail)
string(APPEND long_dir "/${tail}")
execute_process(COMMAND ${CLI} --workload gamess --instr 1000 --warmup 0
                        --telemetry-dir ${long_dir}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "2" OR NOT err MATCHES "cannot open telemetry file .*/trace\\.json"
   OR NOT IS_DIRECTORY "${long_dir}")
  message(FATAL_ERROR "--telemetry-dir <4090-byte path> exited ${rc}, expected 2 "
                      "naming trace.json after making the directory:\n${out}${err}")
endif()
file(REMOVE_RECURSE ${WORKDIR}/long)
file(REMOVE_RECURSE ${WORKDIR})
