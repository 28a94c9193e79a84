# End-to-end check of `esteem_cli --timeline`: the CSV is the run's interval
# series (IntervalRecorder::write_csv), so
#   1. every line has the header's field count, for ESTEEM (module columns)
#      and for a technique without modules (rpv);
#   2. with --interval-stats as well, the CSV has one row per JSONL line;
#   3. --timeline alone writes no *.intervals.jsonl.
# Invoked by the cli_timeline ctest with -DCLI=<binary> -DWORKDIR=<scratch dir>.
set(run_args --workload h264ref --instr 200000 --warmup 20000)
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

# Runs the CLI in WORKDIR (the telemetry hub's default output dir) and
# fails the check on a nonzero exit.
function(run_cli)
  execute_process(COMMAND ${CLI} ${run_args} ${ARGN}
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "esteem_cli ${ARGN} failed (exit ${rc}): ${out}${err}")
  endif()
endfunction()

# Sets `<out_rows>` to the CSV's data-row count after checking that every
# line has as many fields as the header and that there is at least one row.
function(check_rectangular csv out_rows)
  file(STRINGS ${csv} lines)
  list(LENGTH lines nlines)
  if(nlines LESS 2)
    message(FATAL_ERROR "${csv}: no interval rows")
  endif()
  list(GET lines 0 header)
  string(REPLACE "," ";" header_fields "${header}")
  list(LENGTH header_fields width)
  foreach(line IN LISTS lines)
    string(REPLACE "," ";" fields "${line}")
    list(LENGTH fields n)
    if(NOT n EQUAL width)
      message(FATAL_ERROR "${csv}: line '${line}' has ${n} fields, header has ${width}")
    endif()
  endforeach()
  math(EXPR rows "${nlines} - 1")
  set(${out_rows} ${rows} PARENT_SCOPE)
endfunction()

# 1 + 3. ESTEEM and rpv timelines are rectangular; neither writes a JSONL.
foreach(technique esteem rpv)
  run_cli(--technique ${technique} --timeline ${technique}.csv)
  check_rectangular(${WORKDIR}/${technique}.csv rows)
endforeach()
file(GLOB stray ${WORKDIR}/*.intervals.jsonl)
if(stray)
  message(FATAL_ERROR "--timeline alone wrote interval JSONL: ${stray}")
endif()

# 2. With --interval-stats, the CSV and the JSONL are the same series.
run_cli(--technique esteem --timeline both.csv --interval-stats
        --telemetry-dir tel)
check_rectangular(${WORKDIR}/both.csv csv_rows)
file(GLOB jsonl ${WORKDIR}/tel/*.intervals.jsonl)
list(LENGTH jsonl njsonl)
if(NOT njsonl EQUAL 1)
  message(FATAL_ERROR "expected one interval JSONL, found: ${jsonl}")
endif()
file(STRINGS ${jsonl} jsonl_lines)
list(LENGTH jsonl_lines jsonl_rows)
if(NOT csv_rows EQUAL jsonl_rows)
  message(FATAL_ERROR "timeline CSV has ${csv_rows} rows, JSONL has ${jsonl_rows}")
endif()
file(REMOVE_RECURSE ${WORKDIR})
