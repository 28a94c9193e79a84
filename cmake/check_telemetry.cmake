# End-to-end --telemetry-dir checks, each on fresh directories:
#   1. a single ESTEEM run writes its interval series and trace.json, and no
#      counters.json;
#   2. the same --jobs 4 sweep run twice writes byte-identical trace.json and
#      series files, and the same stdout (the trace and the "interval stats
#      written to" lines follow run labels, not thread timing);
#   3. a rerun into a used directory exits 2, names a file it found there
#      and leaves the directory as it was.
# Invoked by the cli_telemetry ctest with -DCLI=<esteem_cli>
# -DWORKDIR=<scratch dir>.
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

# 1. Single run.
set(single ${WORKDIR}/single)
set(single_args --workload mcf --technique esteem --instr 200000 --warmup 40000
                --telemetry-dir ${single})
execute_process(COMMAND ${CLI} ${single_args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "single telemetry run failed (exit ${rc}): ${out}${err}")
endif()
foreach(name mcf.esteem.s42.intervals.jsonl trace.json)
  if(NOT EXISTS ${single}/${name})
    message(FATAL_ERROR "single run wrote no ${name}: ${out}${err}")
  endif()
endforeach()
if(EXISTS ${single}/counters.json)
  message(FATAL_ERROR "single run wrote counters.json")
endif()
if(NOT out MATCHES "interval stats written to [^\n]*mcf\\.esteem\\.s42\\.intervals\\.jsonl\ntrace written to ")
  message(FATAL_ERROR "single run did not report its files: ${out}")
endif()

# 2. The same threaded sweep twice.
foreach(leg a b)
  execute_process(COMMAND ${CLI} --sweep gamess,gobmk,mcf,h264ref,astar,sjeng
                          --techniques esteem,rpv --instr 300000 --warmup 60000
                          --jobs 4 --telemetry-dir ${WORKDIR}/sweep_${leg}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out_${leg} ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "telemetry sweep ${leg} failed (exit ${rc}): ${out_${leg}}${err}")
  endif()
  string(REPLACE "${WORKDIR}/sweep_${leg}" "DIR" out_${leg} "${out_${leg}}")
  file(GLOB files_${leg} RELATIVE ${WORKDIR}/sweep_${leg} ${WORKDIR}/sweep_${leg}/*)
endforeach()
list(LENGTH files_a count)
if(NOT files_a STREQUAL files_b OR NOT count EQUAL 19)
  message(FATAL_ERROR "sweeps wrote different or missing files: ${files_a} vs ${files_b}")
endif()
foreach(name IN LISTS files_a)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${WORKDIR}/sweep_a/${name} ${WORKDIR}/sweep_b/${name}
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "two identical --jobs 4 sweeps wrote different ${name}")
  endif()
endforeach()
if(NOT out_a STREQUAL out_b)
  message(FATAL_ERROR "two identical sweeps printed different output:\n${out_a}\n---\n${out_b}")
endif()

# 3. A used directory is refused before any run.
file(READ ${single}/trace.json trace_before)
execute_process(COMMAND ${CLI} ${single_args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "rerun into a used telemetry dir exited ${rc}, expected 2: ${out}${err}")
endif()
if(NOT err MATCHES "already holds [^\n]*mcf\\.esteem\\.s42\\.intervals\\.jsonl")
  message(FATAL_ERROR "refusal does not name the file it found: ${err}")
endif()
file(READ ${single}/trace.json trace_after)
if(NOT trace_before STREQUAL trace_after)
  message(FATAL_ERROR "refused rerun changed ${single}/trace.json")
endif()
file(REMOVE_RECURSE ${WORKDIR})
