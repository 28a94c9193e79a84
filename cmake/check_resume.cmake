# End-to-end crash-safe resume check: a subset sweep run with --journal DIR
# leaves its finished runs in DIR, and a sweep over the full workload list
# with the same --journal DIR, in a *separate process*, restores exactly
# those runs; its CSV must be byte-identical to an uninterrupted run's.
# Invoked by the cli_resume_bitwise ctest with -DCLI=<binary>
# -DWORKDIR=<scratch dir>.
set(sweep_args --techniques rpv --instr 30000 --warmup 5000)
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

# 1. Reference: the uninterrupted sweep.
execute_process(COMMAND ${CLI} --sweep gamess,gobmk ${sweep_args}
                        --csv ${WORKDIR}/full.csv
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "reference sweep failed (exit ${rc})")
endif()

# 2. "Interrupted" leg: only one workload completes. This is the state a
#    SIGKILL mid-sweep leaves behind: gamess's baseline and rpv runs on disk.
execute_process(COMMAND ${CLI} --sweep gamess ${sweep_args}
                        --journal ${WORKDIR}/journal
                        --csv ${WORKDIR}/partial.csv
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "journaled subset sweep failed (exit ${rc})")
endif()

# 3. Resume over the full workload list in a fresh process: exactly the two
#    finished runs come back from disk.
execute_process(COMMAND ${CLI} --sweep gamess,gobmk ${sweep_args}
                        --journal ${WORKDIR}/journal
                        --csv ${WORKDIR}/resumed.csv
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "resumed sweep failed (exit ${rc}): ${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "resume: 2 run\\(s\\) restored")
  message(FATAL_ERROR "resume did not restore the two finished runs: ${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "\\(2 disk hit\\)")
  message(FATAL_ERROR "memo summary does not report 2 disk hits: ${out}${err}")
endif()

# 4. The resumed CSV must match the uninterrupted one byte for byte.
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${WORKDIR}/full.csv ${WORKDIR}/resumed.csv
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "resumed CSV differs from the uninterrupted sweep's")
endif()

# 5. --journal naming a regular file is a usage error (exit 2), not a
#    silently unjournaled sweep.
file(WRITE ${WORKDIR}/not-a-dir "")
execute_process(COMMAND ${CLI} --sweep gamess ${sweep_args}
                        --journal ${WORKDIR}/not-a-dir
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--journal on a regular file exited ${rc}, expected 2: ${out}${err}")
endif()
file(REMOVE_RECURSE ${WORKDIR})
