# Paper-tier ground-truth check: the exhaustive 400M Fig. 3 sweep of
# EXPERIMENTS.md ("Paper-tier ground truth"), run on the committed INI over
# every single-core workload, must write a CSV byte-identical to the
# committed reference. Invoked by the paper_fig3_exhaustive ctest with
# -DCLI=<binary> -DINI=<fig3_single_core.ini> -DCSV=<fig3_esteem_rpv.csv>
# -DWORKDIR=<scratch dir>.
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

# The workload list, as `--list-workloads | awk '{print $1}' | paste -sd,`.
execute_process(COMMAND ${CLI} --list-workloads
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE listing)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--list-workloads failed (exit ${rc})")
endif()
string(REGEX MATCHALL "(^|\n)[^ \n]+" names "${listing}")
list(TRANSFORM names STRIP)
list(JOIN names "," workloads)

execute_process(COMMAND ${CLI} --config ${INI} --sweep ${workloads}
                        --techniques esteem,rpv --instr 400000000
                        --warmup 80000000 --seed 42 --jobs 4
                        --csv ${WORKDIR}/fig3_esteem_rpv.csv
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "paper-tier Fig. 3 sweep failed (exit ${rc}): ${out}${err}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${CSV} ${WORKDIR}/fig3_esteem_rpv.csv
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "paper-tier Fig. 3 CSV differs from ${CSV}; "
                      "see ${WORKDIR}/fig3_esteem_rpv.csv")
endif()
message(STATUS "paper-tier Fig. 3 reference reproduced (${workloads})")
