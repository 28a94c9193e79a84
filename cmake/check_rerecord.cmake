# Re-recording on an unchanged tree is a no-op, end to end:
# `esteem_validate --update-golden` at smoke scale into a copy of the
# committed golden must report the smoke entry unchanged and leave the copy
# byte-identical. This is the one check that runs to_golden and the golden
# writer on a real matrix.
# Invoked by the validate_rerecord_unchanged ctest with -DVALIDATE=<binary>
# -DGOLDEN=<committed golden.json> -DWORKDIR=<scratch dir>.
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})
execute_process(COMMAND ${CMAKE_COMMAND} -E copy ${GOLDEN} ${WORKDIR}/golden.json
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cannot copy ${GOLDEN} into ${WORKDIR}")
endif()

execute_process(COMMAND ${VALIDATE} --update-golden --scale smoke
                        --golden ${WORKDIR}/golden.json
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--update-golden failed (exit ${rc}): ${out}${err}")
endif()
if(NOT out MATCHES "golden entry for v1;instr=300000;[^\n]* unchanged\n")
  message(FATAL_ERROR "--update-golden did not report the smoke entry unchanged: ${out}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${GOLDEN} ${WORKDIR}/golden.json
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "re-recorded golden differs from ${GOLDEN} "
                      "(kept in ${WORKDIR})")
endif()
file(REMOVE_RECURSE ${WORKDIR})
