# End-to-end chaos drill for the multi-process sweep service: plan a sweep,
# let two chaos-armed workers SIGKILL themselves mid-lease, have two clean
# workers steal the dangling leases and finish, then assert the coordinator's
# CSV is byte-identical to a single-process `esteem_cli --sweep` of the same
# flags. Invoked by the service_chaos_bitwise ctest with -DCLI=<esteem_cli>
# -DWORKERD=<esteem_workerd> -DWORKDIR=<scratch dir>.
set(sweep gamess,gobmk,mcf)
set(sweep_args --techniques rpv,esteem --instr 30000 --warmup 5000)
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

# 0. A config with aggressive lease timing so stolen rows re-lease within
#    the test budget instead of the production 30 s TTL. The single-process
#    reference uses the *same* file — [service] keys are part of the sweep
#    fingerprint, so byte-identity requires identical configs.
execute_process(COMMAND ${CLI} --dump-config
                OUTPUT_VARIABLE ini RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--dump-config failed (exit ${rc})")
endif()
string(REGEX REPLACE "lease_ttl_ms = [0-9]+" "lease_ttl_ms = 1500" ini "${ini}")
string(REGEX REPLACE "heartbeat_ms = [0-9]+" "heartbeat_ms = 300" ini "${ini}")
string(REGEX REPLACE "poll_ms = [0-9]+" "poll_ms = 100" ini "${ini}")
# Observability ON for the whole drill: workers flush sidecar snapshots while
# crashing mid-lease, and step 6's byte-identity then pins the
# zero-observer-effect guarantee ([observability] is excluded from the sweep
# fingerprint, so the same config file still plans the same sweep).
string(REGEX REPLACE "flush_ms = [0-9]+" "flush_ms = 200" ini "${ini}")
file(WRITE ${WORKDIR}/service.ini "${ini}")

# 1. Reference: the uninterrupted single-process sweep.
execute_process(COMMAND ${CLI} --sweep ${sweep} ${sweep_args}
                        --config ${WORKDIR}/service.ini
                        --csv ${WORKDIR}/full.csv
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "reference sweep failed (exit ${rc})")
endif()

# 2. Plan the same sweep into a service directory.
execute_process(COMMAND ${WORKERD} --plan ${WORKDIR}/svc --sweep ${sweep}
                        ${sweep_args} --config ${WORKDIR}/service.ini
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "plan failed (exit ${rc}): ${out}${err}")
endif()

# 3. Two chaos-armed workers: each completes one row, claims the next, and
#    SIGKILLs itself holding the lease (hit 1 of the 0-based crashpoint is
#    the second claim). A crash is the *expected* outcome — a clean exit
#    means the crashpoint failed to arm.
foreach(i RANGE 1 2)
  execute_process(COMMAND ${CMAKE_COMMAND} -E env
                          ESTEEM_CHAOS_SCHEDULE=worker.crash.after_claim@1=crash
                          ${WORKERD} --worker ${WORKDIR}/svc --owner chaos-${i}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "chaos worker ${i} exited cleanly; expected SIGKILL")
  endif()
endforeach()

# 4. Two clean workers. The first steals the dead workers' expired leases
#    and resolves every remaining row; the second finds nothing to do. Both
#    must exit 0.
foreach(i RANGE 1 2)
  execute_process(COMMAND ${WORKERD} --worker ${WORKDIR}/svc --owner clean-${i}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "clean worker ${i} failed (exit ${rc}): ${out}${err}")
  endif()
endforeach()

# 5. Aggregate. The journal now holds crash debris (dangling leases, stolen
#    generations); the coordinator must still see a fully-resolved table.
execute_process(COMMAND ${WORKERD} --coordinator ${WORKDIR}/svc
                        --csv ${WORKDIR}/service.csv --timeout-ms 60000
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "coordinator failed (exit ${rc}): ${out}${err}")
endif()

# 6. Crash-recovered CSV must match the uninterrupted one byte for byte.
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${WORKDIR}/full.csv ${WORKDIR}/service.csv
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "service CSV differs from the single-process sweep's")
endif()

# 7. The fleet view over the same journal: --status --json must report the
#    sweep resolved and name the chaos casualties; the merged OpenMetrics
#    must pass the strict checker; the merged trace must be writable.
execute_process(COMMAND ${WORKERD} --status ${WORKDIR}/svc --json
                RESULT_VARIABLE rc OUTPUT_VARIABLE status ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--status --json failed (exit ${rc}): ${err}")
endif()
foreach(needle "\"v\":1" "\"completed\":6" "\"eta_ms\":0" "\"owner\":\"chaos-1\"")
  string(FIND "${status}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "--status --json missing ${needle}: ${status}")
  endif()
endforeach()
execute_process(COMMAND ${WORKERD} --status ${WORKDIR}/svc
                        --metrics ${WORKDIR}/metrics.om
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--status --metrics failed (exit ${rc}): ${out}${err}")
endif()
execute_process(COMMAND ${WORKERD} --check-metrics ${WORKDIR}/metrics.om
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "OpenMetrics checker rejected the merged exposition "
                      "(exit ${rc}): ${out}${err}")
endif()
execute_process(COMMAND ${WORKERD} --merge-trace ${WORKDIR}/svc
                        --out ${WORKDIR}/trace.merged.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--merge-trace failed (exit ${rc}): ${out}${err}")
endif()
file(SIZE ${WORKDIR}/trace.merged.json trace_bytes)
if(trace_bytes LESS 100)
  message(FATAL_ERROR "merged trace suspiciously small (${trace_bytes} bytes)")
endif()
file(REMOVE_RECURSE ${WORKDIR})
