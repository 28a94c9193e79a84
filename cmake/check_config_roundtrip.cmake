# default -> --dump-config -> --config is a round trip: a run from a dumped
# default config prints the same bytes as the same run from the built-in
# defaults, at any --instr. The dump stores the interval-scaling rule
# (`interval_cycles = paper-scaled`), not its result for the dump's own
# --instr, so a bare dump reloads identically at --instr 200000 and at the
# default. Invoked by the cli_config_roundtrip ctest with -DCLI=<binary>
# -DWORKDIR=<scratch dir>.
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

# Runs the CLI and stores its stdout in `out_var`; any other exit fails.
function(run_cli out_var)
  execute_process(COMMAND ${CLI} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    string(REPLACE ";" " " shown "${ARGN}")
    message(FATAL_ERROR "'esteem_cli ${shown}' exited ${rc}:\n${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Dumps the defaults for `workload_args` (no --instr) to `file`.
function(dump file)
  run_cli(ini ${ARGN} --dump-config)
  if(NOT ini MATCHES "\ninterval_cycles = paper-scaled\n")
    message(FATAL_ERROR "dump does not store the paper-scaled interval:\n${ini}")
  endif()
  file(WRITE ${file} "${ini}")
endfunction()

# One run from the defaults and one from `ini`; stdout must match.
function(expect_same ini)
  run_cli(from_defaults ${ARGN})
  run_cli(from_dump --config ${ini} ${ARGN})
  if(NOT from_defaults STREQUAL from_dump)
    string(REPLACE ";" " " shown "${ARGN}")
    message(FATAL_ERROR "'${shown}' differs between the defaults and the dump:\n"
                        "${from_defaults}\n--- vs ---\n${from_dump}")
  endif()
endfunction()

set(single ${WORKDIR}/single.ini)
dump(${single} --workload h264ref)
expect_same(${single} --workload h264ref --technique esteem --instr 200000)
expect_same(${single} --workload h264ref --technique esteem)

set(dual ${WORKDIR}/dual.ini)
dump(${dual} --workload gobmk,namd)
expect_same(${dual} --workload gobmk,namd --technique esteem --instr 200000
            --warmup 20000)

# Sweep mode dumps and reloads the same way; its CSV is the comparison.
set(sweep ${WORKDIR}/sweep.ini)
dump(${sweep} --sweep h264ref)
run_cli(ignored --sweep h264ref --techniques esteem --instr 200000 --warmup 20000
        --csv ${WORKDIR}/defaults.csv)
run_cli(ignored --config ${sweep} --sweep h264ref --techniques esteem
        --instr 200000 --warmup 20000 --csv ${WORKDIR}/dump.csv)
file(READ ${WORKDIR}/defaults.csv from_defaults)
file(READ ${WORKDIR}/dump.csv from_dump)
if(NOT from_defaults STREQUAL from_dump)
  message(FATAL_ERROR "sweep CSV differs between the defaults and the dump:\n"
                      "${from_defaults}\n--- vs ---\n${from_dump}")
endif()
file(REMOVE_RECURSE ${WORKDIR})
