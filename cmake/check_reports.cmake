# End-to-end run of every `esteem_validate --print ID` report at a tiny
# scale: each must exit 0 and start with its title line, and `--list` must
# name every id. Invoked by the validate_print_reports ctest with
# -DVALIDATE=<binary>.
set(reports
  "table1|Table 1 (upper): single-core workloads and synthetic profiles"
  "table2|Table 2: energy values for 16-way eDRAM cache"
  "eq1|Equation (1): counter storage overhead of ESTEEM"
  "fig2|Figure 2: ESTEEM reconfiguration timeline (h264ref)"
  "fig3|Figure 3: single-core, 50us retention"
  "fig4|Figure 4: dual-core, 50us retention"
  "fig5|Figure 5: single-core, 40us retention"
  "fig6|Figure 6: dual-core, 40us retention"
  "table3|Table 3: ESTEEM parameter sensitivity (50us retention)."
  "ablation|Ablation: ESTEEM design choices and extensions"
  "motivation|Idle LLC power: SRAM vs eDRAM (50us retention)"
  "faults|Fault injection: ECC-extended refresh resilience")

execute_process(COMMAND ${VALIDATE} --list
                RESULT_VARIABLE rc OUTPUT_VARIABLE listing ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--list exited ${rc}:\n${listing}${err}")
endif()

foreach(entry IN LISTS reports)
  string(FIND "${entry}" "|" bar)
  string(SUBSTRING "${entry}" 0 ${bar} id)
  math(EXPR title_at "${bar} + 1")
  string(SUBSTRING "${entry}" ${title_at} -1 title)

  if(NOT listing MATCHES "(^|\n)${id} ")
    message(FATAL_ERROR "--list does not name '${id}':\n${listing}")
  endif()
  execute_process(COMMAND ${VALIDATE} --print ${id}
                          --instr 20000 --warmup 4000 --jobs 2
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--print ${id} exited ${rc}:\n${out}${err}")
  endif()
  string(FIND "${out}" "${title}" at)
  if(NOT at EQUAL 0)
    message(FATAL_ERROR "--print ${id} does not start with '${title}':\n${out}")
  endif()
endforeach()
