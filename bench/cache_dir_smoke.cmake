# A bench's sweep executor through an on-disk store: fig5_grid5000_b64 run
# once without a store, then cold and warm into one fresh --cache-dir, must
# write three byte-identical CSVs, and the warm run must simulate nothing.
#   cmake -DBENCH_DIR=<dir with the bench binaries> -DWORK_DIR=<scratch dir>
#         -P cache_dir_smoke.cmake
set(store ${WORK_DIR}/store)
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# Runs fig5 with `--csv ${WORK_DIR}/<run>.csv` plus ARGN and stores its
# stdout in `<run>_stdout`.
function(run_fig5 run)
  set(command ${BENCH_DIR}/fig5_grid5000_b64 --csv ${WORK_DIR}/${run}.csv
              ${ARGN})
  execute_process(COMMAND ${command} RESULT_VARIABLE status
                  OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT status STREQUAL "0")
    list(JOIN command " " command_text)
    message(FATAL_ERROR "'${command_text}' ended with '${status}'; stderr:\n"
                        "${stderr}")
  endif()
  set(${run}_stdout "${stdout}" PARENT_SCOPE)
endfunction()

# The exec.engines_run row of the sweep executor's --metrics table.
function(engines_run run)
  string(FIND "${${run}_stdout}" "sweep executor metrics:" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "the ${run} run printed no sweep executor metrics:\n"
                        "${${run}_stdout}")
  endif()
  string(SUBSTRING "${${run}_stdout}" ${at} -1 table)
  if(NOT table MATCHES "\nexec\\.engines_run +([0-9]+)\n")
    message(FATAL_ERROR "no exec.engines_run row in the ${run} run:\n"
                        "${table}")
  endif()
  set(${run}_engines ${CMAKE_MATCH_1} PARENT_SCOPE)
endfunction()

run_fig5(nostore)
run_fig5(cold --cache-dir ${store} --metrics)
run_fig5(warm --cache-dir ${store} --metrics)

foreach(run cold warm)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${WORK_DIR}/nostore.csv ${WORK_DIR}/${run}.csv
                  RESULT_VARIABLE differ)
  if(differ)
    message(FATAL_ERROR "the ${run} run's CSV differs from the run without "
                        "a store")
  endif()
  engines_run(${run})
endforeach()
if(cold_engines EQUAL 0)
  message(FATAL_ERROR "the cold run simulated nothing: ${store} was not fresh")
endif()
if(NOT warm_engines EQUAL 0)
  message(FATAL_ERROR "the warm run ran ${warm_engines} engines; a warm "
                      "store must serve every point")
endif()
