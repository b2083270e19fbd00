# Two runs of fig10_exascale's simulated point must print the same stdout:
# its host-time columns (events/sec, wall, peak RSS) belong on stderr.
#   cmake -DBENCH_DIR=<dir with the bench binaries> -P fig10_stdout_smoke.cmake
set(command ${BENCH_DIR}/fig10_exascale --p 256 --mode closed)
list(JOIN command " " command_text)
foreach(run first second)
  execute_process(COMMAND ${command} RESULT_VARIABLE status
                  OUTPUT_VARIABLE ${run} ERROR_VARIABLE stderr)
  if(NOT status STREQUAL "0")
    message(FATAL_ERROR "'${command_text}' ended with '${status}'; stderr:\n"
                        "${stderr}")
  endif()
endforeach()
if(NOT first STREQUAL second)
  message(FATAL_ERROR "two runs of '${command_text}' differ on stdout:\n"
                      "--- first\n${first}\n--- second\n${second}")
endif()
