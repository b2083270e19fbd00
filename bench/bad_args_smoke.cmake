# Bench invocations with bad arguments must exit with status 1 and say why
# on stderr: no abort (status 134) and no silent misreading.
#   cmake -DBENCH_DIR=<dir with the bench binaries> -P bad_args_smoke.cmake
function(expect_exit_1 expected_message)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE status
                  OUTPUT_QUIET ERROR_VARIABLE stderr)
  list(JOIN ARGN " " command)
  if(NOT status STREQUAL "1")
    message(FATAL_ERROR "'${command}' ended with '${status}', expected exit "
                        "status 1; stderr:\n${stderr}")
  endif()
  string(FIND "${stderr}" "${expected_message}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "'${command}' stderr lacks '${expected_message}':\n"
                        "${stderr}")
  endif()
endfunction()

expect_exit_1("need a power-of-four rank count, got 48"
              ${BENCH_DIR}/fig10_exascale --mode p2p --p 48)
expect_exit_1("not divisible by grid rows 6"
              ${BENCH_DIR}/fig8_bgp_16384 --p 48)
expect_exit_1("--factors entry 'abc' is not a number"
              ${BENCH_DIR}/fault_study --factors abc)
expect_exit_1("--factors entry '4abc' is not a number"
              ${BENCH_DIR}/fault_study --factors 4abc)
