# Error-path gate for --machine (and fluidicl_sim's --runtime and numeric
# options): every simulator-backed tool must reject an unknown machine name
# with a single-line stderr diagnostic naming the bad value and the
# accepted set, and the usage exit code 1 - not a crash, not a silent
# fallback to the paper machine. Invoked by ctest as
#
#   cmake -DSIM=<fluidicl_sim> -DCHECK=<fluidicl_check>
#         -DSERVE=<fluidicl_serve> -DCLUSTER=<fluidicl_cluster>
#         -P machine_errors.cmake

foreach(V SIM CHECK SERVE CLUSTER)
  if(NOT DEFINED ${V})
    message(FATAL_ERROR "machine_errors.cmake needs -D${V}=")
  endif()
endforeach()

# expect_rejected(<tool> <bad arg> <diagnostic regex> <other args...>): the
# tool must exit with the usage code 1 and print exactly one stderr line
# matching the regex.
function(expect_rejected TOOL BAD PATTERN)
  execute_process(
    COMMAND "${TOOL}" ${ARGN} ${BAD}
    RESULT_VARIABLE RC
    OUTPUT_QUIET
    ERROR_VARIABLE ERR)
  get_filename_component(NAME "${TOOL}" NAME)
  if(NOT RC STREQUAL "1")
    message(FATAL_ERROR "${NAME} ${BAD} exited with '${RC}', not 1")
  endif()
  if(NOT ERR MATCHES "${PATTERN}")
    message(FATAL_ERROR "${NAME} ${BAD} stderr lacks the diagnostic: ${ERR}")
  endif()
  # One line only: a trailing newline is fine, embedded ones are not.
  string(REGEX REPLACE "\n$" "" ERR_BODY "${ERR}")
  if(ERR_BODY MATCHES "\n")
    message(FATAL_ERROR "${NAME} ${BAD} printed more than one line: ${ERR}")
  endif()
endfunction()

function(expect_unknown_value TOOL OPTION VALUE)
  expect_rejected("${TOOL}" --${OPTION}=${VALUE}
                  "unknown --${OPTION} '${VALUE}'" ${ARGN})
endfunction()

# A numeric option out of its range (or not a number at all).
function(expect_bad_number TOOL OPTION VALUE)
  expect_rejected("${TOOL}" --${OPTION}=${VALUE}
                  "bad --${OPTION} value '${VALUE}'" ${ARGN})
endfunction()

function(expect_machine_error TOOL)
  expect_unknown_value("${TOOL}" machine nosuch ${ARGN})
endfunction()

expect_machine_error("${SIM}" --workload=syrk --size=64)
expect_machine_error("${CHECK}")
expect_machine_error("${SERVE}" --streams=2 --duration=0.01)
expect_machine_error("${CLUSTER}" --workers=2 --streams=2 --duration=0.01)
# fluidicl_sim resolves --runtime through the same kind of name table and
# must reject an unknown name before running anything.
expect_unknown_value("${SIM}" runtime bogus --workload=syrk --size=64)
# fluidicl_sim's numeric options are range-checked before any run: a GPU
# share outside [0, 1], a chunk outside (0, 100], a negative or
# non-numeric step or size, and a load factor that is not positive.
set(BICG --workload=bicg --size=64)
expect_bad_number("${SIM}" gpu-fraction 1.5 ${BICG} --runtime=static)
expect_bad_number("${SIM}" chunk 0 ${BICG} --runtime=fluidicl)
expect_bad_number("${SIM}" chunk abc ${BICG} --runtime=fluidicl)
expect_bad_number("${SIM}" step abc ${BICG} --runtime=fluidicl)
expect_bad_number("${SIM}" cpu-load 0 ${BICG} --runtime=cpu)
expect_bad_number("${SIM}" cpu-load -1 ${BICG} --runtime=cpu)
expect_bad_number("${SIM}" gpu-load 0 ${BICG} --runtime=gpu)
expect_bad_number("${SIM}" size abc --workload=bicg --runtime=cpu)
expect_bad_number("${SIM}" size -3 --workload=bicg --runtime=cpu)

message(STATUS
  "all four tools reject unknown --machine names (and fluidicl_sim unknown "
  "--runtime names and out-of-range numbers) cleanly")
