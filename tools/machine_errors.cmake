# Error-path gate for --machine (and fluidicl_sim's --runtime): every
# simulator-backed tool must reject an unknown machine name with a
# single-line stderr diagnostic naming the bad value and the accepted set,
# and a non-zero (usage) exit - not a crash, not a silent fallback to the
# paper machine. Invoked by ctest as
#
#   cmake -DSIM=<fluidicl_sim> -DCHECK=<fluidicl_check>
#         -DSERVE=<fluidicl_serve> -DCLUSTER=<fluidicl_cluster>
#         -P machine_errors.cmake

foreach(V SIM CHECK SERVE CLUSTER)
  if(NOT DEFINED ${V})
    message(FATAL_ERROR "machine_errors.cmake needs -D${V}=")
  endif()
endforeach()

function(expect_unknown_value TOOL OPTION VALUE)
  execute_process(
    COMMAND "${TOOL}" ${ARGN} --${OPTION}=${VALUE}
    RESULT_VARIABLE RC
    OUTPUT_QUIET
    ERROR_VARIABLE ERR)
  get_filename_component(NAME "${TOOL}" NAME)
  if(RC EQUAL 0)
    message(FATAL_ERROR "${NAME} accepted --${OPTION}=${VALUE} (exit 0)")
  endif()
  if(NOT ERR MATCHES "unknown --${OPTION} '${VALUE}'")
    message(FATAL_ERROR
            "${NAME} --${OPTION}=${VALUE} stderr lacks the diagnostic: ${ERR}")
  endif()
  # One line only: a trailing newline is fine, embedded ones are not.
  string(REGEX REPLACE "\n$" "" ERR_BODY "${ERR}")
  if(ERR_BODY MATCHES "\n")
    message(FATAL_ERROR
            "${NAME} --${OPTION}=${VALUE} printed more than one line: ${ERR}")
  endif()
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

message(STATUS
  "all four tools reject unknown --machine names (and fluidicl_sim unknown "
  "--runtime names) cleanly")
