# Error-path gate for policy-ish enum options and bounded numeric options:
# the serving tools must reject an unknown --policy / --placement /
# --dag-placement value, an out-of-range or non-numeric --queue-depth /
# --threshold / --link-us value, and a malformed or non-finite --arrival
# value, with a single-line stderr diagnostic naming the bad value (and
# the accepted set), and the usage exit code 1 - not a crash, not a silent
# fallback to the default. Invoked by ctest as
#
#   cmake -DSERVE=<fluidicl_serve> -DCLUSTER=<fluidicl_cluster>
#         -P policy_errors.cmake

foreach(V SERVE CLUSTER)
  if(NOT DEFINED ${V})
    message(FATAL_ERROR "policy_errors.cmake needs -D${V}=")
  endif()
endforeach()

# expect_policy_error(<tool> <diagnostic regex> <args...>): the tool must
# exit with the usage code 1 and print exactly one stderr line matching the
# regex.
function(expect_policy_error TOOL PATTERN)
  execute_process(
    COMMAND "${TOOL}" ${ARGN}
    RESULT_VARIABLE RC
    OUTPUT_QUIET
    ERROR_VARIABLE ERR)
  get_filename_component(NAME "${TOOL}" NAME)
  if(NOT RC STREQUAL "1")
    message(FATAL_ERROR "${NAME} ${ARGN} exited with '${RC}', not 1")
  endif()
  if(NOT ERR MATCHES "${PATTERN}")
    message(FATAL_ERROR
            "${NAME} ${ARGN} stderr lacks the diagnostic: ${ERR}")
  endif()
  # One line only: a trailing newline is fine, embedded ones are not.
  string(REGEX REPLACE "\n$" "" ERR_BODY "${ERR}")
  if(ERR_BODY MATCHES "\n")
    message(FATAL_ERROR
            "${NAME} ${ARGN} printed more than one stderr line: ${ERR}")
  endif()
endfunction()

set(SHORT --streams=2 --duration=0.01)

expect_policy_error("${SERVE}" "unknown --policy 'nosuch'"
                    ${SHORT} --policy=nosuch)
expect_policy_error("${SERVE}" "unknown --placement 'nosuch'"
                    ${SHORT} --placement=nosuch)
expect_policy_error("${CLUSTER}" "unknown --policy 'nosuch'"
                    --workers=2 ${SHORT} --policy=nosuch)
expect_policy_error("${CLUSTER}" "unknown --placement 'nosuch'"
                    --workers=2 ${SHORT} --placement=nosuch)
expect_policy_error("${CLUSTER}" "unknown --dag-placement 'nosuch'"
                    --workers=2 ${SHORT} --dag-placement=nosuch)

foreach(TOOL "${SERVE}" "${CLUSTER}")
  expect_policy_error("${TOOL}" "bad --queue-depth value '0'"
                      ${SHORT} --queue-depth=0)
  expect_policy_error("${TOOL}" "bad --queue-depth value 'abc'"
                      ${SHORT} --queue-depth=abc)
  expect_policy_error("${TOOL}" "bad --threshold value '-1'"
                      ${SHORT} --threshold=-1)
endforeach()
expect_policy_error("${CLUSTER}" "bad --link-us value '-5'"
                    --workers=2 ${SHORT} --link-us=-5)

# --arrival values must parse whole and be finite: a trailing suffix must
# not be dropped, and NaN or infinity must not reach the load generator.
foreach(TOOL "${SERVE}" "${CLUSTER}")
  foreach(A poisson:5abc poisson:nan poisson:inf)
    expect_policy_error("${TOOL}" "malformed arrival value in '${A}'"
                        ${SHORT} --arrival=${A})
  endforeach()
endforeach()
expect_policy_error("${SERVE}" "malformed arrival value in 'closed:nan'"
                    ${SHORT} --arrival=closed:nan)

message(STATUS
        "both serving tools reject bad policy/placement/numeric values "
        "cleanly")
