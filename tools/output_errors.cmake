# Error-path gate for output files: when a requested report, CSV or trace
# cannot be written - its directory is missing, or the device is full so
# only the final flush fails - every report-writing tool must exit 1 with a
# single-line stderr diagnostic naming the path, not claim "written to" and
# exit 0. Invoked by ctest as
#
#   cmake -DSIM=<fluidicl_sim> -DSERVE=<fluidicl_serve>
#         -DCLUSTER=<fluidicl_cluster> -DOUT_DIR=<scratch dir>
#         -P output_errors.cmake

foreach(V SIM SERVE CLUSTER OUT_DIR)
  if(NOT DEFINED ${V})
    message(FATAL_ERROR "output_errors.cmake needs -D${V}=")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
set(MISSING "${OUT_DIR}/no-such-dir/t.json")

# expect_output_error(<tool> <path> <args...>): the tool must exit 1 and
# print exactly one stderr line, naming <path>.
function(expect_output_error TOOL PATH)
  execute_process(
    COMMAND "${TOOL}" ${ARGN}
    RESULT_VARIABLE RC
    OUTPUT_QUIET
    ERROR_VARIABLE ERR)
  get_filename_component(NAME "${TOOL}" NAME)
  if(NOT RC STREQUAL "1")
    message(FATAL_ERROR "${NAME} ${ARGN} exited with '${RC}', not 1")
  endif()
  string(FIND "${ERR}" "${PATH}" AT)
  if(AT EQUAL -1)
    message(FATAL_ERROR "${NAME} ${ARGN} stderr does not name ${PATH}: ${ERR}")
  endif()
  string(REGEX REPLACE "\n$" "" ERR_BODY "${ERR}")
  if(ERR_BODY MATCHES "\n")
    message(FATAL_ERROR
            "${NAME} ${ARGN} printed more than one stderr line: ${ERR}")
  endif()
endfunction()

set(SIM_RUN --workload=syrk --size=128 --runtime=fluidicl)
set(SERVE_RUN --streams=2 --duration=0.01)
set(CLUSTER_RUN --workers=2 --streams=2 --duration=0.01)

expect_output_error("${SIM}" "${MISSING}" ${SIM_RUN} --trace=${MISSING})
expect_output_error("${SERVE}" "${MISSING}" ${SERVE_RUN} --trace=${MISSING})
expect_output_error("${CLUSTER}" "${MISSING}" ${CLUSTER_RUN}
                    --trace=${MISSING})

if(EXISTS /dev/full)
  foreach(FLAG stats-json stats-csv)
    expect_output_error("${SIM}" /dev/full ${SIM_RUN} --${FLAG}=/dev/full)
  endforeach()
  foreach(FLAG stats-json requests-csv)
    expect_output_error("${SERVE}" /dev/full ${SERVE_RUN} --${FLAG}=/dev/full)
  endforeach()
  foreach(FLAG stats-json jobs-csv)
    expect_output_error("${CLUSTER}" /dev/full ${CLUSTER_RUN}
                        --${FLAG}=/dev/full)
  endforeach()
else()
  message(STATUS "no /dev/full: full-device cases skipped")
endif()

message(STATUS "every tool fails cleanly on unwritable outputs")
