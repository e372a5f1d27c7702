# Determinism gate for fluidicl_serve: two runs with identical seed and
# configuration must produce byte-identical report JSON, and a third run
# with the whole analysis stack armed (--check=fail --races=fail) must
# still exit 0 AND produce the very same bytes - the analyzers observe,
# they never perturb. A closed-loop a/b pair with a queue so shallow that
# most requests are rejected covers streams re-armed from both the reject
# and the completion path. Invoked by ctest as
#
#   cmake -DTOOL=<fluidicl_serve> -DOUT_DIR=<scratch dir> -P serve_determinism.cmake
#
# and fails (FATAL_ERROR) when any run exits non-zero or any pair of JSON
# documents differs.

if(NOT DEFINED TOOL OR NOT DEFINED OUT_DIR)
  message(FATAL_ERROR "serve_determinism.cmake needs -DTOOL= and -DOUT_DIR=")
endif()

file(MAKE_DIRECTORY "${OUT_DIR}")

# run_serve(<name> <args...>): one run writing ${OUT_DIR}/<name>.json; a
# non-zero exit fails the gate (under --check=fail --races=fail it means
# protocol or race findings under multi-tenant load).
function(run_serve NAME)
  execute_process(
    COMMAND "${TOOL}" ${ARGN} "--stats-json=${OUT_DIR}/${NAME}.json"
    RESULT_VARIABLE RC
    OUTPUT_QUIET)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "fluidicl_serve run '${NAME}' exited with ${RC}")
  endif()
endfunction()

# expect_same(<name> <name>): the two runs' JSON must be byte-identical.
function(expect_same A B)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${OUT_DIR}/${A}.json" "${OUT_DIR}/${B}.json"
    RESULT_VARIABLE DIFF)
  if(NOT DIFF EQUAL 0)
    message(FATAL_ERROR
            "same-seed serve runs produced different JSON "
            "(${OUT_DIR}/${A}.json vs ${OUT_DIR}/${B}.json)")
  endif()
endfunction()

set(ARGS --streams=8 --policy=corun --arrival=poisson:400 --duration=0.1
         --seed=7 --slo-ms=0)
run_serve(serve-a ${ARGS})
run_serve(serve-b ${ARGS})
# Run c: protocol checking and the happens-before race analyzer both armed
# at their failing policy. Exit 0 proves the multi-tenant run is clean;
# byte-equality with run a proves the analyzers never touch the report.
run_serve(serve-c ${ARGS} --check=fail --races=fail)
expect_same(serve-a serve-b)
expect_same(serve-a serve-c)

set(CLOSED --streams=8 --policy=corun --arrival=closed:0.5 --queue-depth=2
           --duration=0.1 --seed=7)
run_serve(closed-a ${CLOSED})
run_serve(closed-b ${CLOSED})
expect_same(closed-a closed-b)
message(STATUS "same-seed serve reports are byte-identical "
               "(analyzers on and off, open and closed loop)")
