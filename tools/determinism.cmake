# Same-seed determinism gates for the serving tools: runs with identical
# seed and configuration must produce byte-identical report JSON, and a
# run with the whole analysis stack armed (--check=fail --races=fail) must
# still exit 0 AND produce the very same bytes - the analyzers observe,
# they never perturb. Invoked by ctest as
#
#   cmake -DSUITE=<serve|dag|cluster> -DTOOL=<fluidicl_serve|fluidicl_cluster>
#         -DOUT_DIR=<scratch dir> -P determinism.cmake
#
# serve:   an open-loop a/b/armed triple, plus a closed-loop a/b pair with
#          a queue so shallow that most requests are rejected (streams are
#          re-armed from both the reject and the completion path).
# dag:     --mix=pipeline a/b, plus a functional armed run: cross-queue DAG
#          scheduling, residency tracking and per-node transfer elision
#          stay deterministic and analyzer-clean.
# cluster: at 1, 2 and 4 workers, a/b reports *and* merged traces plus an
#          armed run: OS thread scheduling must not leak into the
#          simulation through the epoch-barrier fabric.
#
# Fails (FATAL_ERROR) when any run exits non-zero or any pair differs.

foreach(V SUITE TOOL OUT_DIR)
  if(NOT DEFINED ${V})
    message(FATAL_ERROR "determinism.cmake needs -D${V}=")
  endif()
endforeach()

file(MAKE_DIRECTORY "${OUT_DIR}")
get_filename_component(TOOL_NAME "${TOOL}" NAME)

# run(<name> <args...>): one run writing ${OUT_DIR}/<name>.json; a non-zero
# exit fails the gate (for an armed run: protocol or race findings).
function(run NAME)
  execute_process(
    COMMAND "${TOOL}" ${ARGN} "--stats-json=${OUT_DIR}/${NAME}.json"
    RESULT_VARIABLE RC
    OUTPUT_QUIET)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "${TOOL_NAME} run '${NAME}' exited with ${RC}")
  endif()
endfunction()

# expect_same(<file> <file>): two outputs under OUT_DIR must be
# byte-identical.
function(expect_same A B)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT_DIR}/${A}"
            "${OUT_DIR}/${B}"
    RESULT_VARIABLE DIFF)
  if(NOT DIFF EQUAL 0)
    message(FATAL_ERROR "same-seed ${TOOL_NAME} runs differ "
                        "(${OUT_DIR}/${A} vs ${OUT_DIR}/${B})")
  endif()
endfunction()

set(ARMED --check=fail --races=fail)
if(SUITE STREQUAL "serve")
  set(ARGS --streams=8 --policy=corun --arrival=poisson:400 --duration=0.1
           --seed=7 --slo-ms=0)
  run(serve-a ${ARGS})
  run(serve-b ${ARGS})
  run(serve-c ${ARGS} ${ARMED})
  expect_same(serve-a.json serve-b.json)
  expect_same(serve-a.json serve-c.json)
  set(CLOSED --streams=8 --policy=corun --arrival=closed:0.5 --queue-depth=2
             --duration=0.1 --seed=7)
  run(closed-a ${CLOSED})
  run(closed-b ${CLOSED})
  expect_same(closed-a.json closed-b.json)
elseif(SUITE STREQUAL "dag")
  set(ARGS --mix=pipeline --streams=8 --policy=corun --arrival=poisson:300
           --duration=0.1 --seed=11 --slo-ms=0)
  run(dag-a ${ARGS})
  run(dag-b ${ARGS})
  run(dag-c ${ARGS} --functional ${ARMED})
  expect_same(dag-a.json dag-b.json)
  expect_same(dag-a.json dag-c.json)
elseif(SUITE STREQUAL "cluster")
  foreach(W 1 2 4)
    set(ARGS --workers=${W} --placement=least --steal=on --streams=8
             --policy=corun --arrival=poisson:400 --duration=0.1 --seed=7)
    run(w${W}-a ${ARGS} "--trace=${OUT_DIR}/w${W}-a.trace.json")
    run(w${W}-b ${ARGS} "--trace=${OUT_DIR}/w${W}-b.trace.json")
    run(w${W}-c ${ARGS} ${ARMED})
    expect_same(w${W}-a.json w${W}-b.json)
    expect_same(w${W}-a.json w${W}-c.json)
    expect_same(w${W}-a.trace.json w${W}-b.trace.json)
  endforeach()
else()
  message(FATAL_ERROR "unknown SUITE '${SUITE}' (serve|dag|cluster)")
endif()
message(STATUS "same-seed ${SUITE} reports are byte-identical "
               "(analyzers on and off)")
