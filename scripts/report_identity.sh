#!/usr/bin/env bash
# Report-identity A/B gate for the report-writing tools: builds
# fluidicl_sim, fluidicl_serve and fluidicl_cluster at <base-rev> and from
# the current checkout, runs them over a fixed 40-configuration matrix
# (11 sim, 19 serve, 10 cluster) and compares report JSON, CSV, Chrome
# trace, stdout (minus the "written to <path>" lines) and exit code byte
# for byte. Any difference fails the gate: refactors that claim unchanged
# behaviour must leave every one of these outputs identical. The one
# exception is the lines naming two event-queue health keys (see
# IGNORED_KEYS below), which are dropped from both sides.
#
# Usage: scripts/report_identity.sh <base-rev>
#
# Environment:
#   WORK_DIR  scratch directory for both builds and all outputs
#             (default: ${TMPDIR:-/tmp}/fcl-report-identity)
#   JOBS      build parallelism (default: nproc)
#
# Exit status: 0 when all outputs match, 1 on any difference, 2 on usage
# or build errors.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 <base-rev>" >&2
  exit 2
fi
BASE_REV=$1
REPO=$(cd "$(dirname "$0")/.." && pwd)
WORK=${WORK_DIR:-${TMPDIR:-/tmp}/fcl-report-identity}
JOBS=${JOBS:-$(nproc)}
GEN=()
command -v ninja > /dev/null && GEN=(-G Ninja)

mkdir -p "$WORK"
WORK=$(cd "$WORK" && pwd)

# The base tree is a plain export of <base-rev>; re-extracting keeps the
# commit's file times, so a reused WORK_DIR rebuilds incrementally.
rm -rf "$WORK/base-src"
mkdir -p "$WORK/base-src"
git -C "$REPO" archive "$BASE_REV" | tar -x -C "$WORK/base-src" || {
  echo "error: cannot export $BASE_REV" >&2
  exit 2
}

build() { # <source dir> <build dir>
  cmake -S "$1" -B "$2" "${GEN[@]}" -DCMAKE_BUILD_TYPE=Release \
    > "$2.log" 2>&1 &&
    cmake --build "$2" -j "$JOBS" --target fluidicl_sim fluidicl_serve \
      fluidicl_cluster >> "$2.log" 2>&1 || {
    echo "error: build of $1 failed (see $2.log)" >&2
    exit 2
  }
}
echo "building $BASE_REV and the checkout in $WORK ..."
build "$WORK/base-src" "$WORK/base-build"
build "$REPO" "$WORK/head-build"

# The slot-pool event core has no tombstone compaction, so
# sim_compaction_runs is retired from the reports, and
# sim_pending_tombstones now counts only cancelled entries still queued
# (fired events no longer linger). Lines naming either key are dropped from
# both sides before comparing; every other byte must match.
IGNORED_KEYS='sim_(compaction_runs|pending_tombstones)'

CONFIGS=()
# Sim: a single run (bare fcl-run-report-v1, --stats summary on stdout),
# every runtime over the paper suite (the fcl-run-report-set-v1 wrapper),
# the paper suite without unrolling, with abort checks only at work-group
# start, and with both analyzers armed, and a functional run with both
# analyzers armed.
CONFIGS+=("sim --workload=syrk --runtime=fluidicl --stats")
CONFIGS+=("sim --workload=paper --runtime=all")
CONFIGS+=("sim --workload=paper --runtime=fluidicl --no-unroll --stats")
CONFIGS+=("sim --workload=paper --runtime=fluidicl --no-abort-in-loops --stats")
CONFIGS+=("sim --workload=paper --runtime=fluidicl --check=fail --races=fail")
CONFIGS+=("sim --workload=syrk --size=128 --runtime=fluidicl --functional --check=fail --races=fail")
# Sim: each baseline runtime alone, functionally, so its own trace (queue
# names and command order) is compared too; --runtime=all keeps only the
# last runtime's trace.
for r in cpu gpu "static --gpu-fraction=0.6" socl-eager socl-dmda; do
  CONFIGS+=("sim --workload=bicg --size=256 --runtime=$r --functional")
done
# Serve: every policy under both open-loop kinds and two closed loops.
for p in fifo affine corun; do
  for a in poisson:400 uniform:300 closed:1 closed:0.2; do
    CONFIGS+=("serve --streams=8 --policy=$p --arrival=$a --duration=0.1 --seed=7")
  done
done
# Serve: closed loop with a queue so shallow most requests are rejected,
# so streams re-arm from the reject path as well as from completions.
CONFIGS+=("serve --streams=8 --policy=corun --arrival=closed:0.5 --queue-depth=2 --duration=0.1 --seed=7")
# Serve: compound (DAG) jobs, open and closed loop, both placements.
for a in poisson:300 closed:1; do
  for pl in residency blind; do
    CONFIGS+=("serve --mix=pipeline --streams=8 --policy=corun --arrival=$a --placement=$pl --duration=0.1 --seed=7")
  done
done
# Serve: functional runs with validation and both analyzers armed.
for m in mixed pipeline; do
  CONFIGS+=("serve --mix=$m --streams=4 --policy=corun --arrival=poisson:200 --duration=0.05 --seed=3 --functional --validate --check=fail --races=fail")
done
# Cluster: 1/2/4 workers under least-loaded and hash-affine placement.
for w in 1 2 4; do
  for pl in least hash; do
    CONFIGS+=("cluster --workers=$w --placement=$pl --streams=8 --arrival=poisson:400 --duration=0.1 --seed=7")
  done
done
CONFIGS+=("cluster --workers=2 --placement=least --streams=8 --arrival=uniform:300 --duration=0.1 --seed=7")
for pl in size hash; do
  CONFIGS+=("cluster --workers=4 --placement=$pl --steal=on --streams=16 --arrival=poisson:600 --duration=0.05 --seed=11 --check=fail --races=fail")
done
CONFIGS+=("cluster --mix=pipeline --workers=2 --streams=4 --arrival=poisson:200 --duration=0.05 --seed=3 --functional --validate --races=fail")

run() { # <build dir> <out dir> <tool> <args...>
  local Bin=$1 Out=$2 Tool=$3 Csv
  shift 3
  case $Tool in
  sim) Csv=--stats-csv ;;
  serve) Csv=--requests-csv ;;
  *) Csv=--jobs-csv ;;
  esac
  mkdir -p "$Out"
  local Rc=0
  "$Bin/tools/fluidicl_$Tool" "$@" --stats-json="$Out/report.json" \
    "$Csv=$Out/out.csv" --trace="$Out/trace.json" \
    > "$Out/stdout.raw" 2> /dev/null || Rc=$?
  echo "$Rc" > "$Out/rc"
  grep -v " written to " "$Out/stdout.raw" > "$Out/stdout" || true
}

same() { # <base file> <head file>
  [ -e "$1" ] && [ -e "$2" ] &&
    cmp -s <(grep -v -E "$IGNORED_KEYS" "$1") \
      <(grep -v -E "$IGNORED_KEYS" "$2")
}

DIFFS=0
I=0
for C in "${CONFIGS[@]}"; do
  I=$((I + 1))
  read -r -a ARGV <<< "$C"
  rm -rf "$WORK/out/$I"
  run "$WORK/base-build" "$WORK/out/$I/base" "${ARGV[@]}"
  run "$WORK/head-build" "$WORK/out/$I/head" "${ARGV[@]}"
  Bad=()
  for F in report.json out.csv trace.json stdout rc; do
    [ -e "$WORK/out/$I/base/$F" ] || [ -e "$WORK/out/$I/head/$F" ] || continue
    same "$WORK/out/$I/base/$F" "$WORK/out/$I/head/$F" || Bad+=("$F")
  done
  if [ ${#Bad[@]} -eq 0 ]; then
    printf 'same  %2d  rc=%s  %s\n' "$I" "$(cat "$WORK/out/$I/head/rc")" "$C"
  else
    printf 'DIFF  %2d  %s  [%s]\n' "$I" "$C" "${Bad[*]}"
    DIFFS=$((DIFFS + 1))
  fi
done

echo "report identity vs $BASE_REV: $DIFFS of ${#CONFIGS[@]} configurations differ"
[ "$DIFFS" -eq 0 ]
