#!/usr/bin/env python3
"""Repository benchmark for the FluidiCL reproduction.

Builds perfbench/ (which compiles the libraries from ../src) into
.bench_build/ at the repository root on first use, then runs one seeded
workload and prints its metrics. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.

  python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 20
  python3 perfbench/run.py --workload all --seed 1        # every workload
  python3 perfbench/run.py --self-test                    # smallest sizes

See perfbench/README.md for the workloads, the metrics and what moves them.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "fcl_perfbench")
SPANS_DIR = os.path.join(BUILD, "spans")
WORKLOADS = ["coop_kernels", "serve_mixed", "dag_functional", "cluster_2w"]


def build():
    """Configures (first time) and builds the benchmark; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("error: no FluidiCL sources next to perfbench/", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", BUILD, "--target", "fcl_perfbench",
                  "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            print("error: benchmark build failed", file=sys.stderr)
            return False
    return True


def revision():
    """git revision when the tree is a checkout, plus a digest of the
    sources, so results from different code never compare silently."""
    rev = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                               "HEAD"], capture_output=True, text=True)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "git:%s,src:%s" % (rev, h.hexdigest()[:12])


def fixed_layout():
    """Prefix that turns off address-space randomisation for the benchmark
    process: with it on, the code and heap land at a different alignment
    in every process, and millisecond-scale timings (set-up above all) split
    into two modes from one run to the next."""
    cmd = ["setarch", os.uname().machine, "-R"]
    try:
        ok = subprocess.run(cmd + ["true"],
                            capture_output=True).returncode == 0
    except OSError:
        ok = False
    return cmd if ok else []


def run_one(workload, seed, seconds, trace, smoke=False):
    """Runs the binary; returns (exit code, stdout lines)."""
    cmd = fixed_layout() + [
        BINARY, "--workload=" + workload, "--seed=%d" % seed,
        "--seconds=%s" % seconds, "--trace=%d" % trace, "--rev=" + revision()]
    if smoke:
        cmd.append("--smoke")
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd.append("--spans-out=" +
                   os.path.join(SPANS_DIR, workload + ".json"))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def last_json(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def self_test():
    """Smallest sizes: every metric of BENCHMARK.json is printed with its
    unit for every workload, and traced spans nest properly."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_one(w, 1, 0, trace, smoke=True)
            res = last_json(lines)
            tag = "%s trace=%d" % (w, trace)
            if code != 0 or res is None:
                problems.append("%s: exit %d, no result" % (tag, code))
                continue
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (tag, sorted(res)))
            if res.get("correct") is not True:
                problems.append("%s: correct is not true" % tag)
            printed = res.get("metrics", {})
            for m in spec[key]:
                got = printed.get(m["name"])
                if got is None:
                    problems.append("%s: %s missing" % (tag, m["name"]))
                elif got.get("unit") != m["unit"]:
                    problems.append("%s: %s unit %r, want %r" % (
                        tag, m["name"], got.get("unit"), m["unit"]))
            if trace:
                problems += check_spans(
                    tag, os.path.join(SPANS_DIR, w + ".json"))
            else:
                text = "\n".join(lines)
                for needed in ("fingerprint ", "sim_digest ", "failed_ratio "):
                    if needed not in text:
                        problems.append("%s: no %r line" % (tag, needed))
    for p in problems:
        print("self-test: " + p)
    print("self-test %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def check_spans(tag, path):
    try:
        with open(path) as f:
            spans = json.load(f)["spans"]
    except (OSError, ValueError, KeyError) as e:
        return ["%s: cannot read spans: %s" % (tag, e)]
    if not spans:
        return ["%s: no spans recorded" % tag]
    problems = []
    for s in spans:
        if s["end_ns"] < s["start_ns"]:
            problems.append("%s: span %d ends before it starts"
                            % (tag, s["id"]))
        if s["parent"] < 0:
            continue
        p = spans[s["parent"]]
        if not (p["start_ns"] <= s["start_ns"] and s["end_ns"] <= p["end_ns"]):
            problems.append("%s: span %d (%s) outside parent %d (%s)" % (
                tag, s["id"], s["name"], p["id"], p["name"]))
        if p["job"] != s["job"]:
            problems.append("%s: span %d job %d, parent job %d" % (
                tag, s["id"], s["job"], p["job"]))
    return problems[:10]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if not build():
        return 1
    if args.self_test:
        return self_test()

    names = WORKLOADS if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for w in names:
        code, lines = run_one(w, args.seed, args.seconds, args.trace)
        res = last_json(lines)
        print("\n".join(lines[:-1] if res is not None else lines))
        if code != 0:
            print("error: workload %s failed (exit %d)" % (w, code),
                  file=sys.stderr)
            status = 1
        if res is None:
            summary["correct"] = False
            continue
        if len(names) == 1:
            print(lines[-1])
            return status
        summary["correct"] = summary["correct"] and res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            summary["metrics"]["%s.%s" % (w, k)] = v
    if len(names) > 1:
        print(json.dumps(summary))
    return status


if __name__ == "__main__":
    sys.exit(main())
