#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                           [--trace 0|1] [--out FILE]
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --compare BEFORE.json AFTER.json

The first call configures and builds the benchmark package (perfbench/
CMakeLists.txt, which compiles the dsml libraries from src/) into
.bench_build/. A run prints the workload's report; its last line is one JSON
object with the keys correct, attempted, failed and metrics. The exit status
is 0 only when every correctness gate passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
# The workloads BENCHMARK.json lists, which --workload all runs. serve-wide
# runs only by name: its single server thread halves in speed for minutes
# at a time on a shared host, so it is not steady enough to gate on (see
# README.md).
WORKLOADS = ["sweep-mcf", "dse-mcf", "serve-narrow"]
RUN_TIMEOUT_S = 170
# Context fields that must agree before two results may be compared; the
# commit is what a comparison is about, so it may differ.
CONTEXT_KEYS = ["nproc", "pool_threads", "linalg_backend", "simd_variant",
                "build_type", "compiler"]


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark; build output goes to
    .bench_build/build.log, never to stdout."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no dsml source tree next to perfbench/ (expected src/)")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", PACKAGE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", BUILD, "-j", str(len(os.sched_getaffinity(0))),
                      "--target", "perfbench", "perfbench_tests"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(step))


def commit_id():
    """The git commit, or a digest of src/ and tools/ outside a repository."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def run_workload(workload, seed, seconds, trace, commit):
    """Runs one workload, echoing its report. Returns (exit status, record)."""
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--commit", commit]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(workload + ": no result within %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("%s: perfbench exited with status %d" % (workload,
                                                      proc.returncode))
    context = next((json.loads(l[len("context "):]) for l in lines
                    if l.startswith("context ")), None)
    record = {"workload": workload, "seed": seed, "trace": trace,
              "context": context, "result": json.loads(lines[-1])}
    return proc.returncode, record


def compare(before_path, after_path):
    """Prints metric ratios of two saved runs; refuses (status 2) when their
    run contexts differ."""
    with open(before_path) as f:
        before = {r["workload"]: r for r in json.load(f)}
    with open(after_path) as f:
        after = {r["workload"]: r for r in json.load(f)}
    status = 0
    for workload in [w for w in before if w in after]:
        a, b = before[workload], after[workload]
        differ = [k for k in CONTEXT_KEYS
                  if a["context"].get(k) != b["context"].get(k)]
        if differ or a["trace"] != b["trace"]:
            print("%s: refusing to compare, run contexts differ in %s" %
                  (workload, ", ".join(differ or ["trace"])))
            status = 2
            continue
        print("%s (%s -> %s)" % (workload, a["context"]["commit"],
                                 b["context"]["commit"]))
        for name, m in a["result"]["metrics"].items():
            new = b["result"]["metrics"].get(name)
            if new is None:
                continue
            ratio = new["value"] / m["value"] if m["value"] else float("nan")
            print("  %-28s %14.6g %14.6g %-8s x%.4f" %
                  (name, m["value"], new["value"], m["unit"], ratio))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["serve-wide", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="also save the results as JSON here")
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own unit tests")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two files written with --out")
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    build()
    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "perfbench_tests"),
                               os.path.join(ROOT, "BENCHMARK.json")],
                              cwd=ROOT).returncode

    commit = commit_id()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    statuses, records = [], []
    for workload in workloads:
        status, record = run_workload(workload, args.seed, args.seconds,
                                      args.trace, commit)
        statuses.append(status)
        records.append(record)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(records, f, indent=2)
    if len(records) > 1:
        # One line for the whole set, metrics prefixed by workload.
        combined = {"correct": all(r["result"]["correct"] for r in records),
                    "attempted": sum(r["result"]["attempted"] for r in records),
                    "failed": sum(r["result"]["failed"] for r in records),
                    "metrics": {r["workload"] + "." + name: m
                                for r in records
                                for name, m in r["result"]["metrics"].items()}}
        print(json.dumps(combined))
    return max(statuses)


if __name__ == "__main__":
    sys.exit(main())
