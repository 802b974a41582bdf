#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload link_mux --seed 1 --seconds 20 --trace 0

`--workload all` runs the three workloads one after another with the
same seed and prints one combined JSON line whose metric names are
prefixed with the workload.

Run from the repository root. The first call configures and builds the
library and the `perfbench` binary into `.bench_build/` (Release); later
calls only let CMake confirm the build is current. The binary's standard
output is passed through; its last line is the JSON result. Build output
goes to standard error. Exits non-zero, without a result line, when the
sources are missing or the build fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 175
WORKLOADS = ["link_mux", "fleet_mixed", "fleet_small_b"]


def fail(msg, code):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("cmake configure failed", 3)
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
        fail("build failed", 3)


def source_id():
    """The git commit when run from a clone; otherwise a digest of the
    sources the benchmark builds (a checkout without .git)."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def run_one(workload, args, sha, capture):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", sha]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: run exceeded {RUN_TIMEOUT_S} s", 4)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail(f"missing {need}: run from a full source checkout", 2)
    build()
    sha = source_id()
    if args.workload != "all":
        sys.exit(run_one(args.workload, args, sha, capture=False).returncode)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for w in WORKLOADS:
        print(f"# ==== {w}", flush=True)
        r = run_one(w, args, sha, capture=True)
        lines = r.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = code or r.returncode
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            fail(f"{w}: no result line", 5)
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = m
    print(json.dumps(combined))
    sys.exit(code)


if __name__ == "__main__":
    main()
