#!/usr/bin/env python3
"""Control-plane benchmark entry point.

Builds the benchmark (a Release CMake build of cpbench/, which compiles the
dfim libraries from src/) under .bench_build/, runs the statistics
self-test, then runs one workload and prints its metrics. Run it from
anywhere:

    python3 cpbench/run.py --workload phase_lp --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Per-run records and span files go
to .bench_out/; this script adds the git and source provenance to the
record. Exit code 0 only when the build, the self-test, every self-check
of the runs and the metric names all pass.
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
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cpbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs cmd with its output on stderr; returns the exit code."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("cpbench: no dfim sources at %s/src; nothing to build" % ROOT)
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd, 300) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs], 840) == 0


def git(*args):
    try:
        out = subprocess.run(["git", "-C", ROOT] + list(args),
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance():
    """Git sha, dirty flag and a hash of the sources the benchmark builds."""
    sha, dirty = "none", "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = git("rev-parse", "HEAD") or "none"
        status = git("status", "--porcelain", "--untracked-files=no")
        if status is not None:
            dirty = "1" if status else "0"
    h = hashlib.sha256()
    for base in ("src", "bench", "cpbench"):
        top = os.path.join(ROOT, base)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return {"git_sha": sha, "git_dirty": dirty, "src_hash": h.hexdigest()[:16]}


def stamp_record(lines, stamp):
    """Adds `stamp` to the provenance of the record the driver names."""
    for line in lines:
        if line.startswith("record "):
            path = line[len("record "):]
            with open(path) as f:
                record = json.load(f)
            record["provenance"].update(stamp)
            with open(path, "w") as f:
                json.dump(record, f)
                f.write("\n")


def expected_metrics(trace):
    """{name: unit} the result must carry, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workload-seed", type=int,
                        help="dataflow stream seed (default 23)")
    args = parser.parse_args()

    if not build():
        log("cpbench: build failed")
        return 1
    if run_logged([os.path.join(BUILD_DIR, "cpbench_selftest")], 60) != 0:
        log("cpbench: statistics self-test failed")
        return 1

    want = expected_metrics(args.trace)
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "cpbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    if args.workload_seed is not None:
        cmd += ["--workload-seed", str(args.workload_seed)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("cpbench: driver exceeded %d s" % DRIVER_TIMEOUT_S)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode == 2 or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1
    stamp = provenance()
    stamp_record(lines, stamp)
    lines.insert(-1, "provenance %s" % json.dumps(stamp))

    # Every metric BENCHMARK.json names must be there, with its unit, and
    # nothing else.
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    rc = proc.returncode
    if result["correct"] and got != want:
        log("cpbench: metrics %s do not match BENCHMARK.json %s" % (got, want))
        result["correct"] = False
        lines[-1] = json.dumps(result)
        rc = 1
    print("\n".join(lines), flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
