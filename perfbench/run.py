#!/usr/bin/env python3
"""Repo benchmark: builds aa_serve and the perfbench binary, runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (the solver and service libraries from src/, the
real aa_serve from tools/aa_serve.cpp, and the perfbench binary) into
.bench_build/; later calls only rebuild what changed. Build output goes to
stderr, so the last line of stdout is the JSON result:
the end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer
metrics with --trace 1. Workloads and metrics are described in
BENCHMARK.json; perfbench/README.md explains the layer split.

Exits non-zero when the build fails, when an output check fails, or when the
reported metrics differ from the ones BENCHMARK.json declares.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "cmake")
WORK = os.path.join(".bench_build", "work")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds the two targets the benchmark runs."""
    jobs = str(os.cpu_count() or 2)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", "perfbench", "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench",
         "aa_serve", "-j", jobs],
        check=True, stdout=sys.stderr)


def source_id():
    """The git commit when there is one, else a hash of the sources."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            check=True).stdout.strip()
        if sha:
            return sha
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for directory, _, files in sorted(os.walk(top)):
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(path.encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def declared_metrics(trace):
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    section = spec["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 1
    os.makedirs(WORK, exist_ok=True)
    command = [
        os.path.join(BUILD, "perfbench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--serve", os.path.join(BUILD, "aa_serve"), "--work-dir", WORK,
        "--git-sha", source_id(),
    ]
    # Its own session, so a hung run is killed with the aa_serve
    # processes it started.
    bench = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              start_new_session=True)
    try:
        output, _ = bench.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.communicate()
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stdout.write(output)
    sys.stdout.flush()
    lines = output.strip().splitlines()
    if bench.returncode != 0 or not lines:
        log(f"perfbench exited with {bench.returncode}")
        return 1
    result = json.loads(lines[-1])
    if {k: v["unit"] for k, v in result["metrics"].items()} != \
            declared_metrics(bool(args.trace)):
        log("the reported metrics differ from BENCHMARK.json")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
