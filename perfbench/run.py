#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all      # every workload, both modes

Run it from the repository root. The first run configures and builds the
simulator and the `perfbench` binary into `.bench_build/` (Release); later
runs only let the build check that it is up to date. Each workload runs in its
own single-threaded `perfbench` process, which verifies its outputs and prints
one JSON object as the last line of stdout. Build output goes to stderr.

`--tiny` (test-sized inputs) and `--break-kernel NAME` (register a wrong body
over a kernel; verification must then fail) exist for test_perfbench.py.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["paper-sweep", "service-stream", "resident-chain"]
DEFAULT_SEED = 1
RUN_TIMEOUT_SECONDS = 170


def build():
    """Configures (once) and builds the binary. Returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources (src/) not found under " + ROOT,
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    return subprocess.run(compile_, cwd=ROOT, stdout=sys.stderr).returncode == 0


def run_workload(workload, seed, seconds, trace, extra=()):
    """Runs one workload process. Returns (exit code, stdout lines)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    command += list(extra)
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired as expired:
        out = expired.stdout or ""
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
        print(out, end="")
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1, []
    return done.returncode, done.stdout.splitlines()


def run_all(seed, seconds, extra):
    """Every workload, untraced then traced; one combined JSON line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            print("== %s --trace %d" % (workload, trace))
            code, lines = run_workload(workload, seed, seconds, trace, extra)
            for line in lines[:-1]:
                print(line)
            if code != 0 or not lines:
                return code or 1
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                metrics["%s/%s" % (workload, name)] = metric
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--break-kernel", default="")
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    extra = ["--tiny"] if args.tiny else []
    if args.break_kernel:
        extra += ["--break-kernel", args.break_kernel]
    if args.workload == "all":
        return run_all(args.seed, args.seconds, extra)
    code, lines = run_workload(args.workload, args.seed, args.seconds,
                               args.trace, extra)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
