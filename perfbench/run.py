#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload crawl_roster --seed 1 --seconds 20 \
        --trace 0

Run from the repository root. The C++ benchmark is configured and built
under .bench_build/perfbench (an incremental no-op once built), then run
with the given arguments; its last stdout line is the JSON result.
Scratch files (result cache, spill segments) live under .bench_build and
are removed when the run ends.

    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

runs every workload untraced and traced, each in its own process, and
prints one table of all their metrics.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ["crawl_roster", "population_spill", "warm_replay"]


def build():
    """Configures and builds the benchmark; returns False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    out = os.path.join(BUILD, "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return False
    step = ["cmake", "--build", out, "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def last_json(lines):
    """The JSON result on the last stdout line, or {} when there is none."""
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {}


def run(args):
    """Runs the binary with `args`; returns (exit code, stdout lines)."""
    scratch = os.path.join(BUILD, "run-%d" % os.getpid())
    command = [BINARY] + args + ["--scratch", scratch,
                                 "--reference", REFERENCE]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return proc.returncode, proc.stdout.splitlines()


def option(argv, name, default):
    if name in argv:
        index = argv.index(name)
        if index + 1 < len(argv):
            return argv[index + 1]
    return default


def run_all(argv):
    seed = option(argv, "--seed", "20231024")
    seconds = option(argv, "--seconds", "10")
    ok = True
    rows = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, lines = run(["--workload", workload, "--seed", seed,
                               "--seconds", seconds, "--trace", trace])
            result = last_json(lines)
            ok = ok and code == 0 and result.get("correct") is True
            for name, metric in result.get("metrics", {}).items():
                rows.append((workload, name, metric["value"], metric["unit"]))
            print("%s trace=%s: correct=%s attempted=%s failed=%s" %
                  (workload, trace, result.get("correct"),
                   result.get("attempted"), result.get("failed")))
    for workload, name, value, unit in rows:
        print("%-18s %-34s %16.6f %s" % (workload, name, value, unit))
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if option(argv, "--workload", "") == "all":
        return run_all(argv)
    code, lines = run(argv)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
