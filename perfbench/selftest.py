#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size (a few seconds in all).

    python3 perfbench/selftest.py

Run from the repository root. For every workload it checks that:
  * every metric BENCHMARK.json names prints, with its unit, and no other;
  * the output check passes against the recorded reference (default
    seed) and against a computed RunSerial reference (another seed);
and that a corrupted reference makes the run fail with every job counted.
The benchmark itself makes the 1-vs-4-worker gate on the exact work
counters: at every seed its min(4, nproc)-worker campaigns must
reproduce the one-worker RunSerial map, so each passing run above
passes that gate too.
"""
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's build and runner)

failures = []


def expect(condition, message):
    if not condition:
        failures.append(message)
        print("FAIL: " + message)


def bench(workload, trace, seed=20231024, reference=run.REFERENCE):
    scratch = os.path.join(run.BUILD, "selftest-%d" % os.getpid())
    command = [run.BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", "0.3", "--trace", str(trace), "--size", "tiny",
               "--scratch", scratch, "--reference", reference]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return proc.returncode, run.last_json(proc.stdout.splitlines())


def main():
    if not run.build():
        print("FAIL: build")
        return 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {trace: {m["name"]: m["unit"] for m in spec[key]}
             for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    expect([w["name"] for w in spec["workloads"]] == run.WORKLOADS,
           "BENCHMARK.json workloads differ from run.WORKLOADS")

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            code, result = bench(workload, trace)
            tag = "%s trace=%d" % (workload, trace)
            expect(code == 0 and result.get("correct") is True,
                   tag + ": output check failed")
            expect(result.get("failed") == 0 and result.get("attempted", 0) > 0,
                   tag + ": failed/attempted %s/%s" %
                   (result.get("failed"), result.get("attempted")))
            printed = {name: m.get("unit")
                       for name, m in result.get("metrics", {}).items()}
            expect(printed == units[trace],
                   tag + ": metric names or units differ from BENCHMARK.json")

        code, result = bench(workload, 0, seed=7)
        expect(code == 0 and result.get("correct") is True,
               workload + ": computed reference (seed 7) check failed")

    # A reference that disagrees with the program must fail the run and
    # count every timed job as failed.
    with open(run.REFERENCE) as f:
        corrupt = json.load(f)
    corrupt["crawl_roster/tiny"]["report.json_fnv"] = "1"
    path = os.path.join(run.BUILD, "selftest-corrupt-reference.json")
    with open(path, "w") as f:
        json.dump(corrupt, f)
    code, result = bench("crawl_roster", 0, reference=path)
    os.remove(path)
    expect(code != 0 and result.get("correct") is False and
           result.get("failed") == result.get("attempted"),
           "corrupted reference was not detected: exit %d, %s" %
           (code, {k: result.get(k) for k in ("correct", "attempted",
                                              "failed")}))

    print("selftest: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
