#!/usr/bin/env python3
"""Self test of the repository benchmark, on reduced grids.

    python3 perfbench/selftest.py

For every workload, with and without tracing, runs the benchmark twice
with the same seed in --smoke mode. It checks that:

* the printed metrics are exactly those BENCHMARK.json lists for the
  mode, each with its unit;
* the run is correct and no iteration failed;
* the virtual-time metrics, speedup and every count repeat exactly
  across the two invocations.

Last, it checks that in a directory holding only BENCHMARK.json and
perfbench/ the command exits non-zero without printing a result.
Exits non-zero on the first failed check.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7

# Host-clock metrics; everything else must repeat exactly for a seed.
HOST_UNITS = {"s", "MB", "flop/s"}
HOST_NAMES = {"mp.host_parallelism"}


def run(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def result_of(done):
    if done.returncode != 0:
        sys.exit(f"FAIL: exit {done.returncode}\n{done.stderr[-3000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            first, second = (result_of(run(ROOT, workload, trace))
                             for _ in range(2))
            where = f"{workload} --trace {trace}"
            for res in (first, second):
                if sorted(res) != ["attempted", "correct", "failed",
                                   "metrics"]:
                    sys.exit(f"FAIL {where}: result keys {sorted(res)}")
                if not res["correct"] or res["failed"] != 0 or \
                        res["attempted"] < 1:
                    sys.exit(f"FAIL {where}: not correct: {res}")
                printed = {k: v["unit"] for k, v in res["metrics"].items()}
                want = {m["name"]: m["unit"] for m in expected[trace]}
                if printed != want:
                    sys.exit(f"FAIL {where}: printed metrics differ from "
                             f"BENCHMARK.json: {sorted(set(printed) ^ set(want))}")
            for m in expected[trace]:
                if m["unit"] in HOST_UNITS or m["name"] in HOST_NAMES:
                    continue
                a = first["metrics"][m["name"]]["value"]
                b = second["metrics"][m["name"]]["value"]
                if a != b:
                    sys.exit(f"FAIL {where}: {m['name']} not deterministic: "
                             f"{a} != {b}")
            print(f"ok  {where}: {len(first['metrics'])} metrics, "
                  f"deterministic across two invocations")

    # Without the library sources the build must fail, and no result
    # may be printed.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(bare, "sprayer-p4", 0)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        sys.exit("FAIL: bare directory produced a result")
    print("ok  bare directory: exits non-zero without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
