#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at smoke size, untraced and traced, through
`perfbench/run.py` and checks that every metric `BENCHMARK.json` names
is printed with its unit and a finite value. Then checks that the exact
metrics repeat across two runs of one seed, and that one corrupted
output word is caught: the run reports `correct: false` and a non-zero
error rate. Exits non-zero on the first failed check.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ["array_cycles", "ucode_words", "artifact_bytes"]
EXACT_LAYERS = ["host.words", "rewrite.hits", "modulo.ii_sum"]


def run(workload, trace, seed=5, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"FAIL {workload} trace={trace}: no output\n{proc.stderr[-2000:]}")
    return proc.returncode, json.loads(lines[-1]), proc.stdout


def check(cond, what):
    if not cond:
        sys.exit(f"FAIL {what}")
    print(f"ok   {what}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    runs = {}
    for w in [w["name"] for w in bench["workloads"]]:
        for trace, key in [(0, "end_to_end"), (1, "per_layer")]:
            code, result, _ = run(w, trace)
            runs[(w, trace)] = result
            check(code == 0 and result["correct"] and result["failed"] == 0,
                  f"{w} trace={trace} runs correct")
            check(result["attempted"] >= 1, f"{w} trace={trace} attempts work")
            metrics = result["metrics"]
            check(set(metrics) == {m["name"] for m in bench[key]},
                  f"{w} trace={trace} prints exactly the {key} metrics")
            for m in bench[key]:
                got = metrics[m["name"]]
                check(got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
                      and math.isfinite(got["value"]),
                      f"{w} trace={trace} {m['name']} = {got['value']} {got['unit']}")

    _, again, _ = run("kernels", 0)
    for name in EXACT:
        check(again["metrics"][name] == runs[("kernels", 0)]["metrics"][name],
              f"{name} repeats across two runs of one seed")
    _, again, _ = run("kernels", 1)
    for name in EXACT_LAYERS:
        check(again["metrics"][name] == runs[("kernels", 1)]["metrics"][name],
              f"{name} repeats across two runs of one seed")

    code, result, out = run("kernels", 0, extra=["--corrupt"])
    rate = [l for l in out.splitlines() if l.startswith("metric error_rate = ")]
    check(code != 0 and not result["correct"] and result["failed"] >= 1,
          "a corrupted output word fails the run")
    check(rate and float(rate[0].split()[3]) > 0, "a corrupted output word raises error_rate")
    check(result["metrics"]["ok_ratio"]["value"] < 1, "a corrupted output word lowers ok_ratio")
    print("selftest passed")


if __name__ == "__main__":
    main()
