#!/usr/bin/env python3
"""Smoke test of the benchmark at a small input size.

    python3 perfbench/smoke_test.py

Checks that BENCHMARK.json matches spec.py; that every workload, traced
and untraced, ends correct and prints every metric of spec.py with its unit
as its last line; that a corrupted reference result makes every rep count
as failed; and that the benchmark refuses to run without the program's
sources. Exits 0 when all hold.
"""

import json
import math
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import spec  # noqa: E402

SMALL = ["--scale", "0.02", "--seconds", "0.5", "--seed", str(spec.HELD_OUT_SEED)]


def run(args, cwd=ROOT, script=HERE / "run.py"):
    r = subprocess.run([sys.executable, str(script)] + args, cwd=cwd, capture_output=True,
                       text=True, timeout=300)
    lines = r.stdout.strip().splitlines()
    return r.returncode, (json.loads(lines[-1]) if r.returncode == 0 and lines else None), r


def check(cond, msg):
    if not cond:
        raise SystemExit(f"smoke test FAILED: {msg}")


def main():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(committed == spec.benchmark_json(), "BENCHMARK.json differs from spec.py; run spec.py")

    for w in spec.WORKLOADS + spec.EXTRA_WORKLOADS:
        for trace in (0, 1):
            code, res, r = run(["--workload", w["name"], "--trace", str(trace)] + SMALL)
            check(code == 0 and res is not None, f"{w['name']} trace={trace} exited {code}:\n{r.stderr}")
            check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"result keys {set(res)}")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{w['name']} trace={trace}: {res['correct']}, {res['failed']}/{res['attempted']}")
            units = spec.units(trace)
            check(set(res["metrics"]) == set(units), f"{w['name']}: metric names differ from spec")
            for name, m in res["metrics"].items():
                check(m["unit"] == units[name], f"{name}: unit {m['unit']} != {units[name]}")
                check(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
                      f"{name}: value {m['value']}")
            print(f"ok  {w['name']} trace={trace}: {len(units)} metrics, "
                  f"{res['attempted']} reps attempted")

    code, res, r = run(["--workload", "ordered-pipeline", "--trace", "0", "--corrupt"] + SMALL)
    check(code == 0 and res is not None, f"corrupt run exited {code}:\n{r.stderr}")
    check(not res["correct"] and res["failed"] == res["attempted"],
          f"a corrupted reference must fail every rep: {res['failed']}/{res['attempted']}")
    print(f"ok  corrupted reference: {res['failed']}/{res['attempted']} reps failed")

    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, res, r = run(["--workload", "intersect-sort", "--trace", "0"] + SMALL, cwd=bare,
                       script=bare / HERE.name / "run.py")
    shutil.rmtree(bare)
    check(code != 0 and not r.stdout.strip(), "without the program's sources the run must fail")
    print(f"ok  no program sources: exit {code}, nothing printed")


if __name__ == "__main__":
    main()
