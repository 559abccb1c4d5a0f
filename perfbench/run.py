#!/usr/bin/env python3
"""Builds the program from source and runs one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all        # every workload, traced and not

The program (src/main/scala) and the benchmark (perfbench/src) are compiled
with the Scala compiler that ships in the Spark distribution's jars
($SPARK_HOME/jars, else next to spark-submit on PATH) into
.bench_build/perfbench/<source hash>/; a later run with the same sources
reuses that build. Spill files and Spark's scratch space go to a directory
under .bench_build/tmp that is removed when the run ends.

Prints the metrics with their units, one `record:` line (machine, JVM, heap,
commit, seed, warm-up reps, sample counts), and as its last line the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import spec  # noqa: E402

BUILD = ROOT / ".bench_build" / "perfbench"
HEAP = "3g"  # -Xms = -Xmx, so the heap never resizes during a run
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800
# Spark needs these on Java 17, as spark-submit passes them.
JAVA_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.nio", "java.util", "sun.nio.ch", "sun.nio.cs")]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_jars():
    candidates = []
    if os.environ.get("SPARK_HOME"):
        candidates.append(pathlib.Path(os.environ["SPARK_HOME"]) / "jars")
    submit = shutil.which("spark-submit")
    if submit:
        candidates.append(pathlib.Path(submit).resolve().parent.parent / "jars")
    for c in candidates:
        if any(c.glob("scala-compiler-*.jar")):
            return c
    fail("no Spark distribution with a Scala compiler found; set SPARK_HOME")


def sources():
    program = sorted((ROOT / "src" / "main" / "scala").rglob("*.scala"))
    if not program:
        fail(f"no program sources under {ROOT / 'src' / 'main' / 'scala'}")
    return program + sorted((HERE / "src").glob("*.scala"))


def build(jars):
    """Compiles the sources once per distinct content; returns the class dir."""
    srcs = sources()
    h = hashlib.sha256()
    for p in srcs:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    h.update("\n".join(sorted(j.name for j in jars.glob("*.jar"))).encode())
    digest = h.hexdigest()
    out = BUILD / digest[:16] / "classes"
    if not out.is_dir():
        if BUILD.is_dir():
            shutil.rmtree(BUILD)
        staging = out.with_name("classes.tmp")
        staging.mkdir(parents=True)
        cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", f"{jars}/*",
               "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", str(staging)]
        r = subprocess.run(cmd + [str(p) for p in srcs], cwd=ROOT, timeout=BUILD_TIMEOUT_S,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout)
            fail("compilation failed")
        staging.rename(out)
    return out, digest


def commit():
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    return "unknown (no git checkout; see source_sha256)"


def cpu_model():
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_java(classes, jars, args):
    """Runs perfbench.Main; returns its parsed last stdout line."""
    tmp = ROOT / ".bench_build" / "tmp" / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    log = BUILD / "last-run.log"
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}"]
           + JAVA_OPENS + ["-cp", f"{classes}:{jars}/*", "perfbench.Main"] + args)
    try:
        with open(log, "w") as err:
            proc = subprocess.Popen(cmd, cwd=tmp, stdout=subprocess.PIPE, stderr=err, text=True,
                                    start_new_session=True)
            try:
                out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                fail(f"run exceeded {RUN_TIMEOUT_S} s; log in {log}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write("".join(log.read_text().splitlines(keepends=True)[-40:]))
        fail(f"benchmark exited with {proc.returncode}; log in {log}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, scale=1.0, corrupt=False):
    """Runs one workload; prints the table and record; returns the result."""
    jars = spark_jars()
    classes, digest = build(jars)
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0", "--scale", str(scale)]
    raw = run_java(classes, jars, args + (["--corrupt"] if corrupt else []))

    expected = spec.units(trace)
    got = raw["metrics"]
    if set(got) != set(expected):
        fail(f"metrics {sorted(set(got) ^ set(expected))} missing or not in spec.py")
    missing = [n for n, v in got.items() if v is None]
    if missing:
        fail(f"no sample for {missing}; problems: {raw['problems']}")

    for name, unit in expected.items():
        print(f"{workload:17s} {name:34s} {got[name]:>16.6g} {unit}")
    for p in raw["problems"]:
        print(f"{workload:17s} FAILED: {p}")
    record = {
        "workload": workload, "seed": seed, "default_seed": spec.DEFAULT_SEED,
        "held_out_seed": spec.HELD_OUT_SEED, "trace": trace, "seconds": seconds, "scale": scale,
        "commit": commit(), "source_sha256": digest, "jvm": raw["jvm"],
        "heap_flags": raw["heap_flags"], "nproc": raw["nproc"], "cpu": cpu_model(),
        "warmup_reps_discarded": raw["warmup_reps"], "samples": raw["samples"],
        "input_rows": raw["input_rows"], "rep_seconds": raw["rep_seconds"],
        "problems": raw["problems"],
    }
    print("record: " + json.dumps(record))
    return {
        "correct": raw["failed"] == 0 and not raw["problems"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {n: {"value": got[n], "unit": u} for n, u in expected.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS + spec.EXTRA_WORKLOADS])
    ap.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, traced and untraced")
    ap.add_argument("--scale", type=float, default=1.0, help="input size factor (smoke test)")
    ap.add_argument("--corrupt", action="store_true",
                    help="perturb the reference result, so every rep must fail (smoke test)")
    a = ap.parse_args()
    if a.all:
        ok = True
        for w in spec.WORKLOADS + spec.EXTRA_WORKLOADS:
            for trace in (False, True):
                r = run_workload(w["name"], a.seed, a.seconds, trace, a.scale, a.corrupt)
                ok = ok and r["correct"]
        sys.exit(0 if ok else 1)
    if not a.workload:
        ap.error("--workload or --all is required")
    result = run_workload(a.workload, a.seed, a.seconds, bool(a.trace), a.scale, a.corrupt)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
