#!/usr/bin/env python3
"""ibntrees benchmark: closed-loop workloads of CLI operations.

    python3 perfbench/run.py --workload {structured,materialized,constructions}
                             --seed N --seconds S --trace {0,1} [--size tiny]

Run from the root of a checkout; nothing needs installing.  Set-up time is
the median of several fresh `import ibntrees.cli`.  Then workload passes run
one after another until the next would end past S seconds: each pass is a
fresh single-threaded process (child.py) that calls ibntrees.cli.main for
each operation in turn, and every operation's output is checked (checks.py).
Untraced runs report medians over passes of the end-to-end metrics; traced
runs alternate untraced and traced passes, report per-layer medians and
the tracing overhead, and require both kinds of pass to write identical
data files.  Times are reported at the reference machine's speed: each is
divided by the slowdown of the calibration kernels run around it
(calibrate.py), because the speed of a shared virtual machine drifts in
phases longer than a run.  The line before the result gives the medians as
measured.  The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import metrics
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BENCH = Path(__file__).resolve().parent
CHILD = BENCH / "child.py"

SETUP_PROBES = 11
RUN_LIMIT_S = 170.0  # every run must end within 180 s
# Times the import, then the calibration kernels (calibrate.py) after it.
PROBE = ("import sys, time; t = time.perf_counter(); import ibntrees.cli; "
         "seconds = time.perf_counter() - t; sys.path.insert(0, {bench!r}); "
         "from calibrate import slowdown; print(seconds, slowdown())")


def child_env() -> dict:
    """Environment of every process the benchmark starts: the absolute src
    path first on the import path, and numpy's thread pools held to one."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env.pop("IBNTREES_OUTDIR", None)
    return env


def setup_seconds(env: dict) -> tuple[float, float]:
    """Median import time over SETUP_PROBES fresh interpreters, after one
    that warms the file cache and writes bytecode: calibrated (each import
    time divided by the slowdown measured right after it) and as measured."""
    probes = []
    for _ in range(SETUP_PROBES + 1):
        out = subprocess.run([sys.executable, "-c", PROBE.format(bench=str(BENCH))],
                             env=env, cwd=WORK, capture_output=True, text=True, timeout=60)
        if out.returncode != 0:
            raise RuntimeError(f"import ibntrees.cli failed:\n{out.stderr}")
        seconds, slow = map(float, out.stdout.split())
        probes.append((seconds / slow, seconds))
    return (statistics.median(p[0] for p in probes[1:]),
            statistics.median(p[1] for p in probes[1:]))


def run_pass(ops, seed: int, traced: bool, pass_dir: Path, env: dict,
             timeout: float) -> dict | None:
    """One workload process; its result, or None if it did not finish."""
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    spec, result = WORK / "spec.json", WORK / "result.json"
    result.unlink(missing_ok=True)
    spec.write_text(json.dumps({
        "src": str(SRC), "trace": traced, "spans": str(WORK / "spans.json"),
        "ops": [op.command(checks.program_seed(seed)) for op in ops]}))
    try:
        proc = subprocess.run([sys.executable, str(CHILD), str(spec), str(result)],
                              cwd=pass_dir, env=env, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"error: workload process exceeded {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result.is_file():
        print(f"error: workload process exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(result.read_text())


def failed_ops(ops, res: dict, pass_dir: Path, recorded: dict, walk_exact: dict) -> int:
    failed = 0
    for op, outcome in zip(ops, res["ops"]):
        problems = ([f"exit {outcome['rc']}"] if outcome["rc"] != 0
                    else checks.check_op(op, pass_dir, recorded, walk_exact))
        for p in problems:
            print(f"FAIL {' '.join(op.argv)}: {p}", file=sys.stderr)
        failed += bool(problems)
    return failed


def differing_files(a: Path, b: Path) -> list[str]:
    """Data files (manifests aside, which hold timestamps) that differ."""
    def data(d):
        return {p.name for p in d.iterdir() if not p.name.endswith(".manifest.json")}
    names = data(a) | data(b)
    return sorted(n for n in names if not ((a / n).is_file() and (b / n).is_file()
                                           and (a / n).read_bytes() == (b / n).read_bytes()))


def measure(ops, args, recorded: dict, walk_exact: dict, env: dict, began: float):
    """Passes until the next would end past args.seconds (or the run limit);
    traced runs alternate untraced and traced passes.  Returns (passes by
    traced flag, operations attempted, operations failed)."""
    passes: dict[bool, list[dict]] = {False: [], True: []}
    attempted = failed = rounds = 0
    start = time.perf_counter()
    budget = min(args.seconds, RUN_LIMIT_S - (start - began))
    while True:
        for traced in ((False, True) if args.trace else (False,)):
            pass_dir = WORK / ("pass-traced" if traced else "pass")
            remaining = RUN_LIMIT_S - (time.perf_counter() - began)
            res = run_pass(ops, args.seed, traced, pass_dir, env, max(remaining, 1.0))
            attempted += len(ops)
            if res is None:
                return passes, attempted, failed + len(ops)
            failed += failed_ops(ops, res, pass_dir, recorded, walk_exact)
            passes[traced].append(res)
        if args.trace:
            for name in differing_files(WORK / "pass", WORK / "pass-traced"):
                print(f"FAIL traced and untraced passes differ in {name}", file=sys.stderr)
                failed += 1
        rounds += 1
        used = time.perf_counter() - start
        if used + used / rounds > budget:
            return passes, attempted, failed


def git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine(numpy_version: str | None) -> dict:
    sha = git("rev-parse", "HEAD")
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha or "unknown",
            "dirty": bool(git("status", "--porcelain")) if sha else None,
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy_version}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs the self-test's small inputs")
    args = ap.parse_args()
    began = time.perf_counter()

    if not (SRC / "ibntrees" / "cli.py").is_file():
        print(f"error: no ibntrees package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    ops = workloads.WORKLOADS[args.workload](args.size == "tiny")
    recorded, walk_exact = checks.recordings(checks.load_expected(), args.size,
                                             args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    env = child_env()
    setup_s, measured_setup_s = setup_seconds(env)

    passes, attempted, failed = measure(ops, args, recorded, walk_exact, env, began)
    for d in ("pass", "pass-traced"):
        shutil.rmtree(WORK / d, ignore_errors=True)
    if not passes[False] or (args.trace and not passes[True]):
        print("error: no workload pass completed", file=sys.stderr)
        return 1

    walls = [p["wall_s"] for p in passes[False]]
    measured = {"wall_s": statistics.median(p["measured_wall_s"] for p in passes[False]),
                "setup_s": measured_setup_s}
    if args.trace:
        values = {name: statistics.median(p["layers"][name] for p in passes[True])
                  for name in metrics.per_layer() if name != "trace.overhead_s"}
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(walls)
        names = metrics.per_layer()
    else:
        values = {"wall_s": statistics.median(walls),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes[False]),
                  "setup_s": setup_s,
                  "ops_passed": (attempted - failed) / attempted}
        names = list(metrics.END_TO_END)

    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace, "machine": machine(passes[False][0]["numpy"]),
              "setup_s": setup_s, "measured": measured,
              "passes": passes[False] + passes[True]}
    (WORK / f"result_{args.workload}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print("machine: " + json.dumps(record["machine"]))
    print("measured, before calibration: " + json.dumps(measured))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": values[n], "unit": metrics.unit(n)} for n in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
