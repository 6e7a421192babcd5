#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json lists the metrics of metrics.py with their units;
that for every workload, an untraced run prints every end-to-end metric and
a traced run every per-layer metric, each with its unit; that no operation
fails (in a traced run, traced and untraced passes must also write
identical data files); and that in a directory holding only BENCHMARK.json
and the benchmark, the benchmark exits nonzero without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import metrics
import run
import workloads

BENCH_DIR = Path(__file__).resolve().parent


def declared() -> tuple[dict, dict]:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def run_bench(cwd: Path, workload: str, trace: int, size: str = "tiny"):
    return subprocess.run(
        [sys.executable, str(cwd / BENCH_DIR.name / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", size],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result_problems(proc, units: dict) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(res)}")
    if not res.get("correct") or res.get("failed") != 0 or res.get("attempted", 0) < 1:
        problems.append(f"correct={res.get('correct')} failed={res.get('failed')} "
                        f"attempted={res.get('attempted')}: {proc.stderr.strip()[-500:]}")
    printed = res.get("metrics", {})
    if set(printed) != set(units):
        problems.append(f"metrics missing {sorted(set(units) - set(printed))}, "
                        f"unexpected {sorted(set(printed) - set(units))}")
    for name, m in printed.items():
        if m.get("unit") != units.get(name) or not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name}: {m}")
    return problems


def main() -> int:
    failures = 0

    def report(what: str, problems: list[str]) -> None:
        nonlocal failures
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {what}")
        for p in problems:
            print(f"    {p}")

    e2e, layers = declared()
    report("BENCHMARK.json end_to_end matches metrics.py",
           [] if e2e == metrics.END_TO_END else [f"{e2e} != {metrics.END_TO_END}"])
    want = {n: metrics.unit(n) for n in metrics.per_layer()}
    report("BENCHMARK.json per_layer matches metrics.py",
           [] if layers == want else [f"differs in {sorted(set(layers) ^ set(want))}"])

    for workload in workloads.WORKLOADS:
        for trace, units in ((0, e2e), (1, layers)):
            report(f"{workload} --trace {trace}",
                   result_problems(run_bench(run.ROOT, workload, trace), units))

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "structured", 0, "full")
    shutil.rmtree(bare)
    report("without the package: nonzero exit and no result",
           [] if proc.returncode != 0 and '"correct"' not in proc.stdout
           else [f"exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
