#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Runs one untraced pass of every workload, at both sizes, for each program
seed, and writes perfbench/expected.json.  Run it only to re-record after a
deliberate change of output; the recording in the repository comes from
the package as it stood when the benchmark was added.  Walk operations are
not recorded: their reference is the exact probability that the walk returns
to the root within its step cap, computed here from the depth chain of the
sequence tree.
"""

from __future__ import annotations

import json
import shutil
import sys

import numpy as np

import checks
import run
import workloads


def branch_depths(N: int) -> set[int]:
    """Depths of the sequence tree whose vertices have two children:
    n = k(k+3)/2 for k >= 1 (2, 5, 9, 14, ...); all others have one."""
    return {k * (k + 3) // 2 for k in range(1, N + 1) if k * (k + 3) // 2 <= N}


def return_probability(lam: float, N: int, cap: int) -> float:
    """P(the walk from the root returns within cap steps) on the depth-N
    sequence tree with conductances c(e) = exp(-|e|**lam).

    The walk's depth is a birth-death chain: from depth n it steps up with
    probability c(n) / (c(n) + d(n) c(n+1)), d(n) the number of children;
    depth-N vertices are leaves, so the chain reflects there.  The first
    step (root to depth 1) is forced, leaving cap - 1 steps to return.
    """
    n = np.arange(1, N + 1, dtype=float)
    branching = branch_depths(N)
    d = np.array([2.0 if k in branching else 1.0 for k in range(1, N + 1)])
    d[-1] = 0.0
    p_up = 1.0 / (1.0 + d * np.exp(-(np.power(n + 1, lam) - np.power(n, lam))))
    dist = np.zeros(N + 2)  # mass at depth 0..N+1; depth 0 absorbs
    dist[1] = 1.0
    returned = 0.0
    for _ in range(cap - 1):
        mass = dist[1:N + 1]
        nxt = np.zeros(N + 2)
        nxt[0:N] += mass * p_up
        nxt[2:N + 2] += mass * (1.0 - p_up)
        returned += nxt[0]
        nxt[0] = 0.0
        dist = nxt
    return float(returned)


def walk_reference(op) -> dict:
    opt = {op.argv[i]: op.argv[i + 1] for i in range(1, len(op.argv) - 1, 2)}
    p = return_probability(float(opt["--lambda"]), int(opt["--depth"]), int(opt["--cap"]))
    return {"return_probability": p, "trials": int(opt["--trials"])}


def record_workload(name: str, tiny: bool, env: dict) -> dict:
    ops = workloads.WORKLOADS[name](tiny)
    entry = {"files": {}, "seeds": {}, "walk": {}}
    pass_dir = run.WORK / "record"
    for seed in range(checks.PROGRAM_SEEDS):
        res = run.run_pass(ops, seed, False, pass_dir, env, timeout=600)
        if res is None or any(o["rc"] != 0 for o in res["ops"]):
            raise SystemExit(f"{name} seed {seed}: an operation failed")
        seeded = {}
        for op in ops:
            if "recorded" not in op.checks:
                continue
            outputs = checks.record_op(op, pass_dir)
            if op.seeded:
                seeded.update(outputs)
            elif seed == 0:
                entry["files"].update(outputs)
            elif any(not checks.same(v, entry["files"][k]) for k, v in outputs.items()):
                raise SystemExit(f"{name}: unseeded output of {op.argv[0]} depends on the seed")
        entry["seeds"][str(seed)] = seeded
        print(f"recorded {name} {'tiny' if tiny else 'full'} seed {seed}", file=sys.stderr)
    for op in ops:
        if "walk" in op.checks:
            entry["walk"][op.outputs()[0]] = walk_reference(op)
    shutil.rmtree(pass_dir, ignore_errors=True)
    return entry


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    env = run.child_env()
    expected = {size: {name: record_workload(name, size == "tiny", env)
                       for name in workloads.WORKLOADS}
                for size in ("full", "tiny")}
    with open(checks.EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
