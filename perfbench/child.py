"""One workload pass in a fresh interpreter.

    python3 child.py SPEC RESULT

SPEC is a JSON file {"src": ..., "ops": [[argv...], ...], "trace": bool,
"spans": path}.  The process imports ibntrees.cli, then calls
ibntrees.cli.main(argv) for each operation in turn in its working
directory, and writes RESULT: import and wall times, peak RSS, CPU time,
per-operation exit codes, times and slowdowns, and the per-layer metrics
when traced.  The calibration kernels (calibrate.py) run before the first
operation and after each one, outside its time; an operation's slowdown is
the mean of the two around it, and `wall_s` is the sum of the operations'
times divided by their slowdowns (`measured_wall_s` without the division).
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _dir_bytes() -> int:
    return sum(p.stat().st_size for p in Path(".").iterdir() if p.is_file())


def _call(main, argv) -> int | str:
    """Exit code of one operation, or a description of what it raised."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return f"raised {sys.exc_info()[0].__name__}"


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    import ibntrees.cli
    import numpy
    import_s = time.perf_counter() - t0
    from calibrate import slowdown  # next to this script, so on sys.path
    src = Path(spec["src"]).resolve()
    loaded = Path(ibntrees.cli.__file__).resolve()
    if src not in loaded.parents:
        print(f"error: imported {loaded}, not the package under {src}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        from tracer import Tracer  # next to this script, so on sys.path
        tracer = Tracer()
        tracer.install()
    cli_main = ibntrees.cli.main

    ops = []
    cpu_s = 0.0
    slow_before = slowdown()
    for index, argv in enumerate(spec["ops"]):
        cpu = _cpu_s()
        t = time.perf_counter()
        if tracer is None:
            rc = _call(cli_main, argv)
        else:
            tracer.op = index
            before = _dir_bytes()
            rc = tracer.span("cli", _call, cli_main, argv)
            if rc != 0:
                tracer.counts["cli.errors"] += 1
            tracer.counts["cli.bytes_written"] += _dir_bytes() - before
        seconds = time.perf_counter() - t
        cpu_s += _cpu_s() - cpu
        slow_after = slowdown()
        ops.append({"rc": rc, "seconds": seconds,
                    "slowdown": (slow_before + slow_after) / 2})
        slow_before = slow_after
    measured_wall_s = sum(op["seconds"] for op in ops)
    wall_s = sum(op["seconds"] / op["slowdown"] for op in ops)

    result = {
        "import_s": import_s,
        "wall_s": wall_s,
        "measured_wall_s": measured_wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "ops": ops,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(measured_wall_s, cpu_s)
        result["layers"]["trace.wall_s"] = wall_s
        with open(spec["spans"], "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": [list(span) for span in tracer.spans]}, fh)
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
