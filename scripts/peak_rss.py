#!/usr/bin/env python3
"""Run `python -m ibntrees.cli ARGV` with the src/ next to this script and
fail above a peak-RSS bound.

    python3 scripts/peak_rss.py MAX_MB ARGV...

Prints the argv, the wall time and the child's peak resident set size
(`ru_maxrss` of that one child, from os.wait4: RUSAGE_CHILDREN would also
count every child reaped before an execve into this script), and exits
nonzero when the command fails or its peak exceeds MAX_MB megabytes (MiB).
"""

import os
import subprocess
import sys
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def main(argv):
    if len(argv) < 2:
        sys.exit(__doc__)
    bound, args = float(argv[0]), argv[1:]
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + inherited if inherited else ""))
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "ibntrees.cli", *args], env=env)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    rc = child.returncode = os.waitstatus_to_exitcode(status)
    mb = usage.ru_maxrss / 1024  # KiB on Linux
    print(f"{' '.join(args)}: {wall:.2f} s, peak RSS {mb:.1f} MB")
    if rc:
        sys.exit(f"exit code {rc}")
    if mb > bound:
        sys.exit(f"over the {argv[0]} MB bound")


if __name__ == "__main__":
    main(sys.argv[1:])
