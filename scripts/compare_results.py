#!/usr/bin/env python3
"""Compare two results directories written by the ibntrees CLI (for example
two runs of reproduce_all.py): the behaviour check for a refactor.

Every data file must have the same bytes in both directories, and every
manifest the same `config` and `summary`; manifest timestamps (and any
other field) are ignored.  Prints each file that differs or exists on one
side only and exits 1 if there is any, else exits 0.
"""

import argparse
import json
import sys
from pathlib import Path

MANIFEST = ".manifest.json"


def differences(base: Path, new: Path) -> list[str]:
    names = sorted({p.name for d in (base, new) for p in d.iterdir() if p.is_file()})
    out = []
    for name in names:
        a, b = base / name, new / name
        if not (a.exists() and b.exists()):
            out.append(f"{name}: only in {base if a.exists() else new}")
        elif name.endswith(MANIFEST):
            ma, mb = json.loads(a.read_text()), json.loads(b.read_text())
            out += [f"{name}: {key} differs" for key in ("config", "summary")
                    if ma.get(key) != mb.get(key)]
        elif a.read_bytes() != b.read_bytes():
            out.append(f"{name}: bytes differ")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("base", type=Path, help="results directory of the reference run")
    ap.add_argument("new", type=Path, help="results directory of the run to check")
    args = ap.parse_args()
    for d in (args.base, args.new):
        if not d.is_dir():
            ap.error(f"{d} is not a directory")
    found = differences(args.base, args.new)
    for line in found:
        print(line)
    n = sum(1 for _ in args.base.iterdir())
    print(f"{len(found)} difference(s) across {n} file(s) in {args.base}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
