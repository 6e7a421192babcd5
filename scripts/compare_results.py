#!/usr/bin/env python3
"""Compare two results directories written by the ibntrees CLI (for example
two runs of reproduce_all.py): the behaviour check for a refactor.

Every data file must have the same bytes in both directories, and every
manifest the same `config` and `summary`; manifest timestamps (and any
other field) are ignored.  Prints each file that differs or exists on one
side only and exits 1 if there is any, else exits 0.  A base directory
with no file is a usage error (exit 2): it compares nothing.  For a CSV whose
bytes differ it also prints how many cells differ, the largest relative
difference among the float cells, whether any text or integer cell
differs, and each differing cell with both values (at most MAX_LISTED).
"""

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

MANIFEST = ".manifest.json"
MAX_LISTED = 50


def _float(cell: str) -> float | None:
    """The cell's value if it is a finite number other than an integer, else
    None: integers, text, nan and inf compare as exact."""
    if cell.lstrip("-").isdigit():
        return None
    try:
        x = float(cell)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def csv_cell_report(a: bytes, b: bytes) -> list[str]:
    """Cell-level summary of two CSVs with different bytes, indented lines."""
    ra, rb = (list(csv.reader(io.StringIO(x.decode()))) for x in (a, b))
    if len(ra) != len(rb) or any(len(x) != len(y) for x, y in zip(ra, rb)):
        return ["  shapes differ"]
    header = ra[0] if ra else []
    cells, exact, worst = [], False, 0.0
    for i, (x, y) in enumerate(zip(ra, rb)):
        for j, (u, v) in enumerate(zip(x, y)):
            if u == v:
                continue
            fu, fv = _float(u), _float(v)
            if fu is None or fv is None:
                exact = True
            else:
                scale = max(abs(fu), abs(fv))
                worst = max(worst, abs(fu - fv) / scale if scale else 0.0)
            col = header[j] if i and j < len(header) else str(j)
            cells.append(f"  line {i + 1}, {col}: {u} -> {v}")
    out = [f"  {len(cells)} cell(s) differ; largest relative difference {worst:.3g}; "
           f"text or integer cell differs: {'yes' if exact else 'no'}"]
    out += cells[:MAX_LISTED]
    if len(cells) > MAX_LISTED:
        out.append(f"  ... and {len(cells) - MAX_LISTED} more")
    return out


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
        elif (ba := a.read_bytes()) != (bb := b.read_bytes()):
            detail = csv_cell_report(ba, bb) if name.endswith(".csv") else []
            out.append("\n".join([f"{name}: bytes differ", *detail]))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("base", type=Path, help="results directory of the reference run")
    ap.add_argument("new", type=Path, help="results directory of the run to check")
    args = ap.parse_args()
    for d in (args.base, args.new):
        if not d.is_dir():
            ap.error(f"{d} is not a directory")
    n = sum(1 for p in args.base.iterdir() if p.is_file())
    if not n:
        ap.error(f"{args.base} holds no file to compare")
    found = differences(args.base, args.new)
    for line in found:
        print(line)
    print(f"{len(found)} difference(s) across {n} file(s) in {args.base}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
