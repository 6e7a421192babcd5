"""Output checks for one workload pass, against expected.json.

expected.json was recorded by record.py from the package as it stood when
the benchmark was added.  Text cells must match exactly, integers exactly,
and floats within 1e-12 relative (the refactor tolerance of ROADMAP.md);
tree and marks files must match byte for byte, by SHA-256.  Outputs of a
seeded operation are recorded for each of the PROGRAM_SEEDS seeds the
benchmark's --seed maps onto.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REL_TOL = 1e-12
PROGRAM_SEEDS = 8
PATH_KEYS = ("out", "tree_out", "stats_out", "marks_out")
EXPECTED = Path(__file__).resolve().parent / "expected.json"


def program_seed(seed: int) -> int:
    """The seed handed to the program for a benchmark --seed."""
    return seed % PROGRAM_SEEDS


def load_expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def record_file(path: Path) -> dict:
    """What expected.json keeps of one output file."""
    if path.suffix == ".csv":
        return {"rows": read_rows(path)}
    data = path.read_bytes()
    return {"sha256": hashlib.sha256(data).hexdigest(), "lines": data.count(b"\n")}


def record_summary(path: Path) -> dict:
    """The summary of a manifest, without the paths it names."""
    with open(path) as fh:
        summary = json.load(fh)["summary"]
    return {"summary": {k: v for k, v in summary.items() if k not in PATH_KEYS}}


def record_op(op, pass_dir: Path) -> dict:
    out = {}
    for name in op.outputs():
        out[name] = record_file(pass_dir / name)
        out[name + ".manifest.json"] = record_summary(pass_dir / (name + ".manifest.json"))
    return out


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _same_cell(a: str, b: str) -> bool:
    """CSV cells: the same text, or two non-integer numbers within REL_TOL."""
    if a == b:
        return True
    if a.lstrip("-").isdigit() or b.lstrip("-").isdigit():
        return False
    try:
        return _close(float(a), float(b))
    except ValueError:
        return False


def same(a, b) -> bool:
    """Recorded-value equality: floats within REL_TOL, all else exactly."""
    if isinstance(a, str) and isinstance(b, str):
        return _same_cell(a, b)
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and not isinstance(a, bool) and not isinstance(b, bool) and _close(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def _check_recorded(op, pass_dir: Path, recorded: dict) -> list[str]:
    problems = []
    for name, actual in record_op(op, pass_dir).items():
        if name not in recorded:
            problems.append(f"{name}: no recording")
        elif not same(actual, recorded[name]):
            problems.append(f"{name}: differs from the recording")
    return problems


def _check_walk(path: Path, exact: dict) -> list[str]:
    rows = read_rows(path)[1:]
    trials = len(rows)
    if trials != exact["trials"]:
        return [f"{path.name}: {trials} trials, expected {exact['trials']}"]
    freq = sum(int(r[1]) for r in rows) / trials
    p = exact["return_probability"]
    se = math.sqrt(p * (1.0 - p) / trials)
    if abs(freq - p) > 4.0 * se:
        return [f"{path.name}: return frequency {freq} is more than 4 standard errors "
                f"({se:.3g}) from the exact {p}"]
    return []


def _check_bound(path: Path) -> list[str]:
    rows = read_rows(path)
    col = {name: i for i, name in enumerate(rows[0])}
    bad = [r for r in rows[1:]
           if float(r[col["bound"]]) > float(r[col["exact"]]) * (1.0 + REL_TOL)]
    if bad:
        return [f"{path.name}: bound > exact on {len(bad)} rows, first at "
                f"lambda={bad[0][0]} depth={bad[0][1]}"]
    return []


def _check_above(path: Path) -> list[str]:
    rows = read_rows(path)
    bad = sorted({r[0] for r in rows[1:] if r[-1] != "above"})
    return [f"{path.name}: lambda={lam} does not classify above" for lam in bad]


def _check_same_mincut(path: Path, other: Path) -> list[str]:
    """Same lambda/depth rows, with mincut values within REL_TOL."""
    a, b = read_rows(path), read_rows(other)
    if len(a) != len(b) or any(x[:2] != y[:2] or not _same_cell(x[2], y[2])
                               for x, y in zip(a[1:], b[1:])):
        return [f"{path.name}: min-cut differs from {other.name}"]
    return []


def check_op(op, pass_dir: Path, recorded: dict, walk_exact: dict) -> list[str]:
    """Problems with one operation's outputs; empty when all checks pass."""
    missing = [n for name in op.outputs() for n in (name, name + ".manifest.json")
               if not (pass_dir / n).is_file()]
    if missing:
        return [f"missing output {n}" for n in missing]
    out = op.outputs()[0]
    problems = []
    for check in op.checks:
        try:
            if check == "recorded":
                problems += _check_recorded(op, pass_dir, recorded)
            elif check == "walk":
                problems += _check_walk(pass_dir / out, walk_exact[out])
            elif check == "bound":
                problems += _check_bound(pass_dir / out)
            elif check == "above":
                problems += _check_above(pass_dir / out)
            elif check.startswith("same:"):
                problems += _check_same_mincut(pass_dir / out, pass_dir / check[5:])
            else:
                raise AssertionError(f"unknown check {check!r}")
        except (OSError, ValueError, IndexError, KeyError) as exc:
            problems.append(f"{check}: unreadable output ({exc!r})")
    return problems


def recordings(expected: dict, size: str, workload: str, seed: int) -> tuple[dict, dict]:
    """(recorded outputs for this program seed, exact walk references)."""
    entry = expected[size][workload]
    recorded = dict(entry["files"])
    recorded.update(entry["seeds"][str(program_seed(seed))])
    return recorded, entry["walk"]
