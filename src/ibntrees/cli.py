"""Command-line front end: experiment orchestration with manifested outputs.

`run` owns every output: it resolves each output option named in OUTPUTS
against IBNTREES_OUTDIR, hands the handler its options with those paths in
place, records each path in the summary under its OUTPUTS key, and writes
one JSON manifest (config echo, package version, seed, summary, timestamp)
next to each data file.  Handlers take only their options.  Identical
(config, seed) pairs reproduce data files byte for byte.  CSV uses a
header row, '.' decimals and repr-round-trip floats.  Exit codes: 0
success, 1 runtime failure, 2 usage error.  Handlers pass a source to the
library, whose estimator modules choose how it is evaluated.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, firefighter, flowcut, generators, grigorchuk, nathanson, percolation, walks
from .trees import _TEXT_CHUNK, Tree, _text_rows


# output option -> the summary key that records its resolved path
OUTPUTS = {"out": "out", "emit_tree": "tree_out", "emit_stats": "stats_out",
           "emit_marks": "marks_out"}


def _resolve(path: str) -> str:
    return os.path.join(os.environ.get("IBNTREES_OUTDIR", "."), path)


def _write_manifest(data_path: str, subcommand: str, options: dict, summary: dict) -> None:
    manifest = {
        "config": {"subcommand": subcommand, "options": options},
        "version": __version__,
        "seed": options.get("seed"),
        "summary": summary,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    with open(data_path + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(x) if isinstance(x, float) else str(x) for x in row) + "\n")


MAX_GRID_VALUES = 10_000


def _parse_grid(text: str) -> tuple[float, ...]:
    """a:b:step (finite, a <= b, step > 0, at most MAX_GRID_VALUES values)
    or a comma list."""
    if ":" in text:
        a, b, step = (float(x) for x in text.split(":"))
        if not (all(map(math.isfinite, (a, b, step))) and step > 0 and a <= b):
            raise ValueError("a:b:step needs finite a <= b and step > 0")
        steps = (b - a) / step  # inf when b - a overflows
        n = round(steps) + 1 if math.isfinite(steps) else math.inf
        if n > MAX_GRID_VALUES:
            raise ValueError(f"a:b:step asks for {n} values, more than {MAX_GRID_VALUES}")
        return tuple(round(a + i * step, 10) for i in range(n) if a + i * step <= b + 1e-12)
    return tuple(float(x) for x in text.split(","))


def _parse_depths(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _grid_type(upper: float):
    """argparse type for a grid with values in (0, upper); the option keeps
    the string as written, which the manifest echoes."""

    def check(text: str) -> str:
        try:
            flowcut.rate_grid(_parse_grid(text), upper)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid grid {text!r}: {exc}") from None
        return text

    return check


def _checked(convert, rule: str, ok):
    """argparse type: convert(text), which must satisfy ok; rule names it."""

    def check(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: must be {rule}")
        return value

    return check


def _int_at_least(low: int):
    return _checked(int, f">= {low}", lambda v: v >= low)


_positive_int = _int_at_least(1)
_seed = _checked(int, "in [0, 2**64)", lambda v: 0 <= v < 1 << 64)  # one Philox key word
_open_unit = _checked(float, "in (0, 1)", lambda v: 0 < v < 1)  # a rate
_finite = _checked(float, "finite", math.isfinite)
_finite_positive = _checked(float, "a finite number > 0", lambda v: math.isfinite(v) and v > 0)


def _depths_type(text: str) -> str:
    """argparse type for a depth list: positive and strictly increasing."""
    try:
        flowcut.DepthSchedule(_parse_depths(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid depth list {text!r}: {exc}") from None
    return text


def _load_source(opts: dict):
    """Tree file, named family, or marks family, per the options."""
    if opts.get("tree"):
        with open(opts["tree"]) as fh:
            return Tree.read_text(fh)
    marks = None
    if opts.get("marks_file"):
        marks = _read_marks(opts["marks_file"])
    return generators.family_by_name(opts["family"], marks)


def _read_marks(path: str) -> list[bool]:
    """One mark per line, 0 or 1; blank lines and lines starting with # skipped."""
    with open(path) as fh:
        lines = [(k, line.strip()) for k, line in enumerate(fh, 1)
                 if line.strip() and not line.startswith("#")]
    for k, mark in lines:
        if mark not in ("0", "1"):
            raise ValueError(f"{path}, line {k}: mark must be 0 or 1, got {mark!r}")
    return [mark == "1" for _, mark in lines]


def _schedule(opts: dict) -> flowcut.DepthSchedule:
    return flowcut.DepthSchedule(_parse_depths(opts["schedule"]),
                                 **{k: opts[k] for k in ("eps_stop", "c_stay") if k in opts})


def _trajectory_rows(grid: tuple[float, ...], res: flowcut.BracketResult) -> list[list]:
    """One row per grid value, in command-line order, and depth used: the
    linear value (0.0 below exp(-700)) and the value's classification."""
    return [[g, depth, math.exp(logv) if logv > -700 else 0.0, res.classifications[g]]
            for g in grid for depth, logv in zip(res.depths_used, res.trajectories[g])]


# -- subcommand handlers -------------------------------------------------------


def _run_generate(opts: dict) -> dict:
    tree = generators.truncation(_load_source(opts), opts["depth"])
    with open(opts["out"], "w") as fh:
        tree.write_text(fh)
    return {"vertices": tree.n_vertices, "height": tree.height()}


def _run_estimate_ibn(opts: dict) -> dict:
    source = _load_source(opts)
    schedule = _schedule(opts)
    grid = _parse_grid(opts["grid"])
    res = flowcut.ibn_estimate(source, schedule, grid)
    _write_csv(opts["out"], ["lambda", "depth", "mincut", "classification"],
               _trajectory_rows(grid, res))
    summary = {"ibn_lower": res.lower, "ibn_upper": res.upper, "family": opts.get("family")}
    if opts.get("family"):
        N = schedule.depths[-1]
        est = flowcut.igr_estimate(source.level_reader(N), N)
        summary["igr"] = est.estimate
    return summary


def _run_walk(opts: dict) -> dict:
    trials = opts["trials"]
    returned, steps, maxd = walks.root_walks(_load_source(opts), opts["lam"], opts["depth"],
                                             trials, opts["cap"], opts["seed"])
    with open(opts["out"], "w") as fh:  # _write_csv's bytes, formatted by numpy
        fh.write("trial,returned,steps,maxdepth\n")
        for i in range(0, trials, _TEXT_CHUNK):
            j = min(i + _TEXT_CHUNK, trials)
            fh.write(_text_rows(np.arange(i, j), returned[i:j], steps[i:j], maxd[i:j], sep=","))
    return {"return_frequency": float(returned.mean()), "trials": trials}


def _run_rwrc(opts: dict) -> dict:
    source = _load_source(opts)
    schedule = _schedule(opts)
    grid = _parse_grid(opts["gamma_grid"])
    N = schedule.depths[-1]
    tree = generators.truncation(source, N)
    psi = walks.psi_field(tree, walks.sample_conductances(tree, opts["lam"], opts["seed"]), N)
    res = walks.rt_estimate(psi, grid, schedule)
    _write_csv(opts["out"], ["gamma", "depth", "rtvalue", "class"], _trajectory_rows(grid, res))
    tag = f"rt@{opts['lam']:g}"
    return {f"{tag}_lower": res.lower, f"{tag}_upper": res.upper, "lam": opts["lam"]}


def _run_percolate(opts: dict) -> dict:
    """Survival, Monte Carlo and conductance bound per (lambda, depth); with
    --grid the theta bracket is read off the exact survival column."""
    depths = _parse_depths(opts["depths"])
    grid = _parse_grid(opts["grid"]) if opts.get("grid") else (opts["lam"],)
    table = percolation.survival_table(_load_source(opts), grid, depths,
                                       opts["mc"], opts["seed"])
    _write_csv(opts["out"], ["lambda", "depth", "exact", "mc", "stderr", "bound"],
               [[lam, N, *table[lam, N]] for lam in grid for N in depths])
    summary = {"family": opts.get("family")}
    if opts.get("grid"):
        res = percolation.theta_from_survival(
            flowcut.DepthSchedule(depths), {lam: [table[lam, N][0] for N in depths] for lam in grid})
        summary |= {"theta_lower": res.lower, "theta_upper": res.upper}
    return summary


def _run_firefight(opts: dict) -> dict:
    source = _load_source(opts)
    grid = _parse_grid(opts["gamma_grid"])
    res, attempts = firefighter.lambda_c_estimate(source, opts["k"], grid, opts["K"],
                                                  _schedule(opts))
    rows = []
    for g in grid:
        a = attempts[g]
        rows.append([g, opts["horizon"], int(a.contained), a.fire_size, a.protected_size])
    _write_csv(opts["out"], ["gamma", "horizon", "contained", "fire_size", "protected_size"], rows)
    return {"lambdac_lower": res.lower, "lambdac_upper": res.upper,
            "family": opts.get("family"),
            "reasons": {str(g): attempts[g].reason for g in grid}}


def _run_nathanson(opts: dict) -> dict:
    n = opts["depth"]
    lt = nathanson.lex_tree(n)
    summary: dict = {"vertices": lt.tree.n_vertices}
    if opts.get("emit_tree"):
        with open(opts["emit_tree"], "w") as fh:
            lt.tree.write_text(fh)
    if opts.get("emit_stats"):
        level = lt.tree.level_sizes()
        ball = np.cumsum(level) - 1  # the ball excludes the identity root
        rows = []
        for m in range(1, n + 1):
            ratio = (math.log(math.log(float(ball[m]))) / math.log(m)
                     if ball[m] > 2 and m > 1 else 0.0)
            rows.append([m, int(ball[m]), int(level[m]), ratio])
        _write_csv(opts["emit_stats"], ["n", "ball", "level", "loglog_ratio"], rows)
        summary["igr_endpoint"] = rows[-1][3]
    return summary


def _run_grig(opts: dict) -> dict:
    n, beam, seed = opts["search"], opts["beam"], opts["seed"]
    word = grigorchuk.search_word(n, beam, seed)
    erased = grigorchuk.loop_erase(word)
    bm = grigorchuk.branch_marks(erased)
    summary = {"word_length": len(word), "erased_length": len(erased),
               "orbit": int(bm.sizes[-1])}
    if opts.get("emit_marks"):
        depth = bm.max_tree_depth()
        tm = bm.tree_marks(depth)
        with open(opts["emit_marks"], "w") as fh:
            fh.write(f"# word={erased} orbit={int(bm.sizes[-1])} depth={depth}\n")
            for v in tm:
                fh.write("1\n" if v else "0\n")
    return summary


def _run_report(opts: dict) -> dict:
    directory = opts["results_dir"]
    fixed = ("igr", "ibn_lower", "ibn_upper", "theta_lower", "theta_upper",
             "lambdac_lower", "lambdac_upper")
    rows: dict[tuple, dict] = {}
    skipped = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".manifest.json"):
            continue
        path = os.path.join(directory, name)
        try:  # a manifest of the wrong shape raises TypeError or AttributeError
            with open(path) as fh:
                manifest = json.load(fh)
            summary, cfg = manifest["summary"], manifest["config"]
            given = cfg["options"]
            family = summary.get("family") or given.get("family")
            if family == "marks":  # one row per marks file, named as given
                family = given.get("marks_file", family)
            key = (family or given.get("tree") or cfg["subcommand"], given.get("seed"))
            row = rows.setdefault(key, {})
        except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
            skipped.append(f"{name}: {exc}")
            continue
        for field_name, value in summary.items():
            if (field_name in fixed or field_name.startswith("rt@")) and value is not None:
                row[field_name] = value
    rt_cols = sorted({k for row in rows.values() for k in row if k.startswith("rt@")})
    header = ["family", "seed", *fixed, *rt_cols]
    table = []
    for (family, seed), row in sorted(rows.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))):
        if not row:
            continue
        table.append([family, seed] + [row.get(h, "") for h in header[2:]])
    for warning in skipped:
        print(f"warning: skipped {warning}", file=sys.stderr)
    print(",".join(header))
    for row in table:
        print(",".join(str(x) for x in row))
    if opts.get("out"):
        _write_csv(opts["out"], header, table)
    return {"rows": len(table), "skipped": len(skipped)}


_HANDLERS = {
    "generate": _run_generate,
    "estimate-ibn": _run_estimate_ibn,
    "walk": _run_walk,
    "rwrc": _run_rwrc,
    "percolate": _run_percolate,
    "firefight": _run_firefight,
    "nathanson": _run_nathanson,
    "grig": _run_grig,
    "report": _run_report,
}


def run(subcommand: str, options: dict) -> int:
    """Run one subcommand: resolve its output paths, call its handler, and
    write a manifest next to each data file, echoing the options as given."""
    resolved = {k: _resolve(v) for k, v in options.items() if k in OUTPUTS and v}
    try:
        summary = _HANDLERS[subcommand](options | resolved)
    except (ValueError, KeyError, OSError, OverflowError, generators.MemoryCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary |= {OUTPUTS[k]: path for k, path in resolved.items()}
    for path in resolved.values():
        _write_manifest(path, subcommand, options, summary)
    return 0


@functools.cache  # parse_args leaves the parser as it was, so one serves every main call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ibntrees",
        description="Branching-number estimates and random processes on "
                    "intermediate-growth trees.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    unit_grid = _grid_type(1.0)

    def command(name, help, seed=True, source=None):
        """A subcommand; source is "family" (--family required) or
        "family-or-tree" (exactly one of --family and --tree)."""
        p = sub.add_parser(name, help=help)
        if seed:
            p.add_argument("--seed", type=_seed, default=0)
        if source:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--family", choices=["seq", "three-one", "binary", "path", "marks"])
            if source == "family-or-tree":
                group.add_argument("--tree")
            p.add_argument("--marks-file", dest="marks_file")
        return p

    p = command("generate", "materialize a tree truncation", source="family")
    p.add_argument("--depth", type=_positive_int, required=True)
    p.add_argument("--out", required=True)

    p = command("estimate-ibn", "bracket the branching number", source="family-or-tree")
    p.add_argument("--grid", type=unit_grid, default="0.05:0.95:0.05")
    p.add_argument("--schedule", type=_depths_type, default="16,32,64,128,256,512,1024")
    p.add_argument("--eps-stop", dest="eps_stop", type=float,
                   default=flowcut.DepthSchedule.eps_stop)
    p.add_argument("--c-stay", dest="c_stay", type=float, default=flowcut.DepthSchedule.c_stay)
    p.add_argument("--out", required=True)

    p = command("walk", "conductance-weighted walks from the root", source="family-or-tree")
    p.add_argument("--lambda", dest="lam", type=_finite, required=True)
    p.add_argument("--depth", type=_positive_int, default=128)
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.add_argument("--cap", type=_positive_int, default=10 ** 6)
    p.add_argument("--out", required=True)

    p = command("rwrc", "random-conductance recurrence classifier", source="family-or-tree")
    p.add_argument("--lambda", dest="lam", type=_open_unit, required=True)
    p.add_argument("--gamma-grid", dest="gamma_grid", type=_grid_type(math.inf),
                   default="0.25:2.0:0.25")
    p.add_argument("--schedule", type=_depths_type, default="16,32,64,128")
    p.add_argument("--out", required=True)

    p = command("percolate", "independent percolation survival", source="family-or-tree")
    rate = p.add_mutually_exclusive_group(required=True)
    rate.add_argument("--lambda", dest="lam", type=_open_unit)
    rate.add_argument("--grid", type=unit_grid)
    p.add_argument("--depths", type=_depths_type, default="16,32,64,128")
    p.add_argument("--mc", type=_int_at_least(0), default=0)
    p.add_argument("--out", required=True)

    p = command("firefight", "containment-threshold attempts", source="family-or-tree")
    p.add_argument("--k", type=_int_at_least(0), default=2)
    p.add_argument("--K", dest="K", type=_finite_positive, default=1.0)
    p.add_argument("--gamma-grid", dest="gamma_grid", type=unit_grid, default="0.2:0.9:0.1")
    p.add_argument("--schedule", type=_depths_type, default="8,16,32,64,128,200")
    p.add_argument("--horizon", type=int, default=200)
    p.add_argument("--out", required=True)

    p = command("nathanson", "matrix semigroup ball and spanning tree")
    p.add_argument("--depth", type=_positive_int, default=40)
    p.add_argument("--emit-tree", dest="emit_tree")
    p.add_argument("--emit-stats", dest="emit_stats")

    p = command("grig", "inverted-orbit word search and branch marks")
    p.add_argument("--search", type=_positive_int, required=True)
    p.add_argument("--beam", type=_positive_int, default=256)
    p.add_argument("--emit-marks", dest="emit_marks")

    p = command("report", "merge manifested runs into one table", seed=False)
    p.add_argument("results_dir")
    p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = vars(parser.parse_args(argv))
    if [] in args.values():  # argparse drops a lone '--' value (--grid=--) unconverted
        parser.error("'--' is not an option value")
    if args.get("family") == "marks" and not args.get("marks_file"):
        parser.error("--family marks needs --marks-file")
    if "eps_stop" in args and not 0 < args["eps_stop"] < args["c_stay"]:
        parser.error("need 0 < --eps-stop < --c-stay")
    if "k" in args:
        deepest = _parse_depths(args["schedule"])[-1]
        if args["k"] >= deepest - 1:  # a cut needs a depth N > k + 1, else no game is played
            parser.error(f"--k must be below the deepest --schedule depth minus 1 ({deepest - 1})")
    sub = args.pop("subcommand")
    options = {k: v for k, v in args.items() if v is not None}
    return run(sub, options)


if __name__ == "__main__":
    sys.exit(main())
