"""Command-line front end: experiment orchestration with manifested outputs.

Every run writes its data file plus a JSON manifest (config echo, package
version, seed, timestamp) next to it; identical (config, seed) pairs
reproduce data files byte for byte.  CSV uses a header row, '.' decimals
and repr-round-trip floats.  Exit codes: 0 success, 1 runtime failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__, firefighter, flowcut, generators, grigorchuk, nathanson, percolation, walks
from .trees import Tree


@dataclass
class ExperimentConfig:
    """Everything that determines a run."""

    subcommand: str
    options: dict = field(default_factory=dict)


def _outdir() -> str:
    return os.environ.get("IBNTREES_OUTDIR", ".")


def _resolve(path: str) -> str:
    return path if os.path.isabs(path) else os.path.join(_outdir(), path)


def _write_manifest(data_path: str, config: ExperimentConfig, summary: dict) -> None:
    manifest = {
        "config": asdict(config),
        "version": __version__,
        "seed": config.options.get("seed"),
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


def _parse_grid(text: str) -> tuple[float, ...]:
    """a:b:step (finite, a <= b, step > 0) or a comma list."""
    if ":" in text:
        a, b, step = (float(x) for x in text.split(":"))
        if not (all(map(math.isfinite, (a, b, step))) and step > 0 and a <= b):
            raise ValueError("a:b:step needs finite a <= b and step > 0")
        n = int(round((b - a) / step)) + 1
        return tuple(round(a + i * step, 10) for i in range(n) if a + i * step <= b + 1e-12)
    return tuple(float(x) for x in text.split(","))


def _parse_depths(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _grid_type(upper: float):
    """argparse type for a grid with values in (0, upper); the option keeps
    the string as written, which the manifest echoes."""

    def check(text: str) -> str:
        try:
            values = _parse_grid(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid grid {text!r}: {exc}") from None
        if not all(0 < v < upper for v in values):
            raise argparse.ArgumentTypeError(
                f"invalid grid {text!r}: values must lie in (0, {upper:g})")
        return text

    return check


def _open_unit(text: str) -> float:
    """argparse type for a rate in (0, 1)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid rate {text!r}: not a number") from None
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"invalid rate {text!r}: must lie in (0, 1)")
    return value


def _int_at_least(low: int):
    """argparse type for an integer >= low."""

    def check(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: must be >= {low}")
        return value

    return check


_positive_int = _int_at_least(1)


def _finite(positive: bool = False):
    """argparse type for a finite number, > 0 when positive is set."""

    def check(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
        if not math.isfinite(value) or (positive and value <= 0):
            rule = "a finite number > 0" if positive else "finite"
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: must be {rule}")
        return value

    return check


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
            return Tree.from_text(fh.read())
    marks = None
    if opts.get("marks_file"):
        marks = _read_marks(opts["marks_file"])
    return generators.family_by_name(opts["family"], marks)


def _read_marks(path: str) -> list[bool]:
    with open(path) as fh:
        return [line.strip() == "1" for line in fh if line.strip() and not line.startswith("#")]


def _schedule(opts: dict) -> flowcut.DepthSchedule:
    return flowcut.DepthSchedule(
        _parse_depths(opts["schedule"]),
        eps_stop=opts.get("eps_stop", 1e-6),
        c_stay=opts.get("c_stay", 1e-3),
    )


def _trajectory_rows(grid: tuple[float, ...], res: flowcut.BracketResult) -> list[list]:
    """One row per grid value, in command-line order, and depth used: the
    linear value (0.0 below exp(-700)) and the value's classification."""
    return [[g, depth, math.exp(logv) if logv > -700 else 0.0, res.classifications[g]]
            for g in grid for depth, logv in zip(res.depths_used, res.trajectories[g])]


# -- subcommand handlers -------------------------------------------------------


def _run_generate(config: ExperimentConfig) -> dict:
    opts = config.options
    tree = generators.truncation(_load_source(opts), opts["depth"])
    out = _resolve(opts["out"])
    with open(out, "w") as fh:
        fh.write(tree.to_text())
    return {"vertices": tree.n_vertices, "height": tree.height(), "out": out}


def _run_estimate_ibn(config: ExperimentConfig) -> dict:
    opts = config.options
    source = _load_source(opts)
    schedule = _schedule(opts)
    grid = _parse_grid(opts["grid"])
    res = flowcut.ibn_estimate(source, schedule, grid)
    out = _resolve(opts["out"])
    _write_csv(out, ["lambda", "depth", "mincut", "classification"], _trajectory_rows(grid, res))
    summary = {"ibn_lower": res.lower, "ibn_upper": res.upper,
               "family": opts.get("family"), "out": out}
    if opts.get("family"):
        N = schedule.depths[-1]
        est = flowcut.igr_estimate(source.level_log2_sizes(N), N)
        summary["igr"] = est.estimate
    return summary


def _run_walk(config: ExperimentConfig) -> dict:
    opts = config.options
    source = _load_source(opts)
    lam, trials = opts["lam"], opts["trials"]
    cap, seed = opts.get("cap", 10 ** 6), opts["seed"]
    rows = []
    if generators.route(source) == "symmetric":
        returned, steps, maxd = walks.depth_walk_batch(
            source.degree, lam, opts["depth"], trials, cap, seed)
        rows = [[t, int(returned[t]), int(steps[t]), int(maxd[t])] for t in range(trials)]
    else:
        tree = generators.truncation(source, opts["depth"])
        cf = walks.deterministic_conductances(tree, lam)
        for t in range(trials):
            r = walks.simulate_walk(tree, cf, cap, seed, t)
            rows.append([t, int(r.returned), r.steps, r.max_depth])
    out = _resolve(opts["out"])
    _write_csv(out, ["trial", "returned", "steps", "maxdepth"], rows)
    freq = float(np.mean([r[1] for r in rows]))
    return {"return_frequency": freq, "trials": trials, "out": out}


def _run_rwrc(config: ExperimentConfig) -> dict:
    opts = config.options
    source = _load_source(opts)
    schedule = _schedule(opts)
    grid = _parse_grid(opts["gamma_grid"])
    N = schedule.depths[-1]
    tree = generators.truncation(source, N)
    field = walks.sample_conductances(tree, opts["lam"], opts["seed"])
    psi = walks.psi_field(tree, field, N)
    res = walks.rt_estimate(tree, psi, grid, schedule)
    out = _resolve(opts["out"])
    _write_csv(out, ["gamma", "depth", "rtvalue", "class"], _trajectory_rows(grid, res))
    tag = f"rt@{opts['lam']:g}"
    return {f"{tag}_lower": res.lower, f"{tag}_upper": res.upper,
            "lam": opts["lam"], "out": out}


def _run_percolate(config: ExperimentConfig) -> dict:
    """Survival, Monte Carlo and conductance bound per (lambda, depth).

    Each truncation a route needs is built once and serves the whole grid;
    with --grid the theta bracket is read off the exact survival column.
    """
    opts = config.options
    source = _load_source(opts)
    depths = _parse_depths(opts["depths"])
    grid = _parse_grid(opts["grid"]) if opts.get("grid") else (opts["lam"],)
    mc_trials = opts.get("mc", 0)
    seed = opts.get("seed", 0)
    symmetric = generators.route(source) == "symmetric"
    table = {}
    for N in depths:
        tree = None if symmetric and not mc_trials else generators.truncation(source, N)
        for lam in grid:
            law = percolation.PercolationLaw(lam)
            if symmetric:
                exact = percolation.survival_symmetric(source.degree, law, N)
                bound = percolation.conductance_bound_symmetric(source, lam, N)
            else:
                exact = percolation.exact_survival(tree, law, N)
                bound = percolation.conductance_bound(tree, law, N)
            mc, err = (float("nan"), float("nan"))
            if mc_trials:
                mc, err = percolation.mc_survival(tree, law, N, mc_trials, seed)
            table[lam, N] = [lam, N, exact, mc, err, bound]
    out = _resolve(opts["out"])
    _write_csv(out, ["lambda", "depth", "exact", "mc", "stderr", "bound"],
               [table[lam, N] for lam in grid for N in depths])
    summary = {"out": out, "family": opts.get("family")}
    if opts.get("grid"):
        res = percolation.theta_from_survival(
            flowcut.DepthSchedule(depths), {lam: [table[lam, N][2] for N in depths] for lam in grid})
        summary |= {"theta_lower": res.lower, "theta_upper": res.upper}
    return summary


def _run_firefight(config: ExperimentConfig) -> dict:
    opts = config.options
    source = _load_source(opts)
    grid = _parse_grid(opts["gamma_grid"])
    schedule = flowcut.DepthSchedule(_parse_depths(opts["schedule"]))
    res = firefighter.lambda_c_estimate(source, opts["k"], grid, opts.get("K", 1.0), schedule)
    rows = []
    for g in grid:
        a = res.attempts[g]
        rows.append([g, opts.get("horizon", schedule.depths[-1]), int(a.contained),
                     a.fire_size, a.protected_size])
    out = _resolve(opts["out"])
    _write_csv(out, ["gamma", "horizon", "contained", "fire_size", "protected_size"], rows)
    return {"lambdac_lower": res.lower, "lambdac_upper": res.upper,
            "family": opts.get("family"), "out": out,
            "reasons": {str(g): res.attempts[g].reason for g in grid}}


def _run_nathanson(config: ExperimentConfig) -> dict:
    opts = config.options
    n = opts["depth"]
    lt = nathanson.lex_tree(n)
    summary: dict = {"vertices": lt.tree.n_vertices}
    if opts.get("emit_tree"):
        path = _resolve(opts["emit_tree"])
        with open(path, "w") as fh:
            fh.write(lt.tree.to_text())
        summary["tree_out"] = path
    if opts.get("emit_stats"):
        level = lt.tree.level_sizes()
        ball = np.cumsum(level) - 1  # the ball excludes the identity root
        rows = []
        for m in range(1, n + 1):
            ratio = (math.log(math.log(float(ball[m]))) / math.log(m)
                     if ball[m] > 2 and m > 1 else 0.0)
            rows.append([m, int(ball[m]), int(level[m]), ratio])
        path = _resolve(opts["emit_stats"])
        _write_csv(path, ["n", "ball", "level", "loglog_ratio"], rows)
        summary["stats_out"] = path
        summary["igr_endpoint"] = rows[-1][3]
    return summary


def _run_grig(config: ExperimentConfig) -> dict:
    opts = config.options
    n, beam, seed = opts["search"], opts.get("beam", 256), opts["seed"]
    word = grigorchuk.search_word(n, beam, seed)
    erased = grigorchuk.loop_erase(word)
    bm = grigorchuk.branch_marks(erased)
    summary = {"word_length": len(word), "erased_length": len(erased),
               "orbit": int(bm.sizes[-1])}
    if opts.get("emit_marks"):
        path = _resolve(opts["emit_marks"])
        depth = bm.max_tree_depth()
        tm = bm.tree_marks(depth)
        with open(path, "w") as fh:
            fh.write(f"# word={erased} orbit={int(bm.sizes[-1])} depth={depth}\n")
            for v in tm:
                fh.write("1\n" if v else "0\n")
        summary["marks_out"] = path
    return summary


def _run_report(config: ExperimentConfig) -> dict:
    opts = config.options
    directory = opts["results_dir"]
    rows: dict[tuple, dict] = {}
    skipped = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".manifest.json"):
            continue
        path = os.path.join(directory, name)
        try:
            with open(path) as fh:
                manifest = json.load(fh)
            summary = manifest["summary"]
            cfg = manifest["config"]
        except (json.JSONDecodeError, KeyError) as exc:
            skipped.append(f"{name}: {exc}")
            continue
        key = (summary.get("family") or cfg["options"].get("family") or cfg["subcommand"],
               cfg["options"].get("seed"))
        row = rows.setdefault(key, {})
        for field_name, value in summary.items():
            fixed = field_name in ("igr", "ibn_lower", "ibn_upper", "theta_lower",
                                   "theta_upper", "lambdac_lower", "lambdac_upper")
            if (fixed or field_name.startswith("rt@")) and value is not None:
                row[field_name] = value
    rt_cols = sorted({k for row in rows.values() for k in row if k.startswith("rt@")})
    header = ["family", "seed", "igr", "ibn_lower", "ibn_upper", "theta_lower",
              "theta_upper", "lambdac_lower", "lambdac_upper"] + rt_cols
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
        _write_csv(_resolve(opts["out"]), header, table)
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


def run(config: ExperimentConfig) -> int:
    """Dispatch a config; write outputs and a manifest per data file."""
    try:
        summary = _HANDLERS[config.subcommand](config)
    except (ValueError, KeyError, OSError, generators.MemoryCapError,
            nathanson.BallCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for key in ("out", "tree_out", "stats_out", "marks_out"):
        if summary.get(key):
            _write_manifest(summary[key], config, summary)
    return 0


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
            p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--eps-stop", dest="eps_stop", type=float, default=1e-6)
    p.add_argument("--c-stay", dest="c_stay", type=float, default=1e-3)
    p.add_argument("--out", required=True)

    p = command("walk", "conductance-weighted walks from the root", source="family-or-tree")
    p.add_argument("--lambda", dest="lam", type=_finite(), required=True)
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
    p.add_argument("--K", dest="K", type=_finite(positive=True), default=1.0)
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
    if args.get("family") == "marks" and not args.get("marks_file"):
        parser.error("--family marks needs --marks-file")
    if "eps_stop" in args and not 0 < args["eps_stop"] < args["c_stay"]:
        parser.error("need 0 < --eps-stop < --c-stay")
    sub = args.pop("subcommand")
    options = {k: v for k, v in args.items() if v is not None}
    return run(ExperimentConfig(sub, options))


if __name__ == "__main__":
    sys.exit(main())
