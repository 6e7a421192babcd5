#!/usr/bin/env python3
"""Run the full experiment battery into a results directory and print the
summary table (one row per family or marks file: growth index,
branching-number bracket, percolation bracket, containment bracket, walk
classifier brackets).  The `grig_marks.txt` row is the wreath-product tree
of a searched Grigorchuk word, of length 128 (--quick) or 512.  Each command runs in this process, in outdir,
as ibntrees.cli.main(argv) from the src/ next to this script, after a
`+ <argv>` line: `python -m ibntrees.cli <argv>` there replays it."""

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ibntrees.cli  # noqa: E402  (after the sys.path entry it needs)


def cli(args):
    print("+", " ".join(args), flush=True)
    if rc := ibntrees.cli.main(args):
        sys.exit(f"exit code {rc} from: {' '.join(args)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("outdir", help="directory for CSV outputs and manifests")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--quick", action="store_true", help="shallower schedules")
    args = ap.parse_args()
    if not 0 <= args.seed < 1 << 64:
        ap.error(f"--seed {args.seed} must be in [0, 2**64), as every subcommand requires")
    os.makedirs(args.outdir, exist_ok=True)
    os.chdir(args.outdir)

    depth_sched = "16,32,64,128" if args.quick else "16,32,64,128,256,512,1024"
    perc_depths = "16,32,64" if args.quick else "16,32,64,128"
    seed = ["--seed", str(args.seed)]

    cli(["estimate-ibn", "--family", "seq", "--grid", "0.05:0.95:0.05",
         "--schedule", depth_sched, "--out", "seq_ibn.csv"] + seed)
    cli(["percolate", "--family", "seq", "--grid", "0.05:0.95:0.05",
         "--depths", perc_depths, "--out", "seq_theta.csv"] + seed)
    cli(["firefight", "--family", "seq", "--k", "2", "--gamma-grid", "0.2:0.9:0.1",
         "--schedule", "8,16,32,64,128,200", "--out", "seq_fire.csv"] + seed)
    for lam in ("0.3", "0.7"):
        cli(["rwrc", "--family", "seq", "--lambda", lam,
             "--gamma-grid", "0.25:2.0:0.25", "--schedule", "16,32,64,128",
             "--out", f"seq_rwrc_{lam}.csv"] + seed)
        cli(["walk", "--family", "seq", "--lambda", lam, "--depth", "512",
             "--trials", "2000", "--cap", "100000",
             "--out", f"seq_walk_{lam}.csv"] + seed)

    # the stretched 3-1 tree: every tested rate classifies above
    cli(["estimate-ibn", "--family", "three-one", "--grid", "0.4:0.9:0.1",
         "--schedule", "528,2080,8256,32896,131328",
         "--out", "three_one_ibn.csv"] + seed)

    cli(["nathanson", "--depth", "40" if args.quick else "60",
         "--emit-stats", "nathanson_stats.csv"] + seed)
    cli(["grig", "--search", "128" if args.quick else "512", "--beam", "64",
         "--emit-marks", "grig_marks.txt"] + seed)

    # the wreath row: the tree the marks describe, scheduled to the depth
    # their header records
    with open("grig_marks.txt") as fh:
        depth = int(fh.readline().rsplit("depth=", 1)[1])
    marks = ["--family", "marks", "--marks-file", "grig_marks.txt"]
    marks_sched = ",".join(str(d) for d in (16, 32, 64, 128) if d < depth) + f",{depth}"
    cli(["estimate-ibn"] + marks + ["--grid", "0.05:0.95:0.05", "--schedule", marks_sched,
         "--out", "marks_ibn.csv"] + seed)
    cli(["percolate"] + marks + ["--grid", "0.05:0.95:0.05", "--depths", marks_sched,
         "--out", "marks_theta.csv"] + seed)
    cli(["firefight"] + marks + ["--k", "2", "--gamma-grid", "0.05:0.95:0.05",
         "--schedule", marks_sched, "--out", "marks_fire.csv"] + seed)

    print("\nsummary:")
    cli(["report", "."])


if __name__ == "__main__":
    main()
