"""The benchmark's workloads: fixed sequences of ibntrees CLI operations.

Each workload splits the reproduce battery by evaluation route, so that each
module does most of its work in one workload and little in another (see
README.md for the prediction table).  Every workload has a full size, which
the benchmark times, and a tiny size, which the self-test runs.

An operation's output files are named by its --out/--emit-* options.  Its
checks name what run.py verifies on those files:

  recorded      every output matches the recording in expected.json
  walk          the return frequency is within 4 standard errors of the
                recorded exact return probability
  bound         percolation: bound <= exact on every row
  above         every rate classifies 'above'
  same:<file>   the mincut column equals that of <file> within 1e-12
                relative (one quantity computed by two routes)
"""

from __future__ import annotations

from dataclasses import dataclass

# Subcommands that take the run's seed.
SEEDED_COMMANDS = ("walk", "rwrc", "grig")

OUTPUT_OPTIONS = ("--out", "--emit-tree", "--emit-stats", "--emit-marks")


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    checks: tuple[str, ...]
    # Outputs depend on the seed, through --seed or through an input file.
    seeded: bool

    def outputs(self) -> list[str]:
        return [self.argv[i + 1] for i, a in enumerate(self.argv) if a in OUTPUT_OPTIONS]

    def command(self, seed: int) -> list[str]:
        if self.argv[0] in SEEDED_COMMANDS:
            return list(self.argv) + ["--seed", str(seed)]
        return list(self.argv)


def _op(text: str, *checks: str, seeded: bool = False) -> Op:
    argv = tuple(text.split())
    seeded = seeded or argv[0] in SEEDED_COMMANDS
    return Op(argv, checks or ("recorded",), seeded)


def structured(tiny: bool) -> list[Op]:
    """Sequence-tree brackets through level sizes, plus the 3-1 DP.

    No tree is materialized apart from the firefighter's cut levels.
    """
    sched = "16,32,64" if tiny else "16,32,64,128,256,512,1024"
    walk = "--depth 64 --trials 200 --cap 2000" if tiny else \
        "--depth 512 --trials 2000 --cap 30000"
    t31_grid, t31_sched = ("0.6,0.8", "528,2080") if tiny else \
        ("0.4,0.8", "528,2080,8256,32896,131328")
    fire_sched = "8,16,32" if tiny else "8,16,32,64,128,200"
    return [
        _op(f"estimate-ibn --family seq --grid 0.05:0.95:0.05 --schedule {sched} "
            "--out seq_ibn.csv"),
        _op(f"percolate --family seq --grid 0.05:0.95:0.05 --depths {sched} "
            "--out seq_theta.csv", "recorded", "bound"),
        _op(f"firefight --family seq --k 2 --gamma-grid 0.2:0.9:0.1 --schedule {fire_sched} "
            "--out seq_fire.csv"),
        _op(f"walk --family seq --lambda 0.3 {walk} --out seq_walk_0.3.csv", "walk"),
        _op(f"walk --family seq --lambda 0.7 {walk} --out seq_walk_0.7.csv", "walk"),
        _op(f"estimate-ibn --family three-one --grid {t31_grid} --schedule {t31_sched} "
            "--out three_one_ibn.csv", "recorded", "above"),
    ]


def materialized(tiny: bool) -> list[Op]:
    """Every quantity through an explicit Tree and a level sweep.

    The stretched 3-1 file is deep and thin; its truncations at triangular
    depths are cross-checked against the structured DP.
    """
    depths = "3,6,10,15" if tiny else "15,28,45,66,78"
    fam_depths = "3,6,10" if tiny else "15,28,45"
    seq_sched = "8,16" if tiny else "16,32,64,96"
    return [
        _op(f"generate --family three-one --depth {depths.split(',')[-1]} --out t31.txt"),
        _op(f"estimate-ibn --tree t31.txt --grid 0.2,0.5,0.8 --schedule {depths} "
            "--out t31_ibn.csv", "recorded", "same:t31_dp.csv"),
        _op(f"estimate-ibn --family three-one --grid 0.2,0.5,0.8 --schedule {depths} "
            "--out t31_dp.csv"),
        _op(f"percolate --tree t31.txt --grid 0.3,0.7 --depths {depths} "
            "--out t31_theta.csv", "recorded", "bound"),
        _op(f"rwrc --tree t31.txt --lambda 0.3 --gamma-grid 0.5:2.0:0.5 --schedule {depths} "
            "--out t31_rwrc.csv"),
        _op(f"percolate --family three-one --grid 0.3,0.7 --depths {fam_depths} "
            "--out t31_family_theta.csv", "recorded", "bound"),
        _op(f"rwrc --family seq --lambda 0.3 --gamma-grid 0.5:2.0:0.5 --schedule {seq_sched} "
            "--out seq_rwrc_0.3.csv"),
        _op(f"rwrc --family seq --lambda 0.7 --gamma-grid 0.5:2.0:0.5 --schedule {seq_sched} "
            "--out seq_rwrc_0.7.csv"),
    ]


def constructions(tiny: bool) -> list[Op]:
    """The semigroup BFS and the Grigorchuk word search, then a bracket on
    each construction's tree (bushy and shallow for the semigroup)."""
    n = 12 if tiny else 38
    search = 32 if tiny else 160
    sched = "4,8,12" if tiny else "8,16,32,38"
    marks_sched = "16,32" if tiny else "16,32,64,128,192"
    return [
        _op(f"nathanson --depth {n} --emit-tree nathanson_tree.txt "
            "--emit-stats nathanson_stats.csv"),
        _op(f"estimate-ibn --tree nathanson_tree.txt --grid 0.1:0.9:0.2 --schedule {sched} "
            "--out nathanson_ibn.csv"),
        _op(f"grig --search {search} --beam 64 --emit-marks grig_marks.txt"),
        _op(f"estimate-ibn --family marks --marks-file grig_marks.txt --grid 0.05:0.95:0.05 "
            f"--schedule {marks_sched} --out marks_ibn.csv", seeded=True),
    ]


WORKLOADS = {
    "structured": structured,
    "materialized": materialized,
    "constructions": constructions,
}
