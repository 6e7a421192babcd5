"""Names and units of every metric the benchmark reports.

BENCHMARK.json lists the same metrics; selftest.py checks that the two
agree and that a run prints each of them.
"""

from __future__ import annotations

# Printed by untraced runs (--trace 0).
END_TO_END = {
    "wall_s": "s",          # every operation of the workload, import excluded
    "peak_rss_mb": "MB",    # ru_maxrss of the workload process
    "setup_s": "s",         # a fresh interpreter's `import ibntrees.cli`
    "ops_passed": "ratio",  # operations that exited 0 and passed their checks
}

LAYERS = ("nathanson", "grigorchuk", "trees", "generators", "flowcut", "walks",
          "percolation", "firefighter", "rng")

# Functions whose self time is reported on its own; every traced function
# also adds to its layer's total "<layer>.s".
TIMED = (
    "nathanson.bfs_ball", "nathanson.lex_tree", "nathanson.ball_sizes",
    "grigorchuk.search_word", "grigorchuk.loop_erase", "grigorchuk.branch_marks",
    "trees.from_text", "trees.to_text",
    "generators.build", "generators.level_sizes",
    "flowcut.min_cut", "flowcut.min_cut_symmetric", "flowcut.three_one_log_min_cut",
    "flowcut.ibn_estimate",
    "walks.depth_walk_batch", "walks.sample_conductances", "walks.psi_field",
    "walks.rt_estimate", "walks.effective_conductance",
    "percolation.survival_symmetric", "percolation.exact_survival",
    "percolation.conductance_bound", "percolation.theta_estimate",
    "firefighter.attempt_containment", "firefighter.greedy_play",
)

# Functions whose call count is reported.
CALLED = (
    "nathanson.bfs_ball", "grigorchuk.is_trivial", "flowcut.min_cut",
    "flowcut.three_one_log_min_cut", "percolation.survival_symmetric",
    "percolation.exact_survival", "rng.stream_rng",
)

# Work counters, filled at the same boundaries as the spans.
COUNTED = (
    "nathanson.elements", "trees.vertices_loaded", "trees.io_bytes",
    "generators.vertices_built", "flowcut.min_cut.vertices_swept",
    "walks.depth_walk_batch.steps", "firefighter.rounds", "cli.bytes_written",
)

OTHER = ("flowcut.grid_decided", "cli.s", "cli.errors", "process.cpu_s",
         "trace.wall_s", "trace.overhead_s", "trace.accounted_share")

RATIOS = ("flowcut.grid_decided", "trace.accounted_share")


def per_layer() -> list[str]:
    """Every metric of a traced run (--trace 1), in report order."""
    return ([f"{name}.s" for name in TIMED] + [f"{name}.calls" for name in CALLED]
            + list(COUNTED) + [f"{layer}.s" for layer in LAYERS]
            + [f"{layer}.errors" for layer in LAYERS] + list(OTHER))


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("bytes", "bytes_written")):
        return "bytes"
    if name in RATIOS:
        return "ratio"
    return "count"
