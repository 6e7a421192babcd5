"""Span tracing of ibntrees from outside the package.

Tracer.install() replaces the public functions listed in TRACED and
TRACED_METHODS with wrappers that record a span (name, start, end, parent
span, operation id) and count work at the same boundary.  Copies bound
elsewhere with `from .x import f` are replaced too, so walks.min_cut is
traced as flowcut.min_cut.  Per-vertex and per-step functions
(Tree.add_child, grigorchuk.act_point, nathanson.mat_mul, firefighter.step,
the degree rules) are left alone: their wrappers would mostly time
themselves, so their cost shows in their callers' self time.

Spans stay in memory; metrics() reduces them to per-layer self times, where
a span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from ibntrees import (firefighter, flowcut, generators, grigorchuk, nathanson,
                      percolation, rng, trees, walks)
from metrics import CALLED, COUNTED, LAYERS, TIMED

# Module functions traced, each as "<module>.<function>".
TRACED = {
    nathanson: ("bfs_ball", "lex_tree", "ball_sizes"),
    grigorchuk: ("search_word", "loop_erase", "is_trivial", "branch_marks"),
    flowcut: ("min_cut", "max_flow", "min_cut_symmetric", "three_one_log_min_cut",
              "ibn_estimate", "igr_estimate"),
    walks: ("depth_walk_batch", "deterministic_conductances", "sample_conductances",
            "psi_field", "rt_estimate", "effective_conductance",
            "effective_conductance_symmetric", "simulate_walk", "coupled_percolation"),
    percolation: ("survival_symmetric", "exact_survival", "conductance_bound",
                  "conductance_bound_symmetric", "percolation_conductances",
                  "theta_estimate", "mc_survival"),
    firefighter: ("attempt_containment", "greedy_play", "lambda_c_estimate"),
    rng: ("stream_rng", "uniforms"),
}

# Methods traced, with the span name each reports under.
TRACED_METHODS = (
    (trees.Tree, "from_text", "trees.from_text"),
    (trees.Tree, "to_text", "trees.to_text"),
    (generators.TreeFamily, "build", "generators.build"),
    (generators.TreeFamily, "level_log2_sizes", "generators.level_sizes"),
)


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, parent index or -1, operation id); None while open
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._levels: dict[int, tuple] = {}  # id(tree) -> (tree, cumulative level sizes)

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; count an exception against the layer."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.counts[name.split(".")[0] + ".errors"] += 1
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def _wrap(self, name: str, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if hook is not None:
                hook(result, *args, **kwargs)
            return result

        return wrapper

    def install(self) -> None:
        hooks = self._hooks()
        package = [m for key, m in sys.modules.items()
                   if m is not None and (key == "ibntrees" or key.startswith("ibntrees."))]
        for module, attrs in TRACED.items():
            layer = module.__name__.rsplit(".", 1)[1]
            for attr in attrs:
                original = getattr(module, attr)
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, original, hooks.get(name))
                for holder in package:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
        for cls, attr, name in TRACED_METHODS:
            original = vars(cls)[attr]
            if isinstance(original, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, original.__func__, hooks.get(name))))
            else:
                setattr(cls, attr, self._wrap(name, original, hooks.get(name)))

    # -- work counters, taken from each call's result and arguments ----------

    def _hooks(self) -> dict:
        c = self.counts

        def elements(ball, *a, **k):
            c["nathanson.elements"] += len(ball)

        def loaded(tree, cls, text, *a, **k):
            c["trees.vertices_loaded"] += tree.n_vertices
            c["trees.io_bytes"] += len(text)

        def written(text, *a, **k):
            c["trees.io_bytes"] += len(text)

        def built(tree, *a, **k):
            c["generators.vertices_built"] += tree.n_vertices

        def swept(cut, tree, weights, N, *a, **k):
            entry = self._levels.get(id(tree))
            if entry is None or entry[0] is not tree:
                entry = (tree, np.cumsum(np.bincount(tree.depth_array())))
                self._levels[id(tree)] = entry
            c["flowcut.min_cut.vertices_swept"] += int(entry[1][min(N, len(entry[1]) - 1)])

        def decided(bracket, *a, **k):
            c["flowcut.grid_attempted"] += len(bracket.grid)
            c["flowcut.grid_decided"] += len(bracket.grid) - len(bracket.undecided)

        def steps(batch, *a, **k):
            c["walks.depth_walk_batch.steps"] += int(batch[1].sum())

        def rounds(play, *a, **k):
            c["firefighter.rounds"] += play.rounds

        return {"nathanson.bfs_ball": elements, "trees.from_text": loaded,
                "trees.to_text": written, "generators.build": built,
                "flowcut.min_cut": swept, "flowcut.ibn_estimate": decided,
                "walks.depth_walk_batch": steps, "firefighter.greedy_play": rounds}

    # -- reduction ------------------------------------------------------------

    def metrics(self, wall_s: float, cpu_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass, from its measured wall time
        (trace.wall_s and trace.overhead_s are left to the caller, which has
        the calibrated wall times)."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time = Counter()
        calls = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += end - start - child_time[index]
            calls[name] += 1
        out: dict[str, float] = {}
        for name in TIMED:
            out[f"{name}.s"] = self_time[name]
        for name in CALLED:
            out[f"{name}.calls"] = calls[name]
        for name in COUNTED:
            out[name] = self.counts[name]
        for layer in LAYERS:
            out[f"{layer}.s"] = sum(t for n, t in self_time.items() if n.split(".")[0] == layer)
            out[f"{layer}.errors"] = self.counts[f"{layer}.errors"]
        attempted = self.counts["flowcut.grid_attempted"]
        out["flowcut.grid_decided"] = self.counts["flowcut.grid_decided"] / attempted if attempted else 0.0
        out["cli.s"] = self_time["cli"]
        out["cli.errors"] = self.counts["cli.errors"]
        out["process.cpu_s"] = cpu_s
        out["trace.accounted_share"] = sum(self_time.values()) / wall_s if wall_s > 0 else 0.0
        return out
