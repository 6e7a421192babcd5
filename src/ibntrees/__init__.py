"""Branching-number analysis and random processes on intermediate-growth trees.

Rooted trees whose balls grow like exp(n**alpha) with 0 < alpha < 1 sit
between the polynomial and exponential regimes; this package computes the
cutset-based branching number adapted to that scale and runs the four
processes whose critical parameters it governs: conductance-weighted
random walks, independent percolation, heavy-tailed random conductances,
and the firefighting game.  Concrete constructions include a matrix
semigroup's lexicographic spanning tree and trees embedded in permutation
wreath products over the first Grigorchuk group.
"""

__version__ = "0.1.0"
