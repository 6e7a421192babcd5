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

from .trees import Tree, FlowCheck, check_flow
from .generators import (MemoryCapError, TreeFamily, binary_family,
                         family_by_name, level_sizes, marks_family,
                         path_family, sequence_degrees, sequence_family,
                         spherically_symmetric, three_one_family,
                         three_one_stretched)
from .flowcut import (BracketResult, DepthSchedule, IgrEstimate, MinCut,
                      ibn_estimate, ibn_log_weights, igr_estimate, max_flow,
                      min_cut, min_cut_symmetric, three_one_log_min_cut)
from .walks import (PsiField, coupled_percolation, deterministic_conductances,
                    depth_walk_batch, effective_conductance,
                    effective_conductance_symmetric, psi_field, root_walks,
                    rt_estimate, sample_conductances, simulate_walk)
from .percolation import (PercolationLaw, conductance_bound,
                          conductance_bound_symmetric, exact_survival,
                          mc_survival, survival_symmetric, survival_table,
                          theta_estimate)
from .firefighter import (BudgetSchedule, ContainmentAttempt, GameState,
                          PlayResult, greedy_play, lambda_c_estimate, new_game,
                          step, surrounding_set_from_cutset)
from . import grigorchuk, nathanson
