"""Hierarchical congestion approximators for undirected capacitated graphs.

The package builds tree cut sparsifiers by recursive cluster partitioning on
top of exact fair cuts and a vertex-weighted non-stop cut-matching game, and
ships brute-force oracles that verify the construction at small scale.
"""

from .errors import (ArgumentError, ConsistencyError, InputError, InternalError,
                     OversizeError)
from .graphs import (Cut, Graph, Partition, VertexWeights, boundary_capacity,
                     boundary_degree_map, check_expanding, check_laminar, fuse)
from .flow import (FlowAssignment, PathFlow, SolvedFlow, brute_force_opt_congestion,
                   fair_cut, max_flow, opt_congestion, path_decomposition)
from .cutmatch import (CutMatchingGame, cut_player_step, matching_player_step,
                       oracle_params, sparsest_cut_apx, sweep_cut)
from .partition import (PartitionClusterResult, TrimResult, check_border_routable,
                        partition_cluster, two_way_trim)
from .hierarchy import (HierarchicalDecomposition, HierarchyConfig, TreeSparsifier,
                        certify_well_expanding, construct_hierarchy, default_gamma,
                        expansion_bound, predict_congestion, quality_ratio,
                        to_tree_sparsifier)
from .generators import (diamond_adversarial_demands, diamond_structure,
                         generate_diamond, generate_dumbbell, generate_erdos_renyi,
                         generate_grid, random_pair_demands)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
