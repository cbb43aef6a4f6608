"""Distributed congested clique algorithms — every upper bound the paper
states or uses (Sections 7.1–7.3 and Figure 1)."""

from .apsp import apsp_minplus, transitive_closure_distributed, widest_paths_distributed
from .bfs import UNREACHED, bfs_distances, bfs_tree
from .broadcast import decide_by_gathering, gather_graph, gather_weighted_graph
from .byzantine import bracha_broadcast, dolev_broadcast
from .coloring import decide_k_colouring, find_k_colouring
from .congest import congest_bfs, congest_flood_max
from .common import (
    agree_on_witness,
    group_of,
    group_partition,
    int_ceil_root,
    label_union,
    node_label,
)
from .dominating_set import k_dominating_set, local_dominating_check
from .independent_set import (
    k_independent_set,
    max_independent_set,
    min_vertex_cover,
)
from .kpath import k_path_detection, trials_for
from .matmul import (
    BOOLEAN,
    MAXMIN,
    MINPLUS,
    RING,
    Semiring,
    distributed_matmul,
    run_matmul,
)
from .spanner import approx_apsp_via_spanner, baswana_sen_3_spanner
from .sssp import bellman_ford_sssp, dist_width_for
from .subgraph import (
    detect_pattern,
    k_clique_detection,
    k_cycle_detection,
    k_independent_set_detection,
    learn_subclique_edges,
    triangle_detection,
)
from .vertex_cover import k_vertex_cover, kernel_vertex_cover

__all__ = [
    "BOOLEAN",
    "MAXMIN",
    "MINPLUS",
    "RING",
    "Semiring",
    "UNREACHED",
    "agree_on_witness",
    "approx_apsp_via_spanner",
    "apsp_minplus",
    "baswana_sen_3_spanner",
    "bellman_ford_sssp",
    "bfs_distances",
    "bfs_tree",
    "bracha_broadcast",
    "congest_bfs",
    "congest_flood_max",
    "decide_by_gathering",
    "decide_k_colouring",
    "detect_pattern",
    "dist_width_for",
    "distributed_matmul",
    "dolev_broadcast",
    "find_k_colouring",
    "gather_graph",
    "gather_weighted_graph",
    "group_of",
    "group_partition",
    "int_ceil_root",
    "k_clique_detection",
    "k_cycle_detection",
    "k_dominating_set",
    "k_independent_set",
    "k_independent_set_detection",
    "k_path_detection",
    "k_vertex_cover",
    "kernel_vertex_cover",
    "label_union",
    "learn_subclique_edges",
    "local_dominating_check",
    "max_independent_set",
    "min_vertex_cover",
    "node_label",
    "run_matmul",
    "transitive_closure_distributed",
    "trials_for",
    "triangle_detection",
    "widest_paths_distributed",
]
