"""Hypergraph machinery: acyclicity (GYO), join trees, treewidth."""

from .. import _lazy_exports

__getattr__, __all__ = _lazy_exports(
    __name__,
    {
        "GYOResult": "gyo",
        "gyo_reduce": "gyo",
        "is_acyclic": "gyo",
        "Hypergraph": "hypergraph",
        "JoinTree": "join_tree",
        "join_tree_of": "join_tree",
        "primal_graph": "primal",
        "TreeDecomposition": "treewidth",
        "decomposition_from_order": "treewidth",
        "exact_treewidth": "treewidth",
        "min_degree_order": "treewidth",
        "min_fill_order": "treewidth",
        "tree_decomposition": "treewidth",
        "verify_decomposition": "treewidth",
    },
)
