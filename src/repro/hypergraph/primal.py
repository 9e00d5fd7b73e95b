"""Primal (Gaifman) graphs of hypergraphs.

The primal graph connects two variables iff they co-occur in some hyperedge.
It underlies the treewidth machinery and the footnote-2 "conflict graph"
style constructions.
"""

from __future__ import annotations

from typing import Dict, Set

from .hypergraph import Hypergraph

Adjacency = Dict[object, Set[object]]


def primal_graph(hypergraph: Hypergraph) -> Adjacency:
    """Adjacency mapping of the primal graph (every node present as a key)."""
    adjacency: Adjacency = {node: set() for node in hypergraph.nodes}
    for edge in hypergraph.edges:
        members = tuple(edge)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                adjacency[a].add(b)
                adjacency[b].add(a)
    return adjacency

