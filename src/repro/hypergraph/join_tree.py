"""Join trees (join forests) of acyclic hypergraphs.

A *join tree* of hypergraph H is a tree whose nodes are H's edges such that
for every hypergraph node x, the tree nodes containing x form a connected
subtree (the running-intersection property).  H is acyclic iff a join tree
exists; we assemble one from the witnesses of the GYO reduction.

Following the paper ("We assume without loss of generality in the following
that T is a tree"), a disconnected join forest is linked into a single tree
by attaching secondary component roots beneath the primary root — sound
because distinct components share no variables.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from ..errors import NotAcyclicError
from .gyo import gyo_reduce
from .hypergraph import Hypergraph


class JoinTree:
    """A rooted join tree over edge indices ``0..num_nodes-1``.

    Attributes
    ----------
    node_vars:
        ``node_vars[i]`` is the variable set of edge/atom i (the paper's
        U_j for atom j).
    """

    __slots__ = ("_parent", "_children", "_root", "node_vars")

    def __init__(
        self,
        parent: Dict[int, Optional[int]],
        root: int,
        node_vars: Sequence[FrozenSet],
    ) -> None:
        self._parent = dict(parent)
        self._root = root
        self.node_vars: Tuple[FrozenSet, ...] = tuple(node_vars)
        self._children: Dict[int, List[int]] = {i: [] for i in self._parent}
        for child, par in self._parent.items():
            if par is not None:
                self._children[par].append(child)
        for kids in self._children.values():
            kids.sort()

    # ------------------------------------------------------------------

    @classmethod
    def from_hypergraph(cls, hypergraph: Hypergraph) -> "JoinTree":
        """Build a join tree via GYO; raises :class:`NotAcyclicError` if cyclic."""
        result = gyo_reduce(hypergraph)
        if not result.is_empty:
            raise NotAcyclicError(
                f"hypergraph is cyclic; irreducible core has "
                f"{len(result.residual)} edges"
            )
        if hypergraph.num_edges == 0:
            raise NotAcyclicError("cannot build a join tree with no edges")
        parent: Dict[int, Optional[int]] = dict(result.witnesses)
        roots = result.surviving_edges
        primary = roots[0]
        for extra_root in roots[1:]:
            parent[extra_root] = primary
        parent[primary] = None
        return cls(parent, primary, hypergraph.edges)

    # ------------------------------------------------------------------

    @property
    def root(self) -> int:
        return self._root

    @property
    def num_nodes(self) -> int:
        return len(self._parent)

    def parent(self, node: int) -> Optional[int]:
        return self._parent[node]

    def children(self, node: int) -> Tuple[int, ...]:
        return tuple(self._children[node])

    def nodes(self) -> Tuple[int, ...]:
        return tuple(sorted(self._parent))

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Yield (child, parent) pairs."""
        for child, par in sorted(self._parent.items()):
            if par is not None:
                yield (child, par)

    def bottom_up_order(self) -> Tuple[int, ...]:
        """Nodes in an order where every child precedes its parent."""
        order: List[int] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(self._children[node])
        order.reverse()
        return tuple(order)

    def top_down_order(self) -> Tuple[int, ...]:
        """Nodes in an order where every parent precedes its children."""
        return tuple(reversed(self.bottom_up_order()))

    def subtree(self, node: int) -> Tuple[int, ...]:
        """All nodes of the subtree T[node], including *node*."""
        out: List[int] = []
        stack = [node]
        while stack:
            current = stack.pop()
            out.append(current)
            stack.extend(self._children[current])
        return tuple(sorted(out))

    def subtree_vars(self, node: int) -> FrozenSet:
        """at(T[node]): all variables occurring in the subtree of *node*."""
        out: FrozenSet = frozenset()
        for member in self.subtree(node):
            out |= self.node_vars[member]
        return out

    def depth(self, node: int) -> int:
        """Distance from *node* to the root."""
        steps = 0
        current: Optional[int] = node
        while self._parent[current] is not None:
            current = self._parent[current]
            steps += 1
        return steps

    def rooted_at(self, node: int) -> "JoinTree":
        """The same undirected join tree, re-rooted at *node*.

        Any rooting of a join tree is a join tree (the running-intersection
        property is a property of the undirected tree), so the semijoin
        passes stay correct under any choice of root.  The Yannakakis
        evaluator roots where the head lives; the decision-only batch path
        roots at the parameter atom so the bottom-up pass ends there.
        """
        if node not in self._parent:
            raise KeyError(f"unknown join-tree node {node}")
        if node == self._root:
            return self
        adjacency: Dict[int, List[int]] = {member: [] for member in self._parent}
        for child, par in self._parent.items():
            if par is not None:
                adjacency[child].append(par)
                adjacency[par].append(child)
        parent_map: Dict[int, Optional[int]] = {node: None}
        stack = [node]
        while stack:
            current = stack.pop()
            for neighbor in adjacency[current]:
                if neighbor not in parent_map:
                    parent_map[neighbor] = current
                    stack.append(neighbor)
        return JoinTree(parent_map, node, self.node_vars)

    # ------------------------------------------------------------------

    def verify_running_intersection(self) -> bool:
        """Check the join-tree property: each variable spans a connected subtree."""
        all_vars: set = set()
        for vars_ in self.node_vars:
            all_vars |= vars_
        for variable in all_vars:
            holders = [i for i in self._parent if variable in self.node_vars[i]]
            if len(holders) <= 1:
                continue
            holder_set = set(holders)
            # Connectivity within the induced subgraph of the tree.
            seen = {holders[0]}
            frontier = [holders[0]]
            while frontier:
                current = frontier.pop()
                neighbours = list(self._children[current])
                par = self._parent[current]
                if par is not None:
                    neighbours.append(par)
                for nxt in neighbours:
                    if nxt in holder_set and nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            if seen != holder_set:
                return False
        return True

    def __repr__(self) -> str:
        parts = [f"{child}->{par}" for child, par in self.edges()]
        return f"JoinTree(root={self._root}, edges=[{', '.join(parts)}])"


def join_tree_of(hypergraph: Hypergraph) -> JoinTree:
    """Convenience alias for :meth:`JoinTree.from_hypergraph`."""
    return JoinTree.from_hypergraph(hypergraph)
