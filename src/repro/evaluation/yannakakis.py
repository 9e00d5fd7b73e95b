"""Yannakakis' algorithm for acyclic conjunctive queries.

The classical polynomial-combined-complexity evaluation of acyclic joins
([18] in the paper; the basis of §5):

1. compute the candidate relation S_j = π_{U_j} σ_{F_j}(R_{i_j}) per atom;
2. build a join tree of the query hypergraph and root it at the node
   covering the most head variables;
3. one bottom-up semijoin pass, after which the root is globally
   consistent (every root tuple participates in the join).  Key sets go
   up, rows stay put: per node the pass keeps the *unfiltered* candidate
   relation — whose key lists and key sets are the database relation's,
   warm across requests — and one survivor byte per row
   (:class:`Survivors`); an edge is one C-level probe per parent row
   against the child's live keys, and a relation is materialised
   (``_take``) only for a node whose rows are read: the root, and for
   ``evaluate`` the children of the carrying edges of step 4.  ``decide``,
   the batch decision, the covered count and a head-in-root ``evaluate``
   materialise at most that one; the counting fold reads keys and masks;
4. the other half of the *full reducer* — the top-down semijoin pass — and
   the final bottom-up join-and-project pass, both **only on the edges that
   hand a head column up** (:func:`carrying_edges`).  Every other edge
   could only filter its parent, which the bottom-up pass has already
   done, so a query whose head sits inside one atom costs one pass plus a
   read-off of the root, and only a head spread over several atoms pays
   Yannakakis' |input| · |output| intermediates.

``decide`` first looks for one witness with the backtracking search under
a step budget proportional to the input (:data:`WITNESS_BUDGET_DIVISOR`);
only an instance that spends the budget pays for the bottom-up pass, so the
worst case stays linear and the satisfiable common case is near-constant.
Queries with inequality or comparison atoms are rejected here — that is
exactly the extension Theorem 2 (``repro.inequalities``) provides.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

from ..errors import QueryError
from ..hypergraph.join_tree import JoinTree
from ..query.conjunctive import ConjunctiveQuery
from ..relational.attributes import positions_of
from ..relational.database import Database
from ..relational.joins import JoinAlgorithm, hash_join, shared_attributes
from ..relational.relation import Relation
from ..resilience.token import check_cancelled
from .instantiation import answers_relation, candidate_relations
from .naive import NaiveEvaluator

#: ``decide`` searches for a first witness for at most (input rows of the
#: query's atoms) // this many steps before it falls back to the bottom-up
#: pass.  A search step — one row visited — costs about what the pass
#: spends on two or three rows, so a spent budget adds 6–8 % to the linear
#: worst case (``BENCH_acyclic_route.json``, ``unsatisfiable``).
WITNESS_BUDGET_DIVISOR = 48


def witness_budget(query: ConjunctiveQuery, database: Database) -> int:
    """The step budget of ``decide``'s first-witness search."""
    rows = sum(database[atom.relation].cardinality for atom in query.atoms)
    return rows // WITNESS_BUDGET_DIVISOR


class Survivors(NamedTuple):
    """A node of the upward pass: its unfiltered candidate relation and one
    byte per row (aligned with the relation's row order), 1 for the rows
    that join with their whole subtree — ``None`` while every row does."""

    relation: Relation
    mask: Optional[bytes] = None

    def is_empty(self) -> bool:
        if self.mask is None:
            return self.relation.is_empty()
        return 1 not in self.mask

    def count(self) -> int:
        if self.mask is None:
            return self.relation.cardinality
        return self.mask.count(1)

    def keys(self, positions: Tuple[int, ...]) -> Iterable[Any]:
        """The surviving rows' keys on *positions*, in row order."""
        keys = self.relation._keys(positions)
        return keys if self.mask is None else compress(keys, self.mask)

    def live_keys(self, positions: Tuple[int, ...]) -> frozenset:
        """The distinct keys of :meth:`keys` — the relation's cached key
        set while nothing is filtered."""
        if self.mask is None:
            return self.relation._key_set(positions)
        return frozenset(self.keys(positions))

    def take(self) -> Relation:
        """The surviving rows as a relation (materialised here, once)."""
        if self.mask is None:
            return self.relation
        return self.relation._take(self.mask)

    def semijoin(self, child: "Survivors") -> "Survivors":
        """``self ⋉ child`` as a mask: one probe of the child's live keys
        per row of the unfiltered relation, ANDed into the mask so far."""
        relation, other = self.relation, child.relation
        shared = shared_attributes(relation, other)
        if not shared:
            # A cross-product component filters nothing: the pass never
            # hands an empty child on (it returns ``None`` instead).
            return self
        mask = relation._probe_mask(
            positions_of(relation.attributes, shared),
            child.live_keys(positions_of(other.attributes, shared)),
        )
        if 0 not in mask:
            return self
        if self.mask is not None:
            both = int.from_bytes(mask, "little") & int.from_bytes(self.mask, "little")
            mask = both.to_bytes(len(mask), "little")
        return Survivors(relation, mask)


class YannakakisEvaluator:
    """Acyclic-query evaluation in polynomial combined complexity."""

    def __init__(self, join_algorithm: JoinAlgorithm = hash_join) -> None:
        self._join = join_algorithm
        self._search = NaiveEvaluator()

    # ------------------------------------------------------------------

    def decide(
        self,
        query: ConjunctiveQuery,
        database: Database,
        join_tree: Optional[JoinTree] = None,
    ) -> bool:
        """Is Q(d) nonempty?  A budgeted first-witness search, then — only
        if the budget is spent — one bottom-up semijoin pass.

        *join_tree* optionally supplies a precomputed join tree of the
        query hypergraph (the adaptive engine's cached plans carry one),
        skipping the GYO reduction.  The tree is resolved before anything
        is searched, so cyclic and constrained queries raise their typed
        errors whatever the data holds.
        """
        tree = self._join_tree(query, join_tree)
        witness = self._search.first_witness(
            query, database, witness_budget(query, database)
        )
        if witness is not None:
            return witness
        return self.reduce_bottom_up(query, database, tree) is not None

    def reduce_bottom_up(
        self,
        query: ConjunctiveQuery,
        database: Database,
        join_tree: Optional[JoinTree] = None,
        root: Optional[int] = None,
    ) -> Optional[Relation]:
        """The root's candidate relation after one bottom-up semijoin pass.

        Stops exactly where ``decide`` does — no top-down pass, no joins —
        but returns the reduced *root relation* instead of its emptiness:
        after the upward pass every surviving root tuple participates in a
        global match, so the survivors are the root-projected answers.
        *root* optionally re-roots the (possibly supplied) join tree first;
        the N-wide batch decision roots at the injected parameter atom
        and reads each member's decision off the surviving vectors.
        Returns ``None`` when the query is globally empty.
        """
        prepared = self._prepare(query, database, join_tree)
        if prepared is None:
            return None
        relations, tree = prepared
        if root is not None and root != tree.root:
            tree = tree.rooted_at(root)
        reduced = self.bottom_up_reduction(relations, tree)
        return None if reduced is None else reduced[tree.root].take()

    def contains(
        self, query: ConjunctiveQuery, database: Database, candidate: Sequence[Any]
    ) -> bool:
        """Decision problem candidate ∈ Q(d) via constant substitution."""
        try:
            decided = query.decision_instance(candidate)
        except QueryError:
            return False
        return self.decide(decided, database)

    def evaluate(
        self,
        query: ConjunctiveQuery,
        database: Database,
        join_tree: Optional[JoinTree] = None,
    ) -> Relation:
        """Q(d) in time polynomial in input + output (full Yannakakis)."""
        prepared = self._prepare(query, database, join_tree)
        head_names = tuple(v.name for v in query.head_variables())
        if prepared is None:
            return answers_relation(query.head_terms, Relation.from_rows(head_names))
        relations, tree = prepared
        head_set = set(head_names)
        tree = reroot_for_head(tree, head_set)

        reduced = self.bottom_up_reduction(relations, tree)
        if reduced is None:
            return answers_relation(query.head_terms, Relation.from_rows(head_names))

        # The root is globally consistent now.  Only the edges that hand a
        # head column up are walked again — their nodes are the only ones
        # whose rows are read, so the only ones materialised: top-down, so
        # every tuple below them takes part in an answer (which is what
        # bounds the joins by |input| · |output|), then bottom-up to join
        # those columns in.
        carrying = carrying_edges(tree, head_set)
        relations = {node: reduced[node].take() for node in (tree.root, *carrying)}
        for node in reversed(carrying):
            check_cancelled()
            relations[node] = relations[node].semijoin(relations[tree.parent(node)])

        # Upward join-and-project pass (paper's Algorithm 2, step 2, in the
        # plain setting): carry shared attributes plus output attributes.
        # With the default hash join the projection is pushed *into* the
        # join (Relation._join_keep), so the child's wide intermediate is
        # never materialized; a custom join algorithm gets the explicit
        # project-then-join equivalent.
        fused = self._join is hash_join
        for node in carrying:
            parent = tree.parent(node)
            parent_vars = set(relations[parent].attributes)
            keep = tuple(
                a
                for a in relations[node].attributes
                if a in parent_vars or a in head_set
            )
            check_cancelled()
            if fused:
                relations[parent] = relations[parent]._join_keep(
                    relations[node], keep
                )
            else:
                relations[parent] = self._join(
                    relations[parent], relations[node].project(keep)
                )

        # Every head variable has been carried up into the root.
        return answers_relation(
            query.head_terms, relations[tree.root].project(head_names)
        )

    # ------------------------------------------------------------------

    def bottom_up_reduction(
        self, relations: Dict[int, Relation], tree: JoinTree
    ) -> Optional[Dict[int, Survivors]]:
        """The upward half of the full reducer — one semijoin pass, as
        survivor masks; ``None`` as soon as some node is left empty (the
        query then is, globally).

        After it, every node is reduced against its entire *subtree*
        (leaves first), so the root is globally consistent while non-root
        nodes may keep upward-dangling tuples.  Enough for any reader
        that only consumes root-side state: ``evaluate`` with the head
        inside the root atom, the counting fold (it reads root
        annotations) and the covered count (it re-roots at the covering
        atom).
        """
        reduced = {node: Survivors(relation) for node, relation in relations.items()}
        for node in tree.bottom_up_order():
            parent = tree.parent(node)
            if parent is None:
                continue
            # Per-edge cancellation check-point: between semijoins no
            # external state is held, so aborting here is always safe.
            check_cancelled()
            reduced[parent] = reduced[parent].semijoin(reduced[node])
            if reduced[parent].is_empty():
                return None
        return reduced

    # ------------------------------------------------------------------

    def _join_tree(
        self, query: ConjunctiveQuery, join_tree: Optional[JoinTree]
    ) -> JoinTree:
        """The supplied tree or a fresh GYO one; raises on queries this
        evaluator does not handle (constraint atoms, cyclic bodies)."""
        if query.inequalities or query.comparisons:
            raise QueryError(
                "YannakakisEvaluator handles purely relational acyclic "
                "queries; use repro.inequalities for queries with != atoms"
            )
        if join_tree is not None:
            return join_tree
        return JoinTree.from_hypergraph(query.hypergraph())

    def _prepare(
        self,
        query: ConjunctiveQuery,
        database: Database,
        join_tree: Optional[JoinTree] = None,
    ) -> Optional[Tuple[Dict[int, Relation], JoinTree]]:
        """Candidate relations + join tree; None when trivially empty."""
        tree = self._join_tree(query, join_tree)
        candidates = candidate_relations(query.atoms, database)
        relations = {i: rel for i, rel in enumerate(candidates)}
        if any(rel.is_empty() for rel in relations.values()):
            return None
        return relations, tree


def reroot_for_head(tree: JoinTree, head_names: set) -> JoinTree:
    """The same undirected join tree, rooted where the head lives.

    Picks the node whose variable set covers the most head variables
    (lowest index on ties) and re-roots there
    (:meth:`~repro.hypergraph.join_tree.JoinTree.rooted_at`) — sound for
    any root, the join tree property being one of the undirected tree.
    With the head concentrated at the root the upward join-project pass
    stops dragging head columns through every intermediate: most edges
    add no column and are skipped.

    Deliberately recomputed per evaluation: the walk is O(query), noise
    next to the data passes, and caching it would need an identity-safe
    key on the (plan-owned) input tree.
    """
    if not head_names:
        return tree
    best = max(
        tree.nodes(),
        key=lambda i: (
            len(head_names & {v.name for v in tree.node_vars[i]}),
            -i,
        ),
    )
    return tree.rooted_at(best)


def carrying_edges(tree: JoinTree, head_names: set) -> Tuple[int, ...]:
    """The children of the edges that hand a head column up, leaves first.

    An edge carries when the child's subtree holds a head variable its
    parent's atom lacks.  By the running-intersection property such a
    variable occurs nowhere outside that subtree, so the edges that carry
    form a subtree around the root, and every other edge could only filter
    its parent — which one bottom-up semijoin pass has already done.  Empty
    when the head sits inside the root atom (or is empty).
    """
    names_below: Dict[int, set] = {}
    carrying = []
    for node in tree.bottom_up_order():
        below = head_names & {v.name for v in tree.node_vars[node]}
        for child in tree.children(node):
            below |= names_below.pop(child)
        names_below[node] = below
        parent = tree.parent(node)
        if parent is not None and not below <= {
            v.name for v in tree.node_vars[parent]
        }:
            carrying.append(node)
    return tuple(carrying)
