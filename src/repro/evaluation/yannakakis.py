"""Yannakakis' algorithm for acyclic conjunctive queries.

The classical polynomial-combined-complexity evaluation of acyclic joins
([18] in the paper; the basis of §5):

1. compute the candidate relation S_j = π_{U_j} σ_{F_j}(R_{i_j}) per atom;
2. build a join tree of the query hypergraph and root it at the node
   covering the most head variables;
3. *full reducer*: a bottom-up then a top-down semijoin pass, after which
   the relations are globally consistent (every tuple participates in the
   join);
4. a final bottom-up join-and-project pass that assembles the projection of
   the join onto the output variables.  Edges that would add no column to
   their parent are skipped — on a globally consistent tree they are the
   identity — so a query whose head sits inside one atom runs no join at
   all, and only a head spread over several atoms pays Yannakakis'
   |input| · |output| intermediates.

The emptiness / decision variants stop after the bottom-up pass.  Queries
with inequality or comparison atoms are rejected here — that is exactly the
extension Theorem 2 (``repro.inequalities``) provides.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from ..errors import QueryError
from ..hypergraph.join_tree import JoinTree
from ..query.conjunctive import ConjunctiveQuery
from ..relational.database import Database
from ..relational.joins import JoinAlgorithm, hash_join
from ..relational.relation import Relation
from ..resilience.token import check_cancelled
from .instantiation import answers_relation, candidate_relations


class YannakakisEvaluator:
    """Acyclic-query evaluation in polynomial combined complexity."""

    def __init__(self, join_algorithm: JoinAlgorithm = hash_join) -> None:
        self._join = join_algorithm

    # ------------------------------------------------------------------

    def decide(
        self,
        query: ConjunctiveQuery,
        database: Database,
        join_tree: Optional[JoinTree] = None,
    ) -> bool:
        """Is Q(d) nonempty?  One bottom-up semijoin pass.

        *join_tree* optionally supplies a precomputed join tree of the
        query hypergraph (the adaptive engine's cached plans carry one),
        skipping the GYO reduction.
        """
        return self.reduce_bottom_up(query, database, join_tree) is not None

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
        for node in tree.bottom_up_order():
            parent = tree.parent(node)
            if parent is None:
                continue
            # Per-node cancellation check-point: between semijoins no
            # external state is held, so aborting here is always safe.
            check_cancelled()
            relations[parent] = relations[parent].semijoin(relations[node])
            if relations[parent].is_empty():
                return None
        reduced = relations[tree.root]
        return None if reduced.is_empty() else reduced

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

        relations = self.full_reduction(relations, tree)
        if relations[tree.root].is_empty():
            return answers_relation(query.head_terms, Relation.from_rows(head_names))

        # Upward join-and-project pass (paper's Algorithm 2, step 2, in the
        # plain setting): carry shared attributes plus output attributes.
        # With the default hash join the projection is pushed *into* the
        # join (Relation._join_keep), so the child's wide intermediate is
        # never materialized; a custom join algorithm gets the explicit
        # project-then-join equivalent.
        fused = self._join is hash_join
        for node in tree.bottom_up_order():
            parent = tree.parent(node)
            if parent is None:
                continue
            parent_vars = set(relations[parent].attributes)
            keep = tuple(
                a
                for a in relations[node].attributes
                if a in parent_vars or a in head_set
            )
            if parent_vars.issuperset(keep):
                # The edge adds no column, so it could only filter — and
                # after the full reducer every parent tuple already has a
                # partner in the child: the join is the identity.
                continue
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
    ) -> Dict[int, Relation]:
        """The upward half of the full reducer — one semijoin pass.

        After it, every relation is reduced against its entire *subtree*
        (leaves first), so the root is globally consistent while non-root
        relations may keep upward-dangling tuples.  Enough for any reader
        that only consumes root-side state — the counting fold reads root
        annotations and the covered count re-roots at the covering atom —
        at half the passes of :meth:`full_reduction`.
        """
        reduced = dict(relations)
        for node in tree.bottom_up_order():
            parent = tree.parent(node)
            if parent is None:
                continue
            check_cancelled()
            reduced[parent] = reduced[parent].semijoin(reduced[node])
        return reduced

    def full_reduction(
        self, relations: Dict[int, Relation], tree: JoinTree
    ) -> Dict[int, Relation]:
        """Semijoin full reducer: bottom-up then top-down pass.

        Returns a new mapping in which the relations are globally
        consistent: P_u = π_{attrs(P_u)}(P_1 ⋈ ... ⋈ P_s).
        """
        reduced = self.bottom_up_reduction(relations, tree)
        for node in tree.top_down_order():
            parent = tree.parent(node)
            if parent is None:
                continue
            check_cancelled()
            reduced[node] = reduced[node].semijoin(reduced[parent])
        return reduced

    # ------------------------------------------------------------------

    def _prepare(
        self,
        query: ConjunctiveQuery,
        database: Database,
        join_tree: Optional[JoinTree] = None,
    ) -> Optional[Tuple[Dict[int, Relation], JoinTree]]:
        """Candidate relations + join tree; None when trivially empty."""
        if query.inequalities or query.comparisons:
            raise QueryError(
                "YannakakisEvaluator handles purely relational acyclic "
                "queries; use repro.inequalities for queries with != atoms"
            )
        if join_tree is not None:
            tree = join_tree
        else:
            tree = JoinTree.from_hypergraph(query.hypergraph())
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
