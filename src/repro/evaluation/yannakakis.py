"""Yannakakis' algorithm for acyclic conjunctive queries.

The classical polynomial-combined-complexity evaluation of acyclic joins
([18] in the paper; the basis of §5):

1. compute the candidate relation S_j = π_{U_j} σ_{F_j}(R_{i_j}) per atom;
2. build a join tree of the query hypergraph and root it at the node
   covering the most head variables;
3. one bottom-up semijoin pass, after which the root is globally
   consistent (every root tuple participates in the join).  Key sets go
   up, rows stay put: per node the pass keeps the *unfiltered* candidate
   relation — whose key lists, key sets and indexes are the database
   relation's, warm across requests — and which rows survive
   (:class:`Survivors`): the live keys on the columns every child edge
   keys on (a path, a star, any chain of binary atoms), an edge costing
   set operations over distinct keys and no row; or, when two children
   key on different columns, one survivor byte per row, one C-level probe
   per row.  A relation is materialised (``take``) only for a node whose
   rows are read: the root, and for ``evaluate`` the children of the
   carrying edges of step 4.  ``decide``, the batch decision and the
   covered count materialise at most the root, and a head made of some of
   the root's columns is read off its live keys; the counting fold reads
   row-aligned keys, so it takes each node's row mask once;
4. the final bottom-up join-and-project pass **only on the edges that
   hand a head column up** (:func:`carrying_edges`), and the other half of
   the *full reducer* — the top-down semijoin — only on those of them whose
   child hands a head column up itself.  Every other edge could only
   filter its parent, which the bottom-up pass has already done, and the
   join with a carrying child that has nothing carried below it drops the
   child's dangling rows itself, so a query whose head sits inside one
   atom costs one pass plus a read-off of the root, and only a head spread
   over several atoms pays Yannakakis' |input| · |output| intermediates.

What steps 2–4 walk depends on the query's shape only, so it is worked out once,
as an :class:`AcyclicProgram` (:func:`acyclic_program`): the head-rooted
tree, its edges leaves first with the key positions each semijoin probes,
the carrying edges with the columns each join-project keeps, and the head
read-off.  The engine's planner builds it once per shape, prices the route
from it and carries it on the plan; a request only builds its candidate
relations and runs it.

``decide`` first looks for one witness with the backtracking search under
a step budget proportional to the input (:data:`WITNESS_BUDGET_DIVISOR`);
only an instance that spends the budget pays for the bottom-up pass, so the
worst case stays linear and the satisfiable common case is near-constant.
Queries with inequality or comparison atoms are rejected here — that is
exactly the extension Theorem 2 (``repro.inequalities``) provides.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import QueryError
from ..hypergraph.join_tree import JoinTree
from ..query.conjunctive import ConjunctiveQuery
from ..query.terms import Constant
from ..relational.attributes import positions_of
from ..relational.database import Database
from ..relational.joins import JoinAlgorithm, hash_join
from ..relational.relation import Relation
from ..resilience.token import check_cancelled
from .instantiation import answers_relation, atom_candidate_relation, read_off
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
    """A node of the upward pass: its unfiltered candidate relation and
    which of its rows join with their whole subtree, in one of two forms.

    A *key filter* (*key* = positions P, *live* ⊆ the keys K_P on P) keeps
    the rows whose key on P is live.  A node keeps that form while every
    child edge into it keys on P, and then an edge visits no row: it costs
    a subset test over K_P (``self`` when every key is live) or an
    intersection, plus, for the keys on other columns Q that the parent
    reads, one ``isdisjoint`` per key on Q (:meth:`Relation._adjacency`).
    A *row mask* (*mask*, one byte per row in row order, one probe per row
    to build) is the fallback: for a second child keying on other columns,
    and for readers of row-aligned keys (:meth:`masked`).  All fields are
    ``None`` while every row survives."""

    relation: Relation
    mask: Optional[bytes] = None
    key: Optional[Tuple[int, ...]] = None
    live: Optional[frozenset] = None

    def is_empty(self) -> bool:
        if self.live is not None:
            return not self.live
        if self.mask is None:
            return self.relation.is_empty()
        return 1 not in self.mask

    def count(self) -> int:
        """Surviving rows; a key filter's are its live keys' census entries."""
        if self.live is not None:
            return sum(map(self.relation._counts(self.key).__getitem__, self.live))
        if self.mask is None:
            return self.relation.cardinality
        return self.mask.count(1)

    def masked(self) -> "Survivors":
        """The same survivors as a row mask: a probe of ``live`` per row."""
        if self.live is None:
            return self
        return Survivors(self.relation, self.relation._probe_mask(self.key, self.live))

    def keys(self, positions: Tuple[int, ...]) -> Iterable[Any]:
        """The surviving rows' keys on *positions*, in row order."""
        keys = self.relation._keys(positions)
        mask = self.masked().mask
        return keys if mask is None else compress(keys, mask)

    def live_keys(self, positions: Tuple[int, ...]) -> frozenset:
        """The distinct keys of :meth:`keys`: for a key filter, ``live``
        itself on its own positions, else the keys none of whose rows has
        a live key taken out of the key set."""
        live = self.live
        if live is None:
            if self.mask is None:
                return self.relation._key_set(positions)
            return frozenset(self.keys(positions))
        if positions == self.key:
            return live
        relation = self.relation
        adjacency = relation._adjacency(positions, self.key)
        dead = compress(adjacency, map(live.isdisjoint, adjacency.values()))
        return relation._key_set(positions).difference(dead)

    def distinct(self, positions: Tuple[int, ...]) -> Relation:
        """The survivors' distinct keys on *positions* (nonempty, distinct)
        as a relation over those columns, in the key census's first-arrival
        order: one membership test per distinct key, no row materialised
        and no bucket index built."""
        live = self.live_keys(positions)
        keys = self.relation._counts(positions)
        if len(live) < len(keys):
            keys = compress(keys, map(live.__contains__, keys))
        attributes = self.relation.attributes
        return Relation._from_order(
            tuple(attributes[p] for p in positions),
            tuple(zip(keys)) if len(positions) == 1 else tuple(keys),
        )

    def take(self) -> Relation:
        """The surviving rows as a relation (materialised here, once); a
        key filter's rows bucket by bucket, in index order."""
        live = self.live
        if live is not None:
            index = self.relation._index(self.key)
            buckets = compress(index.values(), map(live.__contains__, index))
            return Relation._from_order(
                self.relation.attributes, tuple(chain.from_iterable(buckets))
            )
        if self.mask is None:
            return self.relation
        return self.relation._take(self.mask)

    def semijoin(
        self,
        child: "Survivors",
        positions: Tuple[int, ...],
        child_positions: Tuple[int, ...],
    ) -> "Survivors":
        """``self ⋉ child``, keyed on *positions* against the child's live
        keys on *child_positions*.  On the filter's own positions (or the
        first edge into an unfiltered node) it stays a key filter: ``self``
        when every key is live, else the live keys narrowed.  Otherwise one
        probe per row, ANDed into the mask so far."""
        if not positions:
            # A cross-product component filters nothing: the pass never
            # hands an empty child on (it returns ``None`` instead).
            return self
        relation = self.relation
        live = child.live_keys(child_positions)
        if self.mask is None and self.key in (None, positions):
            keys = relation._key_set(positions) if self.live is None else self.live
            if keys <= live:
                return self
            return Survivors(relation, key=positions, live=keys & live)
        mask = relation._probe_mask(positions, live)
        if 0 not in mask:
            return self
        before = self.masked().mask
        if before is not None:
            both = int.from_bytes(mask, "little") & int.from_bytes(before, "little")
            mask = both.to_bytes(len(mask), "little")
        return Survivors(relation, mask)


class Edge(NamedTuple):
    """One join-tree edge as the passes walk it: the child and parent atom
    indices and, in each one's candidate relation, the positions of the
    variables the two share (in the parent's column order; empty for a
    cross-product component)."""

    child: int
    parent: int
    child_key: Tuple[int, ...]
    parent_key: Tuple[int, ...]


class AcyclicProgram(NamedTuple):
    """What the evaluator runs for one query shape, worked out once.

    Positional — atom indices and column positions of the candidate
    relations — so every spelling of the shape with the same variable
    layout runs the same program (the engine's plan carries it).
    """

    #: Per atom, the relation it reads (``explain`` labels atoms by it).
    relations: Tuple[str, ...]
    #: Per atom, its candidate relation's columns when the atom holds
    #: distinct variables only (the candidate is the stored relation
    #: renamed), ``None`` when a constant or a repeat selects first.
    plain: Tuple[Optional[Tuple[str, ...]], ...]
    #: The join tree, rooted where the head lives (:func:`reroot_for_head`).
    tree: JoinTree
    #: Every edge, leaves first: the bottom-up pass.
    edges: Tuple[Edge, ...]
    #: The edges that hand a head column up, leaves first
    #: (:func:`carrying_edges`): the join-projects.
    carrying: Tuple[Edge, ...]
    #: The carrying edges whose child is the parent of another, root
    #: first: the top-down semijoins, which keep the joins below them
    #: within the output.  A carrying child with nothing carried below it
    #: needs none — its join drops its dangling rows.
    top_down: Tuple[Edge, ...]
    #: Per carrying edge, the child's columns its join-project keeps.
    keeps: Tuple[Tuple[str, ...], ...]
    #: Per head term, its column in the root's final relation (``None``
    #: for a constant).
    read_off: Tuple[Optional[int], ...]

    def steps(self) -> Tuple[str, ...]:
        """The schedule, one line per step, in the order it runs, and what
        ``decide`` tries before any of it."""

        def label(node: int) -> str:
            return f"a{node}({self.relations[node]})"

        return (
            *(f"{label(e.parent)} ⋉ {label(e.child)}" for e in self.edges),
            *(f"{label(e.child)} ⋉ {label(e.parent)}" for e in self.top_down),
            *(
                f"{label(e.parent)} ⋈ {label(e.child)}, "
                "projected onto join and head columns"
                for e in self.carrying
            ),
            "decide: first-witness search, at most "
            f"⌊input rows / {WITNESS_BUDGET_DIVISOR}⌋ steps; "
            "one bottom-up pass only if that budget is spent",
        )


class YannakakisEvaluator:
    """Acyclic-query evaluation in polynomial combined complexity.

    Every entry point takes an optional *program* (the shape's
    :class:`AcyclicProgram`, which the adaptive engine's cached plans
    carry); without one, the program is built from a fresh GYO tree.
    Cyclic and constrained queries raise their typed errors before
    anything is searched, whatever the data holds.
    """

    def __init__(self, join_algorithm: JoinAlgorithm = hash_join) -> None:
        self._join = join_algorithm
        self._search = NaiveEvaluator()

    # ------------------------------------------------------------------

    def decide(
        self,
        query: ConjunctiveQuery,
        database: Database,
        program: Optional[AcyclicProgram] = None,
    ) -> bool:
        """Is Q(d) nonempty?  A budgeted first-witness search, then — only
        if the budget is spent — one bottom-up semijoin pass."""
        program = self._program(query, program)
        witness = self._search.first_witness(
            query, database, witness_budget(query, database)
        )
        if witness is not None:
            return witness
        return self.reduce_bottom_up(query, database, program=program) is not None

    def reduce_bottom_up(
        self,
        query: ConjunctiveQuery,
        database: Database,
        root: Optional[int] = None,
        program: Optional[AcyclicProgram] = None,
    ) -> Optional[Relation]:
        """The root's candidate relation after one bottom-up semijoin pass.

        Stops exactly where ``decide`` does — no top-down pass, no joins —
        but returns the reduced *root relation* instead of its emptiness:
        after the upward pass every surviving root tuple participates in a
        global match, so the survivors are the root-projected answers.
        *root* optionally re-roots the program's tree first; the N-wide
        batch decision roots at the injected parameter atom and reads each
        member's decision off the surviving vectors.  Returns ``None`` when
        the query is globally empty.
        """
        program = self._program(query, program)
        relations = self._candidates(query, database, program)
        if relations is None:
            return None
        tree, edges = program.tree, program.edges
        if root is not None and root != tree.root:
            tree = tree.rooted_at(root)
            edges = None  # keyed afresh for the new root
        reduced = self.bottom_up_reduction(relations, tree, edges)
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
        program: Optional[AcyclicProgram] = None,
    ) -> Relation:
        """Q(d) in time polynomial in input + output (full Yannakakis)."""
        program = self._program(query, program)
        relations = self._candidates(query, database, program)
        tree = program.tree
        reduced = (
            None
            if relations is None
            else self.bottom_up_reduction(relations, tree, program.edges)
        )
        if reduced is None:
            head_names = tuple(v.name for v in query.head_variables())
            return answers_relation(query.head_terms, Relation.from_rows(head_names))

        # The root is globally consistent now.  A head of distinct columns
        # of the root (not all of them) is the survivors' keys on them.
        carrying, positions = program.carrying, program.read_off
        root, columns = reduced[tree.root], set(positions)
        if not carrying and None not in columns and (
            0 < len(columns) == len(positions) < root.relation.arity
        ):
            keys = root.distinct(positions)
            return read_off(query.head_terms, keys, tuple(range(len(positions))))

        # Otherwise only the edges that hand a head column up are walked
        # again — their nodes are the only ones whose rows are read, so the
        # only ones materialised: top-down where a join hangs below, so
        # every tuple it reads takes part in an answer (which is what
        # bounds the joins by |input| · |output|), then bottom-up to join
        # those columns in.
        read = (tree.root, *(edge.child for edge in carrying))
        taken = {node: reduced[node].take() for node in read}
        for edge in program.top_down:
            check_cancelled()
            taken[edge.child] = taken[edge.child].semijoin(taken[edge.parent])

        # Upward join-and-project pass (paper's Algorithm 2, step 2, in the
        # plain setting): carry shared attributes plus output attributes.
        # With the default hash join the projection is pushed *into* the
        # join (Relation._join_keep), so the child's wide intermediate is
        # never materialized; a custom join algorithm gets the explicit
        # project-then-join equivalent.
        fused = self._join is hash_join
        for edge, keep in zip(carrying, program.keeps):
            check_cancelled()
            parent, child = taken[edge.parent], taken[edge.child]
            taken[edge.parent] = (
                parent._join_keep(child, keep)
                if fused
                else self._join(parent, child.project(keep))
            )

        # Every head variable has been carried up into the root.
        return read_off(query.head_terms, taken[tree.root], positions)

    # ------------------------------------------------------------------

    def bottom_up_reduction(
        self,
        relations: Dict[int, Relation],
        tree: JoinTree,
        edges: Optional[Sequence[Edge]] = None,
    ) -> Optional[Dict[int, Survivors]]:
        """The upward half of the full reducer — one semijoin pass, as
        survivor masks; ``None`` as soon as some node is left empty (the
        query then is, globally).

        *edges* are *tree*'s edges leaves first (:func:`upward_edges`),
        derived from the relations' columns when not given.  After the
        pass every node is reduced against its entire *subtree*, so the
        root is globally consistent while non-root nodes may keep
        upward-dangling tuples.  Enough for any reader that only consumes
        root-side state: ``evaluate`` with the head inside the root atom,
        the counting fold (it reads root annotations) and the covered
        count (the program's root is the covering atom).
        """
        if edges is None:
            edges = upward_edges(tree, [relations[n].attributes for n in tree.nodes()])
        reduced = {node: Survivors(relation) for node, relation in relations.items()}
        for edge in edges:
            # Per-edge cancellation check-point: between semijoins no
            # external state is held, so aborting here is always safe.
            check_cancelled()
            parent = reduced[edge.parent].semijoin(
                reduced[edge.child], edge.parent_key, edge.child_key
            )
            if parent.is_empty():
                return None
            reduced[edge.parent] = parent
        return reduced

    # ------------------------------------------------------------------

    @staticmethod
    def _program(
        query: ConjunctiveQuery, program: Optional[AcyclicProgram]
    ) -> AcyclicProgram:
        """The supplied program, or one built from a fresh GYO tree; raises
        on queries this evaluator does not handle (constraint atoms, cyclic
        bodies)."""
        _check_relational(query)
        if program is not None:
            return program
        return acyclic_program(query)

    @staticmethod
    def _candidates(
        query: ConjunctiveQuery, database: Database, program: AcyclicProgram
    ) -> Optional[Dict[int, Relation]]:
        """The candidate relation of every atom; ``None`` when one is empty.

        A plain atom's candidate is the stored relation under the atom's
        variable names, sharing its cache; the others select first.
        """
        relations: Dict[int, Relation] = {}
        for node, (name, columns) in enumerate(zip(program.relations, program.plain)):
            stored = database[name]
            if columns is not None and stored.arity == len(columns):
                relations[node] = stored._renamed(columns)
            else:
                relations[node] = atom_candidate_relation(query.atoms[node], stored)
        if any(relation.is_empty() for relation in relations.values()):
            return None
        return relations


def _check_relational(query: ConjunctiveQuery) -> None:
    """Raise on the constraint atoms this evaluator does not handle."""
    if query.inequalities or query.comparisons:
        raise QueryError(
            "YannakakisEvaluator handles purely relational acyclic "
            "queries; use repro.inequalities for queries with != atoms"
        )


def acyclic_program(
    query: ConjunctiveQuery, join_tree: Optional[JoinTree] = None
) -> AcyclicProgram:
    """The :class:`AcyclicProgram` of *query* over *join_tree* (a fresh GYO
    tree when absent; raises :class:`~repro.errors.NotAcyclicError` on a
    cyclic body).  A function of the query's shape and variable names
    only — no data is read."""
    if join_tree is None:
        join_tree = JoinTree.from_hypergraph(query.hypergraph())
    head_names = {v.name for v in query.head_variables()}
    tree = reroot_for_head(join_tree, head_names)
    plain: List[Optional[Tuple[str, ...]]] = []
    columns: List[List[str]] = []
    for atom in query.atoms:
        names = [v.name for v in atom.variables()]
        columns.append(names)
        plain.append(tuple(names) if len(names) == atom.arity else None)
    edges = upward_edges(tree, columns)
    by_child = {edge.child: edge for edge in edges}
    carrying = tuple(by_child[node] for node in carrying_edges(tree, head_names))
    # Follow the columns the join-projects add to each parent, so the
    # keeps and the read-off name the columns the request will hold.
    parents = {edge.parent for edge in carrying}
    keeps = []
    for edge in carrying:
        parent = columns[edge.parent]
        keep = tuple(
            name
            for name in columns[edge.child]
            if name in parent or name in head_names
        )
        keeps.append(keep)
        parent += [name for name in keep if name not in parent]
    root = columns[tree.root]
    return AcyclicProgram(
        relations=tuple(atom.relation for atom in query.atoms),
        plain=tuple(plain),
        tree=tree,
        edges=edges,
        carrying=carrying,
        top_down=tuple(e for e in reversed(carrying) if e.child in parents),
        keeps=tuple(keeps),
        read_off=tuple(
            None if isinstance(term, Constant) else root.index(term.name)
            for term in query.head_terms
        ),
    )


def upward_edges(
    tree: JoinTree, columns: Sequence[Sequence[str]]
) -> Tuple[Edge, ...]:
    """*tree*'s edges leaves first, keyed in the candidate relations whose
    columns are ``columns[node]``."""
    edges = []
    for node in tree.bottom_up_order():
        parent = tree.parent(node)
        if parent is None:
            continue
        child_columns = columns[node]
        shared = [name for name in columns[parent] if name in child_columns]
        edges.append(
            Edge(
                node,
                parent,
                positions_of(child_columns, shared),
                positions_of(columns[parent], shared),
            )
        )
    return tuple(edges)


def reroot_for_head(tree: JoinTree, head_names: set) -> JoinTree:
    """The same undirected join tree, rooted where the head lives.

    Picks the node whose variable set covers the most head variables
    (lowest index on ties) and re-roots there
    (:meth:`~repro.hypergraph.join_tree.JoinTree.rooted_at`) — sound for
    any root, the join tree property being one of the undirected tree.
    With the head concentrated at the root the upward join-project pass
    stops dragging head columns through every intermediate: most edges
    add no column and are skipped.  Called once per shape, by
    :func:`acyclic_program`.
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
