"""The :class:`Operation` request abstraction shared by every facade layer.

Before this module, each new engine capability meant four near-duplicate
method pipelines hand-threaded through :class:`~repro.engine.QueryEngine`,
:class:`~repro.service.QueryService`, the wire protocol, and both protocol
clients.  An :class:`Operation` names the *what* once — an operation kind,
the query it applies to, and an options mapping — so each layer keeps a
single generic ``run()`` / ``run_batch()`` path plus one dispatch table,
and the familiar ``execute`` / ``decide`` / ``explain`` / ``count`` /
``grouped_count`` / ``exists`` / ``forall`` methods are defined once, in
the :class:`OperationFacade` mixin every layer inherits.

Operations are *values*: frozen, hashable, and comparable.  That is
load-bearing — the service keys its single-flight map and micro-batch
collectors on ``(kind, options, database, query)``, and the engine groups
batch members by ``(kind, options, plan-cache key)``, so two requests that
would produce the same answer must compare (and hash) equal.  Options are
therefore stored canonically as a sorted tuple of ``(name, value)`` pairs
with any list values frozen to tuples.

Operation kinds
---------------

``execute``
    Q(d) as a :class:`~repro.relational.relation.Relation`.
``decide``
    Is Q(d) nonempty?  (bool)
``explain``
    The plan rendering, without executing.  (str)
``count``
    \\|Q(d)\\| — the number of distinct answers — without materializing the
    join on the tractable counting classes (see ``docs/aggregation.md``).
    (int)
``aggregate``
    Counting-powered aggregates, selected by the ``mode`` option:
    ``group`` (grouped counts over the ``group_by`` head variables, as a
    relation with a trailing ``count`` column), ``exists`` (bool:
    \\|Q(d)\\| > 0), ``forall`` (bool: every tuple over the head variables'
    candidate domains is an answer), or ``count`` (alias of the ``count``
    kind).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from .errors import InvalidOperationError

# Operation kinds (the facade vocabulary, shared by every layer).
EXECUTE = "execute"
DECIDE = "decide"
EXPLAIN = "explain"
COUNT = "count"
AGGREGATE = "aggregate"

OP_KINDS = (EXECUTE, DECIDE, EXPLAIN, COUNT, AGGREGATE)

# Aggregate modes (the ``mode`` option of ``aggregate`` operations).
AGG_COUNT = "count"
AGG_GROUP = "group"
AGG_EXISTS = "exists"
AGG_FORALL = "forall"

AGGREGATE_MODES = (AGG_COUNT, AGG_GROUP, AGG_EXISTS, AGG_FORALL)

#: Option names each kind understands; anything else is rejected loudly.
_ALLOWED_OPTIONS: Dict[str, Tuple[str, ...]] = {
    EXECUTE: ("evaluator",),
    DECIDE: ("evaluator",),
    EXPLAIN: (),
    COUNT: (),
    AGGREGATE: ("mode", "group_by"),
}


def _freeze(value: Any) -> Any:
    """Lists become tuples so option values stay hashable."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


def canonical_options(
    options: Optional[Mapping[str, Any]],
) -> Tuple[Tuple[str, Any], ...]:
    """The canonical (sorted, frozen) option tuple for *options*."""
    if not options:
        return ()
    return tuple(sorted((str(name), _freeze(value)) for name, value in options.items()))


@dataclass(frozen=True)
class Operation:
    """One request: an operation kind, its query, and its options.

    ``query`` is either a :class:`~repro.query.conjunctive.ConjunctiveQuery`
    or rule-notation text — each layer coerces at its own boundary (the
    engine requires objects, the service parses text, the wire carries
    text).  ``options`` is canonicalized through
    :func:`canonical_options`; construct with the helper classmethods or
    pass a plain mapping to :meth:`make`.
    """

    kind: str
    query: Any
    options: Tuple[Tuple[str, Any], ...] = field(default=())

    # -- construction ---------------------------------------------------

    @classmethod
    def make(
        cls, kind: str, query: Any, options: Optional[Mapping[str, Any]] = None
    ) -> "Operation":
        operation = cls(kind, query, canonical_options(options))
        operation.validate()
        return operation

    @classmethod
    def execute(cls, query: Any, evaluator: Optional[str] = None) -> "Operation":
        options = {"evaluator": evaluator} if evaluator is not None else None
        return cls.make(EXECUTE, query, options)

    @classmethod
    def decide(cls, query: Any, evaluator: Optional[str] = None) -> "Operation":
        options = {"evaluator": evaluator} if evaluator is not None else None
        return cls.make(DECIDE, query, options)

    @classmethod
    def explain(cls, query: Any) -> "Operation":
        return cls.make(EXPLAIN, query)

    @classmethod
    def count(cls, query: Any) -> "Operation":
        return cls.make(COUNT, query)

    @classmethod
    def grouped_count(cls, query: Any, group_by: Sequence[str]) -> "Operation":
        return cls.make(
            AGGREGATE, query, {"mode": AGG_GROUP, "group_by": tuple(group_by)}
        )

    @classmethod
    def exists(cls, query: Any) -> "Operation":
        return cls.make(AGGREGATE, query, {"mode": AGG_EXISTS})

    @classmethod
    def forall(cls, query: Any) -> "Operation":
        return cls.make(AGGREGATE, query, {"mode": AGG_FORALL})

    # -- access ---------------------------------------------------------

    def option(self, name: str, default: Any = None) -> Any:
        for key, value in self.options:
            if key == name:
                return value
        return default

    def options_dict(self) -> Dict[str, Any]:
        return dict(self.options)

    @property
    def group_key(self) -> Tuple[str, Tuple[Tuple[str, Any], ...]]:
        """What makes two operations batchable together: kind + options."""
        return (self.kind, self.options)

    # -- validation -----------------------------------------------------

    def validate(self) -> None:
        """Reject malformed operations with one typed error.

        Every rejection is an :class:`~repro.errors.InvalidOperationError`
        — a :class:`~repro.errors.QueryError` locally and the stable
        ``invalid_operation`` code on the wire — so engine-local and
        protocol-surfaced callers see the same failure.
        """
        if self.kind not in OP_KINDS:
            raise InvalidOperationError(
                f"unknown operation kind {self.kind!r}; expected one of {OP_KINDS}"
            )
        allowed = _ALLOWED_OPTIONS[self.kind]
        unknown = [name for name, _ in self.options if name not in allowed]
        if unknown:
            raise InvalidOperationError(
                f"{self.kind} operation takes no option(s) {sorted(unknown)}; "
                f"allowed: {sorted(allowed) or 'none'}"
            )
        if self.kind == AGGREGATE:
            mode = self.option("mode")
            if mode not in AGGREGATE_MODES:
                raise InvalidOperationError(
                    f"aggregate needs a 'mode' option in {AGGREGATE_MODES}, "
                    f"got {mode!r}"
                )
            group_by = self.option("group_by")
            if mode == AGG_GROUP:
                if (
                    not isinstance(group_by, tuple)
                    or not group_by
                    or not all(isinstance(name, str) for name in group_by)
                ):
                    raise InvalidOperationError(
                        "aggregate mode 'group' needs a non-empty 'group_by' "
                        "tuple of head variable names"
                    )
                if len(set(group_by)) != len(group_by):
                    raise InvalidOperationError("'group_by' names must be distinct")
            elif group_by is not None:
                raise InvalidOperationError(
                    f"aggregate mode {mode!r} takes no 'group_by'"
                )

    def __repr__(self) -> str:
        options = f", options={dict(self.options)!r}" if self.options else ""
        return f"Operation({self.kind!r}, {self.query!r}{options})"


class OperationFacade:
    """The per-kind methods, spelled once for every host of a generic ``run``.

    A host (engine, service, wire clients, fleet routers) defines
    ``run(operation, database, **call)``; each method here builds the
    :class:`Operation` and hands it over, passing the host's own keyword
    arguments (``client=``, ``deadline=``) through untouched.  Plain ``def``
    on purpose: an async host's ``run`` returns the awaitable, so
    ``await service.count(q, db)`` works unchanged.
    """

    def execute(
        self, query: Any, database: Any, evaluator: Optional[str] = None, **call: Any
    ) -> Any:
        """Q(d) as a relation (through a forced *evaluator* when given)."""
        return self.run(Operation.execute(query, evaluator), database, **call)

    def decide(
        self, query: Any, database: Any, evaluator: Optional[str] = None, **call: Any
    ) -> Any:
        """Is Q(d) nonempty?"""
        return self.run(Operation.decide(query, evaluator), database, **call)

    def explain(self, query: Any, database: Any, **call: Any) -> Any:
        """The plan rendering for (query, database), without executing."""
        return self.run(Operation.explain(query), database, **call)

    def count(self, query: Any, database: Any, **call: Any) -> Any:
        """\\|Q(d)\\| — equal to ``len(execute(query, database).rows)``, but on
        the tractable counting modes never the materialized join."""
        return self.run(Operation.count(query), database, **call)

    def grouped_count(
        self, query: Any, database: Any, group_by: Sequence[str], **call: Any
    ) -> Any:
        """Per-group answer counts over the *group_by* head variables."""
        return self.run(Operation.grouped_count(query, group_by), database, **call)

    def exists(self, query: Any, database: Any, **call: Any) -> Any:
        """Is Q(d) nonempty? — the aggregate spelling of ``decide``."""
        return self.run(Operation.exists(query), database, **call)

    def forall(self, query: Any, database: Any, **call: Any) -> Any:
        """Does every tuple over the head variables' candidate domains
        belong to Q(d)?  (``count == |domain|``.)"""
        return self.run(Operation.forall(query), database, **call)


def operations_of(
    kind: str, queries: Iterable[Any], options: Optional[Mapping[str, Any]] = None
) -> Tuple[Operation, ...]:
    """One *kind* operation per query, sharing one canonical option tuple."""
    frozen = canonical_options(options)
    out = []
    for query in queries:
        operation = Operation(kind, query, frozen)
        operation.validate()
        out.append(operation)
    return tuple(out)


__all__ = [
    "AGG_COUNT",
    "AGG_EXISTS",
    "AGG_FORALL",
    "AGG_GROUP",
    "AGGREGATE",
    "AGGREGATE_MODES",
    "COUNT",
    "DECIDE",
    "EXECUTE",
    "EXPLAIN",
    "OP_KINDS",
    "Operation",
    "OperationFacade",
    "canonical_options",
    "operations_of",
]
