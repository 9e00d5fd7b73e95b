"""The :class:`Operation` request abstraction shared by every facade layer.

An :class:`Operation` names the *what* once — an operation kind, the query
it applies to, and an options mapping — so each layer (the engine, the
service, the wire clients, the fleet router) keeps a single generic
``run()`` / ``run_batch()`` path plus one dispatch table, and the
per-kind methods are defined once, in the :class:`OperationFacade` mixin
every layer inherits.

Operations are *values*: frozen, hashable, comparable, and valid once
made — the constructor itself refuses an unknown kind, an option the kind
does not take, or a malformed ``group_by``, so no layer checks an
operation again.  Equality is load-bearing: the service keys its
single-flight map and its open groups on the operation, and the engine
groups batch members by ``(kind, options, plan-cache key)``, so two
requests that would produce the same answer must compare (and hash)
equal.  Options are therefore stored canonically as a sorted tuple of
``(name, value)`` pairs with any list values frozen to tuples.

Operation kinds
---------------

Each question has one spelling.

``execute``
    Q(d) as a :class:`~repro.relational.relation.Relation`.  Option
    ``evaluator`` forces a route.
``decide``
    Is Q(d) nonempty?  (bool)  Option ``evaluator`` forces a route.
``explain``
    The plan rendering, without executing.  (str)
``count``
    \\|Q(d)\\| — the number of distinct answers — without materializing the
    join on the tractable counting classes (see ``docs/aggregation.md``).
    (int)
``grouped_count``
    Answer counts per value of the ``group_by`` head variables (option,
    required): a relation with a trailing ``count`` column.
``forall``
    Does every tuple over the head variables' candidate domains belong to
    Q(d)?  (bool)
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
GROUPED_COUNT = "grouped_count"
FORALL = "forall"

OP_KINDS = (EXECUTE, DECIDE, EXPLAIN, COUNT, GROUPED_COUNT, FORALL)

#: Option names each kind understands; anything else is rejected loudly.
_ALLOWED_OPTIONS: Dict[str, Tuple[str, ...]] = {
    EXECUTE: ("evaluator",),
    DECIDE: ("evaluator",),
    EXPLAIN: (),
    COUNT: (),
    GROUPED_COUNT: ("group_by",),
    FORALL: (),
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
    text).  ``options`` is the canonical tuple :func:`canonical_options`
    makes; construct with the helper classmethods or pass a plain mapping
    to :meth:`make`.

    Construction checks the operation, so one that exists is valid: every
    rejection is an :class:`~repro.errors.InvalidOperationError` — a
    :class:`~repro.errors.QueryError` locally and the stable
    ``invalid_operation`` code on the wire.
    """

    kind: str
    query: Any
    options: Tuple[Tuple[str, Any], ...] = field(default=())

    def __post_init__(self) -> None:
        allowed = _ALLOWED_OPTIONS.get(self.kind)
        if allowed is None:
            raise InvalidOperationError(
                f"unknown operation kind {self.kind!r}; expected one of {OP_KINDS}"
            )
        unknown = [name for name, _ in self.options if name not in allowed]
        if unknown:
            raise InvalidOperationError(
                f"{self.kind} operation takes no option(s) {sorted(unknown)}; "
                f"allowed: {sorted(allowed) or 'none'}"
            )
        if self.options:
            try:
                hash(self.options)  # the service keys flights on operations
            except TypeError:
                raise InvalidOperationError(
                    f"{self.kind} option values must be scalars or lists"
                ) from None
        if self.kind == GROUPED_COUNT:
            group_by = self.option("group_by")
            if (
                not isinstance(group_by, tuple)
                or not group_by
                or not all(isinstance(name, str) for name in group_by)
            ):
                raise InvalidOperationError(
                    "grouped_count needs a non-empty 'group_by' tuple of head "
                    "variable names"
                )
            if len(set(group_by)) != len(group_by):
                raise InvalidOperationError("'group_by' names must be distinct")

    # -- construction ---------------------------------------------------

    @classmethod
    def make(
        cls, kind: str, query: Any, options: Optional[Mapping[str, Any]] = None
    ) -> "Operation":
        return cls(kind, query, canonical_options(options))

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
        return cls.make(GROUPED_COUNT, query, {"group_by": tuple(group_by)})

    @classmethod
    def forall(cls, query: Any) -> "Operation":
        return cls.make(FORALL, query)

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

    def forall(self, query: Any, database: Any, **call: Any) -> Any:
        """Does every tuple over the head variables' candidate domains
        belong to Q(d)?  (``count == |domain|``.)"""
        return self.run(Operation.forall(query), database, **call)


def operations_of(
    kind: str, queries: Iterable[Any], options: Optional[Mapping[str, Any]] = None
) -> Tuple[Operation, ...]:
    """One *kind* operation per query, sharing one canonical option tuple."""
    frozen = canonical_options(options)
    return tuple(Operation(kind, query, frozen) for query in queries)


__all__ = [
    "COUNT",
    "DECIDE",
    "EXECUTE",
    "EXPLAIN",
    "FORALL",
    "GROUPED_COUNT",
    "OP_KINDS",
    "Operation",
    "OperationFacade",
    "canonical_options",
    "operations_of",
]
