"""The :class:`Database` container: a domain plus named relations.

Matches the paper's §3 definition ``d = [D; R1, ..., Rm]``: a database is a
domain D and relations over D.  The domain may be given explicitly (needed
for first-order negation under active-domain semantics extended with a
declared domain) or default to the *active domain* — every value occurring
in some relation.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Tuple

from ..errors import SchemaError
from .relation import Relation
from .schema import DatabaseSchema, RelationSchema


class Database:
    """A named collection of relations with an explicit or active domain.

    Parameters
    ----------
    relations:
        Mapping from relation name to :class:`Relation`.
    domain:
        Optional explicit domain.  Must contain the active domain.  When
        omitted, :meth:`domain` returns the active domain.
    """

    def __init__(
        self,
        relations: Mapping[str, Relation],
        domain: Optional[Iterable[Any]] = None,
    ) -> None:
        self._relations: Dict[str, Relation] = dict(relations)
        self._active: Optional[FrozenSet[Any]] = None
        self._domain: Optional[FrozenSet[Any]] = (
            frozenset(domain) if domain is not None else None
        )
        if self._domain is not None:
            missing = self.active_domain() - self._domain
            if missing:
                raise SchemaError(
                    f"declared domain misses active values: {sorted(map(repr, missing))[:5]}"
                )

    # ------------------------------------------------------------------

    @classmethod
    def from_tuples(
        cls,
        relations: Mapping[str, Iterable[Tuple[Any, ...]]],
        domain: Optional[Iterable[Any]] = None,
    ) -> "Database":
        """Build a database from raw tuple iterables, inferring arities.

        Attribute names default to ``name.0, name.1, ...``.  An empty tuple
        iterable would leave the arity ambiguous, so empty relations must be
        added via :meth:`with_relation` with explicit attributes.
        """
        built: Dict[str, Relation] = {}
        for name, tuples in relations.items():
            rows = [tuple(t) for t in tuples]
            if not rows:
                raise SchemaError(
                    f"cannot infer arity of empty relation {name!r}; "
                    "use with_relation with explicit attributes"
                )
            arity = len(rows[0])
            schema = RelationSchema(name, arity)
            built[name] = Relation.from_rows(schema.default_attributes(), rows)
        return cls(built, domain=domain)

    def with_relation(
        self, name: str, relation: Relation, extend_domain: bool = False
    ) -> "Database":
        """Return a new database with *name* bound to *relation*.

        With *extend_domain*, a declared domain grows to absorb the new
        relation's values instead of rejecting them — used by batch
        lifting, whose injected parameter relation legitimately carries
        out-of-domain probe constants (a decision instance for a value the
        database has never seen is simply false, not malformed).
        """
        updated = dict(self._relations)
        updated[name] = relation
        domain = self._domain
        if extend_domain and domain is not None:
            domain = domain | relation.active_values()
        return Database(updated, domain=domain)

    # ------------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __getitem__(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation: {name!r}") from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    def relations(self) -> Dict[str, Relation]:
        """A copy of the name → relation mapping."""
        return dict(self._relations)

    def names(self) -> Tuple[str, ...]:
        """Relation names in insertion order."""
        return tuple(self._relations)

    def schema(self) -> DatabaseSchema:
        """The schema induced by the stored relations."""
        return DatabaseSchema(
            RelationSchema(name, rel.arity, rel.attributes)
            for name, rel in self._relations.items()
        )

    # ------------------------------------------------------------------

    def active_domain(self) -> FrozenSet[Any]:
        """All values occurring in some relation (computed once and cached —
        the stored relations are immutable)."""
        if self._active is None:
            values: set = set()
            for rel in self._relations.values():
                values.update(rel.active_values())
            self._active = frozenset(values)
        return self._active

    @property
    def declared_domain(self) -> Optional[FrozenSet[Any]]:
        """The domain given at construction, or ``None`` when none was (and
        :meth:`domain` is the active domain)."""
        return self._domain

    def domain(self) -> FrozenSet[Any]:
        """The declared domain, or the active domain when none was declared."""
        if self._domain is not None:
            return self._domain
        return self.active_domain()

    def size(self) -> int:
        """Total number of (relation, tuple) entries — the paper's n = |d|.

        We count tuples weighted by arity, plus the domain size, which is the
        standard encoding-length measure up to constants.
        """
        total = len(self.domain())
        for rel in self._relations.values():
            total += rel.cardinality * max(rel.arity, 1)
        return total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self._relations == other._relations and self.domain() == other.domain()

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}: {rel.cardinality}x{rel.arity}"
            for name, rel in self._relations.items()
        )
        return f"Database({inner}; |D|={len(self.domain())})"
