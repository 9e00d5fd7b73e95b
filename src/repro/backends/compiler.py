"""The CQ→SQL compiler behind the SQL oracle.

A conjunctive query compiles to one flat ``SELECT DISTINCT`` join: each
relational atom becomes a table alias ``a0, a1, ...`` in the ``FROM``
clause, repeated variables become equality predicates against the column
of the variable's first occurrence, constants become ``= ?`` parameters,
and inequality atoms become ``<>`` predicates.  The head projects the
bound columns (aliased ``o0..``); a boolean head compiles to ``EXISTS``.

The load-bearing trick is *what the tables hold*: not raw values but codes
from the oracle's private table (:data:`repro.backends.sqlite.CODES`).  Code
equality is exactly Python value equality — ``1``/``True``/``1.0`` share
one code, distinct NaN objects get distinct codes — so SQL ``=`` / ``<>``
/ ``DISTINCT`` over the code columns reproduce the frozenset-of-rows
kernel semantics bit-for-bit, with none of SQL's own equality quirks
(``NULL ≠ NULL``, ``NaN`` → ``NULL``, 64-bit integer overflow) ever in
play.  The flip side: codes carry no order, so comparison atoms (``<`` /
``<=``) are outside the fragment and raise
:class:`~repro.errors.SqlCompilationError` — as do zero-arity atoms
(no columns to join on) and unhashable constants (not encodable).

Constants stay *raw values* in :class:`CompiledSql.params`; the backend
encodes them through the code table at bind time, so the compiler itself is
backend- and process-state-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..errors import SqlCompilationError
from ..query.conjunctive import ConjunctiveQuery
from ..query.terms import Constant, Term, Variable


@dataclass(frozen=True)
class CompiledSql:
    """One query's SQL forms, shared by the execute/decide/count kinds.

    ``select_sql`` is ``None`` for boolean heads (nothing to project —
    backend answers ``execute`` through ``exists_sql``).  Each statement
    binds its own parameter tuple of *raw* constant values, in placeholder
    order; the backend encodes them at bind time.
    """

    select_sql: Optional[str]
    select_params: Tuple[Any, ...]
    exists_sql: str
    exists_params: Tuple[Any, ...]
    count_sql: str
    count_params: Tuple[Any, ...]
    head_arity: int

    @property
    def head_attributes(self) -> Tuple[str, ...]:
        return tuple(f"o{i}" for i in range(self.head_arity))


def quote_identifier(name: str) -> str:
    """*name* as a double-quoted SQL identifier."""
    return '"' + name.replace('"', '""') + '"'


def compile_query(
    query: ConjunctiveQuery,
    table_names: Optional[Mapping[str, str]] = None,
) -> CompiledSql:
    """Compile *query* against *table_names* (relation → physical table).

    With no mapping, relation names are quoted verbatim — the *logical*
    rendering ``explain`` shows; the backend passes its physical table map.
    Raises :class:`~repro.errors.SqlCompilationError` when the query lies
    outside the pushdown fragment.
    """
    if query.comparisons:
        raise SqlCompilationError(
            "order comparisons (< / <=) are outside the pushdown fragment: "
            "codes are equality-only"
        )
    resolve = _resolver(table_names)
    column_of: Dict[Variable, str] = {}
    from_items: List[str] = []
    where: List[str] = []
    where_params: List[Any] = []
    for index, atom in enumerate(query.atoms):
        if not atom.terms:
            raise SqlCompilationError(
                f"zero-arity atom {atom!r} has no columns to compile"
            )
        alias = f"a{index}"
        from_items.append(f"{resolve(atom.relation)} AS {alias}")
        for position, term in enumerate(atom.terms):
            column = f"{alias}.c{position}"
            if isinstance(term, Constant):
                where.append(f"{column} = ?")
                where_params.append(term.value)
            elif term in column_of:
                where.append(f"{column} = {column_of[term]}")
            else:
                column_of[term] = column
    for inequality in query.inequalities:
        sides: List[str] = []
        for term in (inequality.left, inequality.right):
            sides.append(_operand(term, column_of, where_params))
        where.append(f"{sides[0]} <> {sides[1]}")

    body = " FROM " + ", ".join(from_items)
    if where:
        body += " WHERE " + " AND ".join(where)
    exists_sql = f"SELECT EXISTS(SELECT 1{body})"

    select_items: List[str] = []
    head_params: List[Any] = []
    for position, term in enumerate(query.head_terms):
        if isinstance(term, Constant):
            select_items.append(f"? AS o{position}")
            head_params.append(term.value)
        else:
            select_items.append(f"{column_of[term]} AS o{position}")
    if select_items:
        select_sql: Optional[str] = (
            "SELECT DISTINCT " + ", ".join(select_items) + body
        )
        select_params = tuple(head_params) + tuple(where_params)
        count_sql = f"SELECT COUNT(*) FROM ({select_sql})"
        count_params = select_params
    else:
        # Boolean head: the answer set is {()} or {}; EXISTS *is* the
        # count (0/1) and decides execution too.
        select_sql = None
        select_params = ()
        count_sql = exists_sql
        count_params = tuple(where_params)

    return CompiledSql(
        select_sql=select_sql,
        select_params=select_params,
        exists_sql=exists_sql,
        exists_params=tuple(where_params),
        count_sql=count_sql,
        count_params=count_params,
        head_arity=len(query.head_terms),
    )


def _resolver(
    table_names: Optional[Mapping[str, str]],
) -> Callable[[str], str]:
    if table_names is None:
        return quote_identifier

    def resolve(relation: str) -> str:
        physical = table_names.get(relation)
        if physical is None:
            raise SqlCompilationError(
                f"relation {relation!r} has no backend table (zero-arity "
                "relations are not loaded)"
            )
        return physical

    return resolve


def _operand(
    term: Term, column_of: Mapping[Variable, str], params: List[Any]
) -> str:
    if isinstance(term, Constant):
        params.append(term.value)
        return "?"
    column = column_of.get(term)
    if column is None:
        # Unreachable for validated queries (range restriction), kept as a
        # typed failure rather than a KeyError for direct compiler callers.
        raise SqlCompilationError(f"inequality variable {term!r} unbound by body")
    return column


__all__ = ["CompiledSql", "compile_query", "quote_identifier"]
