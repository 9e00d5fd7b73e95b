"""Process-wide dictionary encoding behind the columnar relation kernel.

The columnar :class:`~repro.relational.relation.Relation` store keeps one
code array per attribute, where a *code* is a small integer naming a value
in a process-wide :class:`ValuePool`.  Two pools exist, both global:

* :data:`VALUES` interns raw row values.  Interning uses Python value
  equality — the same notion the frozenset-of-rows kernel always used — so
  code equality is *exactly* value equality, across every relation in the
  process.  (``1 == True == 1.0`` collapse to one code, distinct NaN
  objects get distinct codes; both match frozenset/dict semantics.)
* :data:`KEYS` interns composite join keys as tuples of value codes, giving
  multi-attribute keys a single small-int identity.  Because the component
  codes are global, composite codes are comparable across relations too.

Pools only ever grow (they are process-lifetime dictionaries); values are
never evicted and codes are never reused.  Hot paths therefore never
*decode*: result rows are always selected from original row tuples, so
exact value fidelity is preserved even where equal-but-distinguishable
values (``1`` vs ``True``) share a code.

Thread safety: lookups are plain dict reads (atomic under the GIL); the
miss path takes the pool lock, re-checks, and publishes the new code, so
concurrent encoders converge on one code per value.
"""

from __future__ import annotations

import threading
from array import array
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: Typecode of every code array: signed 64-bit, plenty for process-lifetime
#: pools and cheap to hash/compare as Python ints.
CODE_TYPECODE = "q"


class ValuePool:
    """An append-only intern table: hashable value → dense int code."""

    __slots__ = ("_codes", "_values", "_lock")

    def __init__(self) -> None:
        self._codes: Dict[Any, int] = {}
        self._values: List[Any] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._values)

    def encode(self, value: Any) -> int:
        """The code for *value*, interning it on first sight."""
        code = self._codes.get(value)
        if code is None:
            with self._lock:
                code = self._codes.get(value)
                if code is None:
                    code = len(self._values)
                    self._values.append(value)
                    self._codes[value] = code
        return code

    def encode_column(self, values: Sequence[Any]) -> array:
        """Codes for a whole column, as an ``array('q')``.

        The warm path — every value already interned — is one C-level
        ``map`` into the array; a single miss falls back to the interning
        loop.
        """
        getitem = self._codes.__getitem__
        try:
            return array(CODE_TYPECODE, map(getitem, values))
        except KeyError:
            encode = self.encode
            return array(CODE_TYPECODE, [encode(v) for v in values])

    def code_of(self, value: Any) -> Optional[int]:
        """The code for *value*, or ``None`` if it was never interned.

        ``None`` proves the value appears in no encoded column (the pool
        never evicts), which lets probe paths short-circuit to empty.
        """
        return self._codes.get(value)

    def decode(self, code: int) -> Any:
        """The first-seen representative value for *code*.

        Representatives are exact for round-tripping codes produced by
        :meth:`encode` on the same value object, but equal values that
        compare ``==`` across types (``1``/``True``) share one code —
        which is why kernel hot paths select original rows instead of
        decoding.
        """
        return self._values[code]


def zip_key_codes(pool: ValuePool, columns: Sequence[array]) -> array:
    """Composite key codes for aligned code *columns* (interned in *pool*)."""
    return pool.encode_column(list(zip(*columns)))


def key_code_of(
    values_pool: ValuePool, keys_pool: ValuePool, key: Any, width: int
) -> Optional[int]:
    """The key code a :meth:`Relation._partition` router assigns to *key*.

    *key* follows the index-key convention: the raw value when *width* is
    1, the value tuple otherwise.  Returns ``None`` when any component was
    never interned — such a key cannot appear in any partitioned relation,
    so callers may treat it as matching nothing.
    """
    if width == 1:
        return values_pool.code_of(key)
    component_codes: List[int] = []
    for value in key:
        code = values_pool.code_of(value)
        if code is None:
            return None
        component_codes.append(code)
    return keys_pool.code_of(tuple(component_codes))


def intern_key_code(
    values_pool: ValuePool, keys_pool: ValuePool, key: Any, width: int
) -> int:
    """Like :func:`key_code_of` but interning: always returns a code."""
    if width == 1:
        return values_pool.encode(key)
    return keys_pool.encode(tuple(values_pool.encode(v) for v in key))


def iter_values(pool: ValuePool, codes: Iterable[int]) -> Iterable[Any]:
    """Decode *codes* through *pool* (test/debug helper; not a hot path)."""
    values = pool._values
    return (values[c] for c in codes)


def values_equal(left: Any, right: Any) -> bool:
    """Value equality as the pool (and dict/frozenset) defines it.

    Identity first, then ``==`` — the containment test Python's hash
    tables use, and therefore exactly when two interned values share a
    code.  Every linear-scan comparison in the kernel and the evaluators
    must use this instead of bare ``==``/``!=``: the two differ only on
    non-reflexive values (NaN compares ``!=`` to itself, but a dict key —
    and a pool code — matches itself by identity), and bare ``==`` there
    silently drops rows the code-based fast paths keep.
    """
    return left is right or left == right


#: The process-wide pool of raw row values.
VALUES = ValuePool()

#: The process-wide pool of composite keys (tuples of VALUES codes).  Kept
#: separate from VALUES so a tuple-of-ints *row value* can never collide
#: with a composite key made of the same ints.
KEYS = ValuePool()
