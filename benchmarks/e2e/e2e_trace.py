"""Spans around the public entry points of each layer, from outside.

Nothing under ``src/`` knows about tracing: :class:`Installer` swaps timing
wrappers in for the public functions named in :data:`TARGETS` (in every
``repro.*`` module namespace that holds the original object, because
module-level functions are imported by name into their callers) and puts the
originals back afterwards.  A target a later refactor renamed shows up in
``Installer.missing`` — a count, not a crash.

A span is a plain list (see the index constants) so the wrappers stay cheap.
Synchronous spans nest on a per-thread stack: the service runs engine calls
on pool threads, and a coroutine never yields inside a synchronous call, so
a thread's stack is always well nested.  Two kinds of span mark *waiting*
rather than work: ``WorkerPool.map`` blocks its thread while pool workers
run the tasks (a **wait** span), and ``QueryService.run`` / ``run_batch`` are
coroutines that stay open while other work runs on their thread (recorded as
**envelopes**, off the stack).

:func:`attribute` turns spans into a time budget that sums to the wall time
by construction.  It sweeps the global timeline; every instant goes

* to the innermost open span of each thread whose innermost span is work,
  in equal parts when several threads have one (they share one interpreter
  lock),
* else to the innermost wait spans (pool hand-off, nobody running yet),
* else to the layer of an open envelope (a request waiting in the service's
  queue, batch window or thread hand-off),
* else to ``untraced`` (sockets, event loop, idle).

With one request in flight this is the textbook rule — a span's self time
is its duration minus what its children cover.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

# Span fields.
LAYER, NAME, THREAD, PARENT, START, END, ROWS_IN, ROWS_OUT, KIND, SEQ, SELF = range(11)
# Span kinds.
WORK, WAIT, ENVELOPE = 0, 1, 2

UNTRACED = "untraced"

Describe = Callable[[tuple, dict, Any], Tuple[int, int, Optional[str]]]


def make_span(layer, name, thread, start, end, seq, parent=None, kind=WORK):
    """A finished span (the self-test builds synthetic ones with this)."""
    return [layer, name, thread, parent, start, end, 0, 0, kind, seq, 0.0]


class Recorder:
    """Finished spans, in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._seq = itertools.count()

    def sync_wrapper(
        self, layer: str, name: str, fn, describe: Optional[Describe], kind: int = WORK
    ):
        spans, local, seq = self.spans, self._local, self._seq
        clock, ident = time.perf_counter_ns, threading.get_ident

        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span = [
                layer, name, ident(), stack[-1] if stack else None,
                0, 0, 0, 0, kind, next(seq), 0.0,
            ]
            stack.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[END] = clock()
                stack.pop()
                spans.append(span)
                raise
            span[END] = clock()
            stack.pop()
            if describe is not None:
                _apply(span, describe, args, kwargs, result)
            spans.append(span)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def envelope_wrapper(self, layer: str, name: str, fn, describe: Optional[Describe]):
        spans, seq = self.spans, self._seq
        clock, ident = time.perf_counter_ns, threading.get_ident

        async def wrapper(*args, **kwargs):
            span = [
                layer, name, ident(), None, clock(), 0, 0, 0, ENVELOPE, next(seq), 0.0,
            ]
            result = None
            try:
                result = await fn(*args, **kwargs)
                return result
            finally:
                span[END] = clock()
                if describe is not None:
                    _apply(span, describe, args, kwargs, result)
                spans.append(span)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper


def _apply(span: list, describe: Describe, args, kwargs, result) -> None:
    try:
        span[ROWS_IN], span[ROWS_OUT], suffix = describe(args, kwargs, result)
    except Exception:  # noqa: BLE001 — a describer must never break the program
        return
    if suffix:
        span[NAME] = f"{span[NAME]}:{suffix}"


# ----------------------------------------------------------------------
# What a span says about rows
# ----------------------------------------------------------------------


def _size(value: Any) -> int:
    """Rows of a relation-like value (plain or sharded); 0 for anything else."""
    if not hasattr(value, "attributes"):
        return 0
    if hasattr(value, "__len__"):
        return len(value)
    return int(getattr(value, "cardinality", 0))


def _payload_rows(node: Any) -> int:
    """Rows in a wire payload: relation objects, lists of them, tagged
    ``run_batch`` members."""
    if isinstance(node, dict):
        rows = node.get("rows")
        if isinstance(rows, list) and "attributes" in node:
            return len(rows)
        if "relations" in node and isinstance(node["relations"], dict):
            return sum(_payload_rows(r) for r in node["relations"].values())
        if "result" in node:
            return _payload_rows(node["result"])
        return 0
    if isinstance(node, list):
        return sum(_payload_rows(member) for member in node if isinstance(member, dict))
    return 0


def _message_rows(message: Any) -> int:
    return _payload_rows(getattr(message, "result", None)) + _payload_rows(
        getattr(message, "data", None)
    )


def _direction(message: Any) -> str:
    return "request" if hasattr(message, "op") else "response"


def describe_relation_op(args, kwargs, result):
    rows_in = _size(args[0]) + sum(_size(a) for a in args[1:2])
    return rows_in, _size(result), None


def describe_result(args, kwargs, result):
    """Constructors, evaluators, ``decode_result``: rows of what came back."""
    return 0, _size(result), None


def describe_encode(args, kwargs, result):
    message = args[0]
    return _message_rows(message), 0, _direction(message)


def describe_decode(args, kwargs, result):
    return 0, _message_rows(result), _direction(result)


def describe_encode_result(args, kwargs, result):
    return _size(args[0]), 0, None


def describe_encode_database(args, kwargs, result):
    return _payload_rows(result), 0, None


def describe_decode_database(args, kwargs, result):
    return 0, _payload_rows(args[0]), None


def describe_operation(args, kwargs, result):
    """``run(self, operation, ...)``: name the span after the operation kind
    so envelopes and engine runs can be matched up."""
    operation = args[1] if len(args) > 1 else kwargs.get("operation")
    return 0, _size(result), getattr(operation, "kind", None)


# ----------------------------------------------------------------------
# Targets
# ----------------------------------------------------------------------


class Target(NamedTuple):
    layer: str
    module: str
    #: ``function`` or ``Class.method``
    path: str
    describe: Optional[Describe] = None
    kind: int = WORK


def _relational() -> List[Target]:
    module = "repro.relational.relation"
    ops = (
        "semijoin", "antijoin", "natural_join", "project", "select_eq",
        "select_attr_eq", "select_attr_neq", "rename", "union",
    )
    return [
        Target("relational", module, f"Relation.{op}", describe_relation_op)
        for op in ops
    ] + [
        Target("relational", module, f"Relation.{ctor}", describe_result)
        for ctor in ("from_rows", "from_columns")
    ]


def _evaluators() -> List[Target]:
    classes = (
        ("evaluation", "repro.evaluation.naive", "NaiveEvaluator",
         ("evaluate", "decide")),
        ("evaluation", "repro.evaluation.yannakakis", "YannakakisEvaluator",
         ("evaluate", "decide", "reduce_bottom_up")),
        ("parallel", "repro.parallel.executor", "ParallelYannakakisEvaluator",
         ("evaluate", "decide", "reduce_bottom_up")),
        ("evaluation", "repro.evaluation.treewidth_eval", "TreewidthEvaluator",
         ("evaluate", "decide")),
        ("evaluation", "repro.evaluation.counting", "CountingYannakakisEvaluator",
         ("count", "grouped_count")),
        ("inequalities", "repro.inequalities.evaluator", "AcyclicInequalityEvaluator",
         ("evaluate", "decide")),
    )
    return [
        Target(layer, module, f"{cls}.{method}", describe_result)
        for layer, module, cls, methods in classes
        for method in methods
    ]


def _parallel() -> List[Target]:
    """``QueryEngine()`` is parallel by default: acyclic plans over >= 1024
    rows run sharded, through these instead of ``Relation.semijoin`` & co."""
    sharded = (
        "semijoin", "natural_join", "select_eq", "project", "union", "to_relation",
    )
    return [
        Target("parallel", "repro.parallel.pool", "WorkerPool.map", None, WAIT),
        Target("parallel", "repro.parallel.sharding", "shard_relation",
               describe_relation_op),
        Target("parallel", "repro.parallel.ops", "bucket_semijoin",
               describe_relation_op),
        Target("parallel", "repro.parallel.ops", "parallel_semijoin"),
        Target("parallel", "repro.parallel.ops", "parallel_hash_join"),
        Target("parallel", "repro.parallel.ops", "parallel_select_eq"),
        Target("parallel", "repro.parallel.batch", "lift_batch_group"),
    ] + [
        Target("parallel", "repro.parallel.sharding", f"ShardedRelation.{op}")
        for op in sharded
    ]


TARGETS: List[Target] = [
    Target("query", "repro.query.parser", "parse_query"),
    Target("protocol", "repro.protocol.codec", "encode", describe_encode),
    Target("protocol", "repro.protocol.codec", "decode", describe_decode),
    Target("protocol", "repro.protocol.frames", "encode_binary", describe_encode),
    Target("protocol", "repro.protocol.frames", "decode_binary", describe_decode),
    Target("protocol", "repro.protocol.messages", "encode_result",
           describe_encode_result),
    Target("protocol", "repro.protocol.messages", "decode_result", describe_result),
    Target("protocol", "repro.protocol.messages", "encode_database",
           describe_encode_database),
    Target("protocol", "repro.protocol.messages", "decode_database",
           describe_decode_database),
    Target("service", "repro.service.service", "QueryService.run",
           describe_operation, ENVELOPE),
    Target("service", "repro.service.service", "QueryService.run_batch",
           None, ENVELOPE),
    Target("engine", "repro.engine.engine", "QueryEngine.run", describe_operation),
    Target("engine", "repro.engine.engine", "QueryEngine.run_batch"),
    Target("engine", "repro.engine.engine", "QueryEngine.plan_for"),
    Target("engine", "repro.engine.analysis", "analyze"),
    Target("engine", "repro.engine.planner", "Planner.plan"),
    *_evaluators(),
    *_parallel(),
    *_relational(),
]


class Installer:
    """Swap wrappers in; put the originals back.  Use as a context manager."""

    def __init__(self, recorder: Recorder, targets: Iterable[Target] = TARGETS) -> None:
        self.recorder = recorder
        self.targets = list(targets)
        self.wrapped = 0
        self.missing: List[str] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Installer":
        try:
            for target in self.targets:
                self._install(target)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _wrap(self, target: Target, fn):
        recorder = self.recorder
        if target.kind == ENVELOPE:
            return recorder.envelope_wrapper(
                target.layer, target.path, fn, target.describe
            )
        return recorder.sync_wrapper(
            target.layer, target.path, fn, target.describe, target.kind
        )

    def _install(self, target: Target) -> None:
        label = f"{target.module}.{target.path}"
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            self.missing.append(label)
            return
        owner_name, _, attr = target.path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = vars(owner).get(attr) if isinstance(owner, type) else None
            if raw is None:
                self.missing.append(label)
                return
            if isinstance(raw, (classmethod, staticmethod)):
                wrapper: Any = type(raw)(self._wrap(target, raw.__func__))
            else:
                wrapper = self._wrap(target, raw)
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, raw))
        else:
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(label)
                return
            wrapper = self._wrap(target, original)
            for name, holder in list(sys.modules.items()):
                if holder is None or not (name == "repro" or name.startswith("repro.")):
                    continue
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, original))
        self.wrapped += 1


# ----------------------------------------------------------------------
# The budget
# ----------------------------------------------------------------------


def attribute(spans: List[list], begin: int, end: int) -> Dict[str, float]:
    """Layer -> nanoseconds of [begin, end], plus ``untraced``; the values sum
    to ``end - begin``.  Also stores every span's own share in ``span[SELF]``."""
    events = []
    for span in spans:
        if span[END] <= span[START]:
            continue
        # At one instant: closes before opens; inner spans close first and
        # outer spans open first.
        events.append((span[START], 1, span[SEQ], span))
        events.append((span[END], 0, -span[SEQ], span))
    events.sort(key=lambda event: event[:3])
    budget: Dict[str, float] = {UNTRACED: 0.0}
    stacks: Dict[int, List[list]] = {}
    envelopes: List[list] = []
    previous = begin
    for moment, opening, _order, span in events:
        moment = min(max(moment, begin), end)
        width = moment - previous
        if width > 0:
            innermost = [stack[-1] for stack in stacks.values() if stack]
            owners = (
                [s for s in innermost if s[KIND] == WORK] or innermost or envelopes
            )
            if owners:
                share = width / len(owners)
                for owner in owners:
                    owner[SELF] += share
                    budget[owner[LAYER]] = budget.get(owner[LAYER], 0.0) + share
            else:
                budget[UNTRACED] += width
            previous = moment
        holder = (
            envelopes if span[KIND] == ENVELOPE
            else stacks.setdefault(span[THREAD], [])
        )
        if opening:
            holder.append(span)
        else:
            for index in range(len(holder) - 1, -1, -1):
                if holder[index] is span:
                    del holder[index]
                    break
    if end > previous:
        budget[UNTRACED] += end - previous
    return budget


def dump(spans: List[list]) -> List[list]:
    """Spans as JSON-able rows: ``[id, parent id, layer, name, thread, start,
    end, rows in, rows out, kind, self ns]``."""
    ids = {id(span): number for number, span in enumerate(spans)}
    return [
        [
            ids[id(span)],
            ids.get(id(span[PARENT])) if span[PARENT] is not None else None,
            span[LAYER], span[NAME], span[THREAD], span[START], span[END],
            span[ROWS_IN], span[ROWS_OUT], span[KIND], round(span[SELF]),
        ]
        for span in spans
    ]
