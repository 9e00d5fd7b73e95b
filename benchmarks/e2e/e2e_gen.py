"""Seeded inputs of the e2e benchmark: databases and request streams.

Pure Python on purpose (no ``repro`` import): the benchmark owns its data
generators so inputs cannot drift with ``repro.workloads``, and the harness
self-test pins them byte-stable for a fixed seed.

Every graph has a *fixed out-degree*, so row counts (and the number of
k-hop paths, ``width * degree**k`` per layer) are the same for every seed;
only the wiring — and with it the number of *distinct* path endpoints —
varies.  That keeps the work of a workload nearly seed-invariant, which the
benchmark contract needs: its spread check runs each workload on ten
different seeds.

A workload is a warm-up round plus an endless sequence of *rounds*.  Every
round of a workload has exactly the same request composition (a fixed
stream, not a fixed duration), so a run that fits more rounds into
``--seconds`` measures the same thing, just more often.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Rows = List[Tuple[int, int]]
#: database name -> relation name -> (attributes, rows)
Databases = Dict[str, Dict[str, Tuple[Tuple[str, ...], Rows]]]

#: ``register_churn`` shifts every value of generation g by g * SHIFT, so a
#: fresh generation shares no value with anything the server has interned.
SHIFT = 10**6

EDGE_ATTRS = ("s", "t")
ARM_ATTRS = ("h", "x")
ARMS = ("A", "B", "C")

REGISTER = "register"


def chain_rows(rng: random.Random, layers: int, width: int, degree: int) -> Rows:
    """A layered DAG in one edge relation: ``layers`` layers of ``width``
    nodes, every node wired to exactly ``degree`` distinct nodes of the
    next layer.  Node ids are ``layer * width + index``."""
    rows: Rows = []
    for layer in range(layers - 1):
        base, nxt = layer * width, (layer + 1) * width
        for index in range(width):
            for target in sorted(rng.sample(range(width), degree)):
                rows.append((base + index, nxt + target))
    return rows


def star_rows(rng: random.Random, hubs: int, fan: int) -> Dict[str, Rows]:
    """Three arm relations A, B, C: every hub has ``fan`` distinct leaves per
    arm (leaf ids are drawn per hub from a range four times the fan-out)."""
    arms: Dict[str, Rows] = {}
    for number, arm in enumerate(ARMS):
        rows: Rows = []
        for hub in range(hubs):
            for leaf in sorted(rng.sample(range(fan * 4), fan)):
                rows.append((hub, 10_000 * (number + 1) + leaf))
        arms[arm] = rows
    return arms


def shifted(rows: Rows, generation: int) -> Rows:
    """Generation ``generation`` of *rows*: every value moved by g * SHIFT."""
    delta = generation * SHIFT
    return [(s + delta, t + delta) for s, t in rows]


# ----------------------------------------------------------------------
# Queries (rule-notation text — what travels on the wire)
# ----------------------------------------------------------------------

_VARS = "abcdefgh"


def path_query(
    hops: int,
    head: int,
    start: Optional[int] = None,
    neq: Optional[Tuple[int, int]] = None,
) -> str:
    """A ``hops``-hop path over E whose head is the first ``head`` path
    variables; ``start`` binds the first node to a constant, ``neq`` adds
    one inequality between two path positions."""
    terms: List[str] = [str(start) if start is not None else _VARS[0]]
    terms += list(_VARS[1 : hops + 1])
    body = [f"E({terms[i]}, {terms[i + 1]})" for i in range(hops)]
    if neq is not None:
        body.append(f"{terms[neq[0]]} != {terms[neq[1]]}")
    head_terms = [t for t in terms if not t.lstrip("-").isdigit()][:head]
    return f"Q({', '.join(head_terms)}) :- {', '.join(body)}."


TRIANGLE = "Q() :- E(a, b), E(b, c), E(c, a)."
SCAN = "Q(x, y) :- E(x, y)."
#: Head covered by one atom: the counting fold applies and the answer has
#: one row per A-edge, so the star never materialises its fan**3 product.
STAR = "Q(h, x) :- A(h, x), B(h, y), C(h, z)."


# ----------------------------------------------------------------------
# Requests, workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One request of a stream.

    ``tag`` names the request class (kind, query shape, database) for
    per-class reporting; ``tuples_in`` is the sum over the query's atoms of
    the cardinality of the relation each atom reads (the input side of the
    linear-time bound); ``generation`` is set for ``register`` requests.
    """

    kind: str
    query: str
    database: str
    tag: str
    tuples_in: int = 0
    generation: int = 0
    #: Offer the query to the sqlite pushdown A/B?  Not the stars: SELECT
    #: DISTINCT over their fan**3 product does not finish.
    sql_ab: bool = True


#: One round: ``(connection index, request)`` in send order.
Round = List[Tuple[int, Request]]


@dataclass
class Workload:
    name: str
    why: str
    databases: Databases
    #: One entry per connection: does it negotiate binary frames?
    connections: Tuple[bool, ...]
    #: True: each connection sends its share of a round concurrently with
    #: the others (closed loop per connection).  False: strictly one request
    #: in flight, in round order.
    concurrent: bool
    #: Sent strictly in order, whatever ``concurrent`` says.
    warmup: Round
    #: Round number -> the round; every round has the same composition.
    round: Callable[[int], Round]
    #: ``server_rss_peak_mb`` is read after this many timed rounds, so the
    #: number does not depend on how many rounds a fast machine fits in.
    rss_rounds: int
    #: kind -> tag whose latencies give ``e2e.ns_per_tuple_<kind>``.
    per_tuple_tags: Dict[str, str] = field(default_factory=dict)
    #: (tag at size 1x, tag at size 2x) for ``e2e.growth_exponent_execute``.
    growth_tags: Optional[Tuple[str, str]] = None
    #: Requests a round may hold that the warm-up round happens not to, so
    #: set-up can put every distinct request to the oracle.
    also_distinct: Tuple[Request, ...] = ()


def _chain_db(rng: random.Random, width: int, degree: int, layers: int = 5):
    return {"E": (EDGE_ATTRS, chain_rows(rng, layers, width, degree))}


def _star_db(rng: random.Random, hubs: int, fan: int):
    return {arm: (ARM_ATTRS, rows) for arm, rows in star_rows(rng, hubs, fan).items()}


def _path(kind: str, db: str, edges: int, hops: int, head: int, **kw) -> Request:
    shape = f"path{hops}h{head}"
    if kw.get("start") is not None:
        shape += "c"
    if kw.get("neq") is not None:
        shape += "neq"
    return Request(
        kind, path_query(hops, head, **kw), db, f"{kind}:{shape}@{db}", hops * edges
    )


def _star(kind: str, db: str, databases: Databases) -> Request:
    tuples = sum(len(databases[db][arm][1]) for arm in ARMS)
    return Request(kind, STAR, db, f"{kind}:star@{db}", tuples, sql_ab=False)


# -- wire_small_mix -----------------------------------------------------

#: Requests per connection per round, by class — 100 in total.
SMALL_MIX = (
    ("decide_const", 30),
    ("count_path3", 20),
    ("execute_path4", 15),
    ("decide_triangle", 10),
    ("execute_neq", 10),
    ("count_star", 10),
    ("explain", 5),
)


def wire_small_mix(seed: int) -> Workload:
    rng = random.Random(f"wire_small_mix:{seed}")
    width, degree = 60, 4
    databases: Databases = {
        "chain": _chain_db(rng, width, degree),
        "star": _star_db(rng, hubs=5, fan=40),
    }
    edges = len(databases["chain"]["E"][1])
    # Start constants: layer 0 answers True, layer 1 answers False (only
    # three hops remain), so both outcomes of ``decide`` are exercised — four
    # hot constants of each, so the mix of outcomes is the same for every seed.
    hot = rng.sample(range(width), 4) + rng.sample(range(width, 2 * width), 4)

    fixed = {
        "count_path3": _path("count", "chain", edges, 3, 2),
        "execute_path4": _path("execute", "chain", edges, 4, 1),
        "decide_triangle": Request(
            "decide", TRIANGLE, "chain", "decide:triangle@chain", 3 * edges
        ),
        "execute_neq": _path("execute", "chain", edges, 2, 2, neq=(0, 2)),
        "count_star": _star("count", "star", databases),
        "explain": _path("explain", "chain", edges, 4, 1),
    }

    def members(name: str, count: int, draw: random.Random) -> List[Request]:
        if name != "decide_const":
            return [fixed[name]] * count
        starts = [
            draw.choice(hot) if i % 2 == 0 else draw.randrange(2 * width)
            for i in range(count)
        ]
        return [_path("decide", "chain", edges, 4, 0, start=s) for s in starts]

    def make_round(index: int) -> Round:
        out: Round = []
        for conn in range(2):
            draw = random.Random(f"wire_small_mix:{seed}:{index}:{conn}")
            requests = [
                req for name, count in SMALL_MIX for req in members(name, count, draw)
            ]
            draw.shuffle(requests)
            out += [(conn, req) for req in requests]
        return out

    # Every shape once, in a fixed order, before anything else: the engine
    # plans a shape when it first sees it and calibrates its cost model from
    # the latencies recorded so far, so a shuffled first round would let the
    # seed pick the plans.
    first_sight: Round = [
        (0, members(name, 1, random.Random(0))[0]) for name, _count in SMALL_MIX
    ]

    return Workload(
        name="wire_small_mix",
        why=WHY["wire_small_mix"],
        databases=databases,
        connections=(False, False),
        concurrent=True,
        warmup=first_sight + make_round(-1),
        round=make_round,
        rss_rounds=3,
        also_distinct=tuple(
            _path("decide", "chain", edges, 4, 0, start=start)
            for start in range(2 * width)
        ),
        per_tuple_tags={
            "execute": "execute:path4h1@chain",
            "count": "count:path3h2@chain",
            "decide": "decide:path4h0c@chain",
        },
    )


# -- bulk_acyclic -------------------------------------------------------


def bulk_acyclic(seed: int) -> Workload:
    rng = random.Random(f"bulk_acyclic:{seed}")
    databases: Databases = {
        "chain_1x": _chain_db(rng, 500, 5),
        "chain_2x": _chain_db(rng, 1000, 5),
        "star": _star_db(rng, hubs=10, fan=400),
    }
    one_round: Round = []
    for db in ("chain_1x", "chain_2x"):
        edges = len(databases[db]["E"][1])
        for kind in ("execute", "count", "decide"):
            one_round.append((0, _path(kind, db, edges, 4, 2)))
    one_round.append((0, _star("execute", "star", databases)))
    one_round.append((0, _star("count", "star", databases)))

    return Workload(
        name="bulk_acyclic",
        why=WHY["bulk_acyclic"],
        databases=databases,
        connections=(False,),
        concurrent=False,
        warmup=list(one_round),
        round=lambda index: list(one_round),
        rss_rounds=3,
        per_tuple_tags={
            kind: f"{kind}:path4h2@chain_2x" for kind in ("execute", "count", "decide")
        },
        growth_tags=("execute:path4h2@chain_1x", "execute:path4h2@chain_2x"),
    )


# -- bulk_transfer ------------------------------------------------------


def bulk_transfer(seed: int) -> Workload:
    rng = random.Random(f"bulk_transfer:{seed}")
    databases: Databases = {"chain_2x": _chain_db(rng, 1000, 5)}
    edges = len(databases["chain_2x"]["E"][1])
    scan = Request("execute", SCAN, "chain_2x", "execute:scan@chain_2x", edges)
    two_hop = _path("execute", "chain_2x", edges, 2, 3)
    # JSON-lines connection 0 and binary-frames connection 1 take turns;
    # never concurrently, so each framing is timed alone.
    one_round: Round = [(0, scan), (1, scan), (0, two_hop), (1, two_hop)]
    return Workload(
        name="bulk_transfer",
        why=WHY["bulk_transfer"],
        databases=databases,
        connections=(False, True),
        concurrent=False,
        warmup=list(one_round),
        round=lambda index: list(one_round),
        rss_rounds=3,
        per_tuple_tags={"execute": two_hop.tag},
    )


# -- register_churn -----------------------------------------------------

CHURN_DB = "churn"


def register_churn(seed: int) -> Workload:
    rng = random.Random(f"register_churn:{seed}")
    databases: Databases = {CHURN_DB: _chain_db(rng, 500, 5)}
    edges = len(databases[CHURN_DB]["E"][1])
    count = _path("count", CHURN_DB, edges, 4, 2)

    def cycle(generation: int) -> Round:
        register = Request(
            REGISTER, "", CHURN_DB, "register", edges, generation=generation
        )
        # The first count after a registration pays first-touch column and
        # index builds; the harness tells it from the three warm ones by
        # seeing (tag, database, generation) for the first time.
        return [(0, register)] + [(0, count)] * 4

    return Workload(
        name="register_churn",
        why=WHY["register_churn"],
        databases=databases,
        connections=(False,),
        concurrent=False,
        warmup=cycle(1),
        # Generation 0 is what the server starts with, 1 is the warm-up.
        round=lambda index: cycle(index + 2),
        rss_rounds=12,
        per_tuple_tags={"count": count.tag},
    )


WHY = {
    "wire_small_mix": (
        "2 connections, <=10 ms of evaluation per request over all operation "
        "kinds and query classes: protocol, service, parsing and the plan "
        "cache do most of the work, the kernel little"
    ),
    "bulk_acyclic": (
        "1 connection, 4-hop paths and stars on 10k-20k rows at two sizes: "
        "evaluation and the (sharded) kernel are ~80 % of a request, so "
        "per-tuple cost measures distance from the linear bound"
    ),
    "bulk_transfer": (
        "JSON-lines and binary-frames connections in turn, 20k-75k result "
        "rows per request: evaluation is trivial, result encoding and "
        "decoding dominate"
    ),
    "register_churn": (
        "1 connection re-registering a database of fresh values and querying "
        "it cold then warm: the write path, first-touch index builds and "
        "server memory growth"
    ),
}

WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "wire_small_mix": wire_small_mix,
    "bulk_acyclic": bulk_acyclic,
    "bulk_transfer": bulk_transfer,
    "register_churn": register_churn,
}


def build(name: str, seed: int) -> Workload:
    try:
        return WORKLOADS[name](seed)
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; choose one of {sorted(WORKLOADS)}"
        ) from None


def fingerprint(workload: Workload, rounds: Sequence[int] = (0, 1)) -> str:
    """SHA-256 over the databases, the warm-up and the given rounds — what
    the self-test pins to prove the generators are byte-stable."""

    def plain(rnd: Round):
        return [
            [c, r.kind, r.query, r.database, r.tag, r.tuples_in, r.generation]
            for c, r in rnd
        ]

    document = {
        "databases": workload.databases,
        "connections": workload.connections,
        "warmup": plain(workload.warmup),
        "rounds": [plain(workload.round(index)) for index in rounds],
    }
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
