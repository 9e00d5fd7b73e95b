"""Property tests for the wire codec: byte-exact round-trips, strict rejects.

The framing contract the server and both clients rely on: for every valid
message ``m``, ``decode(encode(m))`` carries what ``m`` carries — a sent
message holds its relations as ``Relation`` objects, a received one as the
JSON payloads ``decode_relation`` reads — and, because ``encode`` is
canonical (sorted keys, no insignificant whitespace),
``encode(decode(encode(m))) == encode(m)`` byte for byte.  Row order on the
wire is the sender's and means nothing.
Hypothesis drives the message space: every request and response kind,
unicode constants (including newlines and quotes, which JSON escaping must
neutralize), empty relations, and batches far beyond the service's
``batch_limit``.
"""

import gc
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, Relation, parse_query
from repro.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    Response,
    decode,
    decode_database,
    decode_relation,
    decode_result,
    encode,
    encode_database,
    encode_relation,
    error_response,
    query_text,
    request_id_of,
)
from repro.protocol.messages import (
    BOOLEAN,
    ERROR,
    PING,
    PONG,
    QUERY_OPS,
    RELATION,
    RESULTS,
    RUN_BATCH,
    STATS,
    STATS_RESULT,
    TEXT,
    ErrorInfo,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

ids = st.integers(min_value=0, max_value=2**31)
texts = st.text(max_size=80)  # arbitrary unicode: quotes, newlines, emoji
names = st.text(min_size=1, max_size=24)

query_requests = st.builds(
    Request,
    op=st.sampled_from(QUERY_OPS),
    id=ids,
    query=texts,
    database=names,
)

# "Oversized": far beyond DEFAULT_BATCH_LIMIT (64) — framing must not care.
batch_requests = st.builds(
    lambda rid, members, database: Request(
        op=RUN_BATCH,
        id=rid,
        operations=tuple({"op": op, "query": query} for op, query in members),
        database=database,
    ),
    rid=ids,
    members=st.lists(st.tuples(st.sampled_from(QUERY_OPS), texts), max_size=200),
    database=names,
)

nullary_requests = st.builds(Request, op=st.sampled_from((STATS, PING)), id=ids)

requests = st.one_of(query_requests, batch_requests, nullary_requests)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    texts,
)

json_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=12), children, max_size=4),
    ),
    max_leaves=12,
)


@st.composite
def relations(draw):
    """Relations as a message holds them: arity 0–4, 0–20 rows, unicode
    values."""
    arity = draw(st.integers(min_value=0, max_value=4))
    attributes = draw(
        st.lists(names, min_size=arity, max_size=arity, unique=True)
    )
    row = st.tuples(*([scalars] * arity))
    rows = draw(st.lists(row, max_size=20))
    return encode_relation(Relation.from_rows(tuple(attributes), rows))


def wire_payload(relation):
    """What the JSON framing makes of *relation*: the parsed payload."""
    return json.loads(encode(Response(id=0, kind=RELATION, result=relation)))["result"]


@st.composite
def responses(draw):
    kind = draw(
        st.sampled_from(
            (RELATION, BOOLEAN, RESULTS, TEXT, STATS_RESULT, PONG, ERROR)
        )
    )
    rid = draw(st.one_of(st.none(), ids))
    if kind == ERROR:
        error = ErrorInfo(
            code=draw(names),
            message=draw(texts),
            detail=draw(st.dictionaries(st.text(max_size=12), scalars, max_size=4)),
        )
        return Response(id=rid, kind=ERROR, error=error)
    if kind == RELATION:
        result = draw(relations())
    elif kind == RESULTS:
        result = [
            {"kind": RELATION, "result": relation}
            for relation in draw(st.lists(relations(), max_size=5))
        ] + [
            {"kind": BOOLEAN, "result": flag}
            for flag in draw(st.lists(st.booleans(), max_size=100))
        ]
    elif kind == BOOLEAN:
        result = draw(st.booleans())
    elif kind == TEXT:
        result = draw(texts)
    elif kind == STATS_RESULT:
        result = draw(json_values)
    else:  # PONG
        result = None
    return Response(id=rid, kind=kind, result=result)


# ----------------------------------------------------------------------
# Round-trip properties
# ----------------------------------------------------------------------


class TestRoundTrips:
    @given(message=requests)
    @settings(max_examples=200)
    def test_request_round_trip_byte_exact(self, message):
        data = encode(message)
        assert data.endswith(b"\n") and data.count(b"\n") == 1
        decoded = decode(data)
        assert decoded == message
        assert encode(decoded) == data

    @given(message=responses())
    @settings(max_examples=200)
    def test_response_round_trip_byte_exact(self, message):
        data = encode(message)
        assert data.endswith(b"\n") and data.count(b"\n") == 1
        decoded = decode(data)
        assert encode(decoded) == data
        if message.kind == RELATION:
            assert decode_result(RELATION, decoded.result) == message.result
        elif message.kind == RESULTS:
            assert [
                decode_result(member["kind"], member["result"])
                for member in decoded.result
            ] == [member["result"] for member in message.result]
        else:
            assert decoded == message

    @given(message=st.one_of(requests, responses()))
    def test_encode_is_canonical_json(self, message):
        data = encode(message)
        payload = json.loads(data)
        assert payload["v"] == PROTOCOL_VERSION
        recanonical = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
        ).encode("utf-8")
        assert data == recanonical + b"\n"

    @given(relation=relations())
    def test_relation_payload_round_trip(self, relation):
        payload = wire_payload(relation)
        assert payload["attributes"] == list(relation.attributes)
        assert payload["cardinality"] == len(relation)
        assert payload["columns"] == [
            [row[p] for row in relation] for p in range(relation.arity)
        ]
        assert decode_relation(payload) == relation
        # What a framing already built (binary frames do) passes through.
        assert decode_relation(relation) is relation

    def test_empty_relation_round_trips(self):
        relation = Relation.from_rows(("a", "b"))
        payload = wire_payload(relation)
        assert payload == {
            "attributes": ["a", "b"], "cardinality": 0, "columns": [[], []]
        }
        assert decode_relation(payload) == relation

    def test_zero_arity_relations_round_trip(self):
        # No column holds a nullary row: the cardinality alone spells TRUE.
        true = {"attributes": [], "cardinality": 1, "columns": []}
        assert wire_payload(Relation.unit()) == true
        assert wire_payload(Relation.empty()) == {**true, "cardinality": 0}
        for relation in (Relation.unit(), Relation.empty()):
            assert decode_relation(wire_payload(relation)) == relation

    def test_unicode_constants_survive(self):
        relation = Relation.from_rows(("name",), [("héllo wörld",), ("改行\nあり",), ("'q'",)])
        assert decode_relation(wire_payload(relation)) == relation

    def test_query_text_round_trips_through_parser(self):
        query = parse_query("G(e) :- EP(e, p), EP(e, q), p != q.")
        assert parse_query(query_text(query)) == query
        assert query_text("Q(x) :- E(x, y).") == "Q(x) :- E(x, y)."

    def test_an_undeclared_domain_is_not_sent(self):
        # The server derives the active domain from the relations itself.
        database = Database({"E": Relation.from_rows(("x",), [(1,), (2,)])})
        assert database.declared_domain is None
        document = encode_database(database)
        assert "domain" not in document
        assert decode_database(document) == database


# ----------------------------------------------------------------------
# Strict rejection
# ----------------------------------------------------------------------


class TestRejects:
    @pytest.mark.parametrize(
        "line, code",
        [
            (b"not json at all\n", "not_json"),
            (b"[1, 2, 3]\n", "not_json"),
            (b'"just a string"\n', "not_json"),
            (b'{"op": "execute"}\n', "unsupported_version"),
            (b'{"v": 99, "op": "ping", "id": 1}\n', "unsupported_version"),
            (b'{"v": 1, "neither": true}\n', "bad_request"),
            (b'{"v": 1, "op": "frobnicate", "id": 1}\n', "bad_request"),
            (b'{"v": 1, "op": "ping", "id": -4}\n', "bad_request"),
            (b'{"v": 1, "op": "ping", "id": 1, "query": "Q"}\n', "bad_request"),
            (b'{"v": 1, "op": "execute", "id": 1}\n', "bad_request"),
            (b'{"v": 1, "op": "execute", "id": 1, "query": "Q", '
             b'"database": "d", "extra": 1}\n', "bad_request"),
            # 'execute_batch' / 'decide_batch' are not ops and 'queries' is
            # not a field: rejected like any other unknown op or field.
            (b'{"v": 1, "op": "execute_batch", "id": 1, "queries": ["Q"], '
             b'"database": "d"}\n', "bad_request"),
            (b'{"v": 1, "op": "decide_batch", "id": 1, "database": "d"}\n',
             "bad_request"),
            (b'{"v": 1, "op": "run_batch", "id": 1, "queries": ["Q"], '
             b'"database": "d"}\n', "bad_request"),
            (b'{"v": 1, "ok": true, "kind": "nope", "result": 1}\n', "bad_request"),
            (b'{"v": 1, "ok": false, "kind": "error", "result": 1}\n', "bad_request"),
            (b'{"v": 1, "ok": false, "kind": "error", "error": {}}\n', "bad_request"),
            (b'{"v": 1, "ok": "yes", "kind": "text"}\n', "bad_request"),
            (b"\xff\xfe\n", "not_json"),
        ],
    )
    def test_bad_frames_raise_typed_errors(self, line, code):
        # The table spells its frames at version 1; each is checked at the
        # version this build speaks, so only its shape is at fault.  (A
        # version 1 frame itself is answered ``unsupported_version``:
        # test_protocol_server's raw-garbage test sends one.)
        line = line.replace(b'"v": 1,', b'"v": %d,' % PROTOCOL_VERSION)
        with pytest.raises(ProtocolError) as excinfo:
            decode(line)
        assert excinfo.value.code == code

    def test_unrepresentable_relation_value_rejected(self):
        relation = Relation.from_rows(("x",), [(object(),)])
        with pytest.raises(ProtocolError) as excinfo:
            encode_relation(relation)
        assert excinfo.value.code == "unrepresentable"
        nested = Relation.from_rows(("x", "y"), [(1, 2), (3, (4, 5))])
        with pytest.raises(ProtocolError, match=r"\(4, 5\)") as excinfo:
            encode_relation(nested)
        assert excinfo.value.code == "unrepresentable"

    def test_scalar_subclasses_stay_representable(self):
        import enum

        class Colour(enum.IntEnum):
            RED = 1

        relation = Relation.from_rows(("c",), [(Colour.RED,)])
        assert wire_payload(relation)["columns"] == [[1]]

    @pytest.mark.parametrize(
        "rows",
        [
            ["ab"],
            [{"x": 1, "y": 2}],
            [5],
            [[1, [2]]],
            [[1, {"k": 2}]],
            [[1, 2], [3]],
            [[1, 2, 3]],
            [[1, 2], [2, 3]],  # well formed, and refused all the same
        ],
    )
    def test_malformed_rows_are_bad_requests(self, rows):
        # Version 1's row spelling is deleted, not kept beside the columns:
        # malformed or not, a "rows" payload has no columns to read.
        with pytest.raises(ProtocolError) as excinfo:
            decode_relation({"attributes": ["x", "y"], "rows": rows})
        assert excinfo.value.code == "bad_request"

    def test_unhashable_domain_is_a_bad_request(self):
        document = {
            "relations": {
                "E": {"attributes": ["x"], "cardinality": 1, "columns": [[1]]}
            },
            "domain": [1, [2]],
        }
        with pytest.raises(ProtocolError) as excinfo:
            decode_database(document)
        assert excinfo.value.code == "bad_request"

    @pytest.mark.parametrize("attributes", [["x", "x"], ["x", 7], ["x", ""]])
    def test_malformed_attributes_are_bad_requests(self, attributes):
        payload = {"attributes": attributes, "cardinality": 1, "columns": [[1], [2]]}
        with pytest.raises(ProtocolError) as excinfo:
            decode_relation(payload)
        assert excinfo.value.code == "bad_request"

    def test_request_id_recovery(self):
        assert request_id_of(b'{"v": 1, "op": "bad", "id": 17}') == 17
        assert request_id_of(b"garbage") is None
        assert request_id_of(b'{"id": -3}') is None
        assert request_id_of(b'{"id": true}') is None
        assert request_id_of(b"[4]") is None

    def test_error_response_taxonomy_is_json_able(self):
        response = error_response(5, ValueError("boom"))
        assert response.error.code == "internal_error"
        decoded = decode(encode(response))
        assert decoded == response
        assert decoded.error.detail["type"] == "ValueError"


# ----------------------------------------------------------------------
# Registration decode versus answer decode
# ----------------------------------------------------------------------


def layered_edges(layers=5, width=2000):
    """``layers * width`` distinct edges, each node of a layer to one of
    the next: what a registration of fresh data carries."""
    source = [layer * width + node for layer in range(layers) for node in range(width)]
    target = [
        (layer + 1) * width + (node * 7 + layer) % width
        for layer in range(layers)
        for node in range(width)
    ]
    return source, target


class TestRegistrationDecode:
    def test_a_registration_builds_no_row_for_a_covered_count(self):
        """A ``register_database`` relation is born as its columns, and a
        planned covered count reads columns and key censuses only: no row
        is built, and the decode allocates nothing that triggers the
        cycle collector."""
        from repro.engine import QueryEngine

        source, target = layered_edges()
        payload = {
            "relations": {
                "E": {
                    "attributes": ["a", "b"],
                    "columns": [source, target],
                    "cardinality": len(source),
                }
            }
        }
        gc.collect()
        before = gc.get_stats()[0]["collections"]
        database = decode_database(payload)
        assert gc.get_stats()[0]["collections"] == before
        edges = database["E"]
        assert len(edges) == 10_000

        engine = QueryEngine()
        query = parse_query("Q(b, c) :- E(a, b), E(b, c), E(c, d), E(d, e).")
        rows = Relation.from_rows(("a", "b"), zip(source, target))
        assert engine.count(query, database) == engine.count(
            query, Database({"E": rows})
        )
        assert not {"order", "rows"} & set(edges._cache)
        assert "counting : count-covered" in engine.explain(query, database)

    def test_an_answer_is_born_as_its_rows(self):
        # The client reads an answer's rows: decode_relation builds them
        # once, and dedupes like any row-major birth.
        payload = {"attributes": ["x", "y"], "columns": [[1, 2, 1], [3, 4, 3]], "cardinality": 3}
        answer = decode_relation(payload)
        assert list(answer._cache) == ["order"]
        assert answer._row_order() == ((1, 3), (2, 4))
        registered = decode_database({"relations": {"E": payload}})["E"]
        assert registered == answer

    @pytest.mark.parametrize(
        "columns", [[[1, [2]], [3, 4]], [[1, 2], [3, {"k": 4}]], [[[1], [1]], [3, 3]]]
    )
    def test_unhashable_cells_are_bad_requests_either_way(self, columns):
        payload = {"attributes": ["x", "y"], "columns": columns, "cardinality": 2}
        for decode_one in (decode_relation, lambda p: decode_database({"relations": {"E": p}})):
            with pytest.raises(ProtocolError) as excinfo:
                decode_one(payload)
            assert excinfo.value.code == "bad_request"
