"""Binary relation frames: spelling-exact codec round-trips and negotiation.

The contracts under test:

* ``decode_binary`` inverts ``encode_binary``, and the round-trip is
  *spelling-exact with respect to the JSON framing*: re-encoding the
  decoded message as a JSON line spells every row as the original's line
  does — including value spellings JSON distinguishes but Python equality
  does not (``true`` vs ``1``, ``-0.0`` vs ``0.0``), on both column kinds
  (fixed-width integers at every width, JSON arrays).  Row *order* is the
  sender's on both framings and is not compared.
* Both framings cost a number of Python-level calls that does not grow
  with the rows (``TestLinearity``).
* ``encode_binary`` declines (returns ``None``) for messages without
  relation payloads; the wire then carries plain JSON lines.
* The framing is negotiated per connection over ``ping`` and measurably
  shrinks bulk relation payloads; non-negotiated connections and
  pre-negotiation servers are unaffected.
"""

import asyncio
import gc
import json
import math
import struct
import sys
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Relation
from repro.protocol import (
    PROTOCOL_VERSION,
    AsyncQueryClient,
    ProtocolError,
    QueryClient,
    QueryServer,
    Request,
    Response,
    decode,
    decode_binary,
    decode_result,
    encode,
    encode_binary,
    encode_relation,
    encode_result,
    query_text,
)
from repro.protocol.frames import (
    BINARY_FRAME,
    BINARY_FRAMES_V2,
    JSON_FRAME,
    KIND_MESSAGE,
    MAGIC,
    negotiate_frames,
)
from repro.protocol.connection import FrameParser
from repro.protocol.messages import PING, PONG, RELATION, RESULTS
from repro.workloads import chain_database, path_query

ids = st.integers(min_value=0, max_value=2**31)
texts = st.text(max_size=60)
names = st.text(min_size=1, max_size=16)

# JSON-representable relation values, including the spellings that are
# Python-equal but JSON-distinct (True/1, -0.0/0.0) and ints past 64 bits.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=2**63, max_value=2**80),
    st.integers(min_value=-(2**80), max_value=-(2**63)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1, True, 0, False, -0.0, 0.0, 1.0]),
    texts,
)
# Ints on both sides of every fixed-width boundary (1, 2, 4, 8 bytes) and
# past the widest, so every column width and the JSON fallback are drawn.
boundaries = [
    edge + step
    for bits in (7, 15, 31, 63)
    for edge in (-(2**bits), 2**bits)
    for step in (-1, 0, 1)
]
integers = st.one_of(
    st.sampled_from(boundaries),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=-128, max_value=127),
)


class Colour(IntEnum):
    RED = 1
    BLUE = 2**40


# Ints mixed with what is not exactly an int but JSON spells near one.
int_lookalikes = st.one_of(
    integers,
    st.booleans(),
    st.sampled_from([Colour.RED, Colour.BLUE, -0.0, 0.0, 1.0, math.nan, None]),
)


@st.composite
def relations(draw, values=scalars):
    arity = draw(st.integers(min_value=0, max_value=4))
    attributes = draw(st.lists(names, min_size=arity, max_size=arity, unique=True))
    row = st.tuples(*([values] * arity))
    rows = draw(st.lists(row, max_size=25))
    return encode_relation(Relation.from_rows(tuple(attributes), rows))


@st.composite
def relation_responses(draw, values=scalars):
    rid = draw(st.one_of(st.none(), ids))
    if draw(st.booleans()):
        return Response(id=rid, kind=RELATION, result=draw(relations(values)))
    return Response(
        id=rid,
        kind=RESULTS,
        result=[
            {"kind": RELATION, "result": relation}
            for relation in draw(st.lists(relations(values), min_size=1, max_size=4))
        ],
    )


def spelled(message):
    """What the JSON line of *message* says, whatever its row order: the
    parsed line with every relation's columns read back as the sorted list
    of its rows' JSON texts (so ``true`` / ``1`` / ``1.0`` and ``-0.0`` /
    ``0.0`` differ)."""

    def walk(node):
        if isinstance(node, dict):
            if set(node) == {"attributes", "cardinality", "columns"}:
                rows = list(zip(*node["columns"])) or [()] * node["cardinality"]
                return {
                    "attributes": node["attributes"],
                    "rows": sorted(json.dumps(list(row)) for row in rows),
                }
            return {key: walk(value) for key, value in node.items()}
        if isinstance(node, list):
            return [walk(item) for item in node]
        return node

    return walk(json.loads(encode(message)))


def run(coroutine):
    return asyncio.run(coroutine)


def body_of(frame: bytes) -> bytes:
    assert frame[0] == MAGIC
    assert frame[1] == KIND_MESSAGE
    length = int.from_bytes(frame[2:6], "big")
    body = frame[6:]
    assert len(body) == length
    return body


class TestCodecRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(relation_responses(), relation_responses(integers)))
    def test_round_trip_is_byte_exact_vs_json(self, response):
        # Spelling-exact, on both column kinds (fixed-width ints, JSON
        # arrays): every value arrives spelled as the JSON line spells it.
        decoded = decode_binary(body_of(encode_binary(response)))
        assert decoded == response  # same relations, as relations
        assert spelled(decoded) == spelled(response)

    @settings(max_examples=200, deadline=None)
    @given(relation_responses(int_lookalikes))
    def test_int_lookalike_columns_are_byte_exact_vs_json(self, response):
        # bool, IntEnum, -0.0, NaN and None among ints: such a column is not
        # an integer column, and each cell keeps its JSON spelling.  (NaN is
        # unequal to itself, so only the spellings are compared.)
        decoded = decode_binary(body_of(encode_binary(response)))
        assert spelled(decoded) == spelled(response)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(relation_responses(), relation_responses(integers)))
    def test_both_framings_decode_to_equal_relations(self, response):
        def received(message):
            members = (
                [message.result] if message.kind == RELATION
                else [member["result"] for member in message.result]
            )
            return [decode_result(RELATION, member) for member in members]

        via_json = received(decode(encode(response)))
        via_binary = received(decode_binary(body_of(encode_binary(response))))
        assert via_json == via_binary == received(response)

    @settings(max_examples=100, deadline=None)
    @given(relations(), ids)
    def test_register_database_request_round_trips(self, relation, rid):
        request = Request(
            op="register_database",
            id=rid,
            database="db",
            data={"relations": {"R": relation}},
        )
        frame = encode_binary(request)
        assert frame is not None
        decoded = decode_binary(body_of(frame))
        assert decoded == request
        assert spelled(decoded) == spelled(request)

    def test_json_distinct_spellings_survive(self):
        # 1 == True == 1.0 and -0.0 == 0.0 in Python; JSON spells all five
        # apart.  (The second column keeps the rows distinct as a set.)
        rows = [(True, 0), (1, 1), (1.0, 2), (-0.0, 3), (0.0, 4), (False, 5), (0, 6)]
        response = Response(
            id=3, kind=RELATION, result=Relation.from_rows(("a", "n"), rows)
        )
        decoded = decode_binary(body_of(encode_binary(response)))
        assert spelled(decoded)["result"]["rows"] == sorted(
            json.dumps(list(row)) for row in rows
        )

    @pytest.mark.parametrize(
        "relation",
        [
            Relation.unit(),
            Relation.empty(),
            Relation.empty(("a", "b")),
        ],
        ids=["true", "false", "empty"],
    )
    def test_zero_arity_and_empty_relations_round_trip(self, relation):
        response = Response(id=1, kind=RELATION, result=relation)
        decoded = decode_binary(body_of(encode_binary(response)))
        assert decoded.result == relation
        assert decoded.result.attributes == relation.attributes
        assert decode_result(RELATION, decode(encode(response)).result) == relation

    def test_relation_free_messages_decline(self):
        assert encode_binary(Response(id=1, kind=PONG, result=None)) is None
        assert encode_binary(Request(op=PING, id=1)) is None
        assert encode_binary(Response(id=1, kind="count", result=7)) is None

    def test_marker_collision_declines(self):
        # A stats-like payload that already uses the marker key must not
        # be rewritten into a frame it did not ask for.
        response = Response(
            id=1,
            kind="stats",
            result={"__relation_frame__": 0, "r": encode_relation(
                Relation.from_rows(("a",), [(1,)])
            )},
        )
        assert encode_binary(response) is None

    def test_integer_columns_travel_at_the_narrowest_width(self):
        cases = [
            ((-128, 127), 1),
            ((-129, 0), 2),
            ((0, 128), 2),
            ((-(2**15), 2**15 - 1), 2),
            ((0, 2**15), 4),
            ((-(2**31), 2**31 - 1), 4),
            ((-(2**31) - 1, 0), 8),
            ((0, 2**31), 8),
            ((-(2**63), 2**63 - 1), 8),
            ((0, 2**63), 0),  # past 8 bytes: a JSON column
            ((-(2**63) - 1, 0), 0),
        ]
        for values, width in cases:
            relation = Relation.from_rows(("a",), [(value,) for value in values])
            response = Response(id=1, kind=RELATION, result=relation)
            body = body_of(encode_binary(response))
            [(kind, got, data)] = column_entries(body)
            assert (kind, got) == ((1, width) if width else (0, 0)), values
            if width:
                assert len(data) == 2 * width
            assert decode_binary(body).result == relation
        # 400 rows of small ints: 6 bytes a row in the frame, against ~12
        # digits and commas in the line's columns (~14 with row brackets).
        rows = [(i % 20, i // 20, i * 1000) for i in range(400)]
        response = Response(
            id=1, kind=RELATION, result=Relation.from_rows(("x", "y", "z"), rows)
        )
        frame = encode_binary(response)
        assert [entry[:2] for entry in column_entries(body_of(frame))] == [
            (1, 1), (1, 1), (1, 4)
        ]
        assert len(frame) < 0.6 * len(encode(response))
        assert spelled(decode_binary(body_of(frame))) == spelled(response)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(relations(), relations(integers), relations(int_lookalikes)))
    def test_a_column_has_one_spelling_on_both_framings(self, relation):
        # The JSON line spells the columns exactly as the block's JSON
        # (kind 0) columns are written, and an integer column as the JSON
        # text of its values; both framings decode to the relation sent.
        response = Response(id=1, kind=RELATION, result=relation)
        line = encode(response)
        body = body_of(encode_binary(response))
        texts = []
        for kind, width, data in column_entries(body):
            if kind == 0:
                texts.append(data)
            else:
                values = [
                    int.from_bytes(data[at : at + width], "big", signed=True)
                    for at in range(0, len(data), width)
                ]
                texts.append(json.dumps(values, separators=(",", ":")).encode())
        assert b'"columns":[' + b",".join(texts) + b"]" in line
        via_json = decode_result(RELATION, decode(line).result)
        via_binary = decode_binary(body).result
        assert via_json.attributes == via_binary.attributes == relation.attributes
        if not any(value != value for row in relation for value in row):  # NaN
            assert via_json == via_binary == relation

    def test_truncated_frame_is_typed_error(self):
        frame = encode_binary(
            Response(
                id=1,
                kind=RELATION,
                result=encode_relation(Relation.from_rows(("a",), [(1,), (2,)])),
            )
        )
        body = body_of(frame)
        with pytest.raises(ProtocolError):
            decode_binary(body[:-3])
        with pytest.raises(ProtocolError):
            decode_binary(body + b"\x00")  # trailing garbage

    def test_hostile_relation_blocks_are_typed_errors(self):
        def body(attributes, nrows, columns):
            """A one-relation body; a column is ``(kind, width, data)`` or
            ``(kind, width, data, declared byte length)``."""
            header = json.dumps(
                {"v": PROTOCOL_VERSION, "id": 1, "ok": True, "kind": "relation",
                 "result": {"__relation_frame__": 0}}
            ).encode()
            block = struct.pack(">H", len(attributes))
            for name in attributes:
                block += struct.pack(">H", len(name)) + name.encode()
            block += struct.pack(">I", nrows)
            for kind, width, data, *declared in columns:
                length = declared[0] if declared else len(data)
                block += struct.pack(">BBI", kind, width, length) + data
            return struct.pack(">I", len(header)) + header + struct.pack(">I", 1) + block

        good = body(["a", "b"], 2, [(1, 1, bytes([1, 2])), (0, 0, b'[2,"x"]')])
        assert decode_binary(good).result == Relation.from_rows(
            ("a", "b"), [(1, 2), (2, "x")]
        )
        hostile = {
            "unknown column kind": body(["a"], 2, [(2, 0, b"[1,2]")]),
            "width 3": body(["a"], 2, [(1, 3, bytes(6))]),
            "width 16": body(["a"], 2, [(1, 16, bytes(32))]),
            "bytes != rows x width": body(["a"], 2, [(1, 1, bytes(3))]),
            "JSON column with a width": body(["a"], 2, [(0, 1, b"[1,2]")]),
            "JSON column not JSON": body(["a"], 2, [(0, 0, b"[1,")]),
            "JSON column not UTF-8": body(["a"], 1, [(0, 0, b'["\xff"]')]),
            "JSON column an object": body(["a"], 1, [(0, 0, b'{"a":1}')]),
            "JSON column a string": body(["a"], 2, [(0, 0, b'"ab"')]),
            "JSON column too short": body(["a"], 2, [(0, 0, b"[1]")]),
            "JSON column too long": body(["a"], 1, [(0, 0, b"[1,2]")]),
            "JSON column holds an array": body(["a"], 2, [(0, 0, b"[[1],2]")]),
            "JSON column holds an object": body(["a"], 1, [(0, 0, b'[{"a":1}]')]),
            "truncated int column": body(["a"], 2, [(1, 2, bytes(3), 4)]),
            "truncated JSON column": body(["a"], 2, [(0, 0, b"[1,", 5)]),
            "column entry cut short": body(["a"], 2, []) + b"\x01\x01",
            "missing column": body(["a", "b"], 1, [(1, 1, bytes(1))]),
            "trailing bytes": good + b"\x00",
            "duplicate attributes": body(["a", "a"], 1, [(1, 1, b"\x00")] * 2),
            # The decode tail the JSON line shares: a nullary relation holds
            # at most the empty row.
            "nullary, two rows": body([], 2, []),
        }
        assert decode_binary(body([], 1, [])).result == Relation.unit()
        for label, frame_body in hostile.items():
            with pytest.raises(ProtocolError) as excinfo:
                decode_binary(frame_body)
            assert excinfo.value.code == "bad_request", label
        # Integers are read big-endian and signed, whatever this machine's
        # order, at every width.
        for width, fmt in ((2, ">2h"), (4, ">2i"), (8, ">2q")):
            wide = body(["a"], 2, [(1, width, struct.pack(fmt, 1, -299))])
            assert decode_binary(wide).result == Relation.from_rows(
                ("a",), [(1,), (-299,)]
            )

    def test_negotiate_frames_intersects(self):
        assert negotiate_frames([BINARY_FRAMES_V2]) == (BINARY_FRAMES_V2,)
        assert negotiate_frames([BINARY_FRAMES_V2, "future-v9"]) == (
            BINARY_FRAMES_V2,
        )
        assert negotiate_frames(["relation-columns-v1"]) == ()
        assert negotiate_frames(["future-v9"]) == ()
        assert negotiate_frames("not-a-list") == ()
        assert negotiate_frames(None) == ()


def column_entries(body):
    """``(kind, width, data)`` per column of a one-relation body."""
    pos = 4 + int.from_bytes(body[:4], "big") + 4  # header, relation count
    (nattributes,) = struct.unpack_from(">H", body, pos)
    pos += 2
    for _ in range(nattributes):
        pos += 2 + struct.unpack_from(">H", body, pos)[0]
    pos += 4  # row count
    entries = []
    for _ in range(nattributes):
        kind, width, length = struct.unpack_from(">BBI", body, pos)
        entries.append((kind, width, body[pos + 6 : pos + 6 + length]))
        pos += 6 + length
    assert pos == len(body)
    return entries


def python_calls(fn):
    """How many Python-level function calls (generator resumptions
    included) *fn* makes, and its result.  C-level calls are not events.
    Collections are held off meanwhile: ``gc.callbacks`` (Hypothesis
    registers one) are Python calls too, one pair per collection."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
        if was_enabled:
            gc.enable()
    return calls, result


class TestLinearity:
    """The paper's yardstick is time linear in input + output; the wire is
    on that path, so neither framing may run interpreter code per row or
    per cell.  Counts, not timings: they repeat exactly."""

    @staticmethod
    def answer(rows):
        # An integer column and a string column: one of each column kind.
        return Relation.from_rows(
            ("a", "b"), [(i, f"v{i % 25}") for i in range(rows)]
        )

    @pytest.mark.parametrize("framing", ["json", "binary"])
    def test_python_level_calls_do_not_grow_with_rows(self, framing):
        def round_trip(rows):
            relation = self.answer(rows)

            def send():
                kind, payload = encode_result(relation)
                response = Response(id=1, kind=kind, result=payload)
                return encode(response) if framing == "json" else encode_binary(response)

            sending, data = python_calls(send)

            def receive():
                message = (
                    decode(data) if framing == "json" else decode_binary(body_of(data))
                )
                return decode_result(message.kind, message.result)

            receiving, received = python_calls(receive)
            assert received == relation
            return sending, receiving

        assert round_trip(5_000) == round_trip(10_000)


class TestDualFramingReader:
    def test_parser_separates_framings(self):
        response = Response(
            id=1,
            kind=RELATION,
            result=encode_relation(Relation.from_rows(("a",), [(1,)])),
        )
        blob = encode(response) + encode_binary(response) + b"\n" + encode(response)
        parser = FrameParser()
        (tag1, line), (tag2, body), (tag3, blank), (tag4, line2) = parser.feed(blob)
        assert (tag1, line) == (JSON_FRAME, encode(response))
        assert tag2 == BINARY_FRAME and decode_binary(body).result == response.result
        assert (tag3, blank) == (JSON_FRAME, b"\n")
        assert (tag4, line2) == (JSON_FRAME, encode(response))
        # Nothing is left over: the stream ends on a frame boundary.
        assert parser.buffered == 0


class TestNegotiatedConnection:
    @pytest.fixture(scope="class")
    def chain(self):
        return chain_database(layers=6, width=20, p=0.5, seed=11)

    def test_async_negotiation_and_equal_results(self, chain):
        q = path_query(3, head_arity=2)

        async def main():
            async with QueryServer({"chain": chain}) as server:
                host, port = server.address
                async with await AsyncQueryClient.connect(
                    host, port, binary_frames=True
                ) as binary_client:
                    assert binary_client.binary_frames
                    binary_result = await binary_client.execute(q, "chain")
                    # run_batch relations ride the same framing.
                    from repro.operations import EXECUTE, operations_of

                    batch = await binary_client.run_batch(
                        operations_of(EXECUTE, [q, path_query(2)]), "chain"
                    )
                async with await AsyncQueryClient.connect(host, port) as plain:
                    assert not plain.binary_frames
                    plain_result = await plain.execute(q, "chain")
            return binary_result, batch, plain_result

        binary_result, batch, plain_result = run(main())
        assert binary_result == plain_result
        assert batch[0] == binary_result

    def test_blocking_client_negotiates_and_registers(self, chain):
        q = path_query(2, head_arity=1)

        async def main():
            async with QueryServer({"chain": chain}) as server:
                host, port = server.address

                def sync_work():
                    with QueryClient(host, port, binary_frames=True) as client:
                        assert client.binary_frames
                        result = client.execute(q, "chain")
                        # register_database's bulk payload goes out binary.
                        registered = client.register_database("copy", chain)
                        copied = client.execute(q, "copy")
                    return result, registered, copied

                return await asyncio.to_thread(sync_work)

        result, registered, copied = run(main())
        assert registered == ["E"]
        assert result == copied

    def test_plain_ping_unchanged(self, chain):
        async def main():
            async with QueryServer({"chain": chain}) as server:
                host, port = server.address
                async with await AsyncQueryClient.connect(host, port) as client:
                    assert await client.ping()

        run(main())

    def test_v1_only_ping_stays_on_json_lines(self, chain):
        # A peer that offers only the retired v1 block format negotiates
        # nothing: the pong lists no frames and relations come back as lines.
        q = path_query(2, head_arity=2)

        async def main():
            async with QueryServer({"chain": chain}) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                replies = []
                for request in (
                    Request(op=PING, id=1, frames=("relation-columns-v1",)),
                    Request(op="execute", id=2, query=query_text(q), database="chain"),
                ):
                    writer.write(encode(request))
                    await writer.drain()
                    replies.append(await reader.readline())
                writer.close()
                await writer.wait_closed()
            return replies

        pong, answer = run(main())
        assert decode(pong).result == {"frames": []}
        assert answer.startswith(b"{")
        message = decode(answer)
        assert message.kind == RELATION
        assert decode_result(RELATION, message.result).cardinality > 0

    def test_binary_payload_shrinks_bulk_relations(self, chain):
        # The acceptance property: the negotiated framing measurably
        # shrinks a bulk relation payload versus its JSON line.
        q = path_query(3, head_arity=2)

        async def main():
            async with QueryServer({"chain": chain}) as server:
                host, port = server.address
                async with await AsyncQueryClient.connect(host, port) as client:
                    relation = await client.execute(q, "chain")
            return relation

        relation = run(main())
        response = Response(id=1, kind=RELATION, result=encode_relation(relation))
        line = encode(response)
        frame = encode_binary(response)
        assert frame is not None
        assert len(frame) < 0.75 * len(line)
