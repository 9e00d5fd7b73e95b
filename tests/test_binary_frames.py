"""Binary relation frames: spelling-exact codec round-trips and negotiation.

The contracts under test:

* ``decode_binary`` inverts ``encode_binary``, and the round-trip is
  *spelling-exact with respect to the JSON framing*: re-encoding the
  decoded message as a JSON line spells every row as the original's line
  does — including value spellings JSON distinguishes but Python equality
  does not (``true`` vs ``1``, ``-0.0`` vs ``0.0``).  Row *order* is the
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
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Relation
from repro.protocol import (
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
)
from repro.protocol.frames import (
    BINARY_FRAME,
    BINARY_FRAMES_V1,
    JSON_FRAME,
    KIND_MESSAGE,
    MAGIC,
    negotiate_frames,
    read_frame_blocking,
)
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
# Only what the binary framing pools by value (exact int / str / None).
value_pooled = st.one_of(
    st.none(),
    st.integers(min_value=-(2**80), max_value=2**80),
    texts,
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
    parsed line with every relation's rows as the sorted list of their JSON
    texts (so ``true`` / ``1`` / ``1.0`` and ``-0.0`` / ``0.0`` differ)."""

    def walk(node):
        if isinstance(node, dict):
            if set(node) == {"attributes", "rows"}:
                return {
                    "attributes": node["attributes"],
                    "rows": sorted(map(json.dumps, node["rows"])),
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
    @given(st.one_of(relation_responses(), relation_responses(value_pooled)))
    def test_round_trip_is_byte_exact_vs_json(self, response):
        # Spelling-exact, on both pool paths (by JSON text, by value): every
        # value arrives spelled as the JSON line of the original spells it.
        decoded = decode_binary(body_of(encode_binary(response)))
        assert decoded == response  # same relations, as relations
        assert spelled(decoded) == spelled(response)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(relation_responses(), relation_responses(value_pooled)))
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

    def test_pool_is_shared_across_rows(self):
        # 400 rows over a 20-value domain: the frame must be far smaller
        # than the JSON line (the whole point of dictionary encoding).
        rows = [(i % 20, i // 20, "constant-padding-value") for i in range(400)]
        response = Response(
            id=1, kind=RELATION, result=Relation.from_rows(("x", "y", "z"), rows)
        )
        frame = encode_binary(response)
        line = encode(response)
        assert len(frame) < len(line) / 3
        assert spelled(decode_binary(body_of(frame))) == spelled(response)

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
        def body(attributes, pool, nrows, width, codes):
            header = json.dumps(
                {"v": 1, "id": 1, "ok": True, "kind": "relation",
                 "result": {"__relation_frame__": 0}}
            ).encode()
            block = struct.pack(">H", len(attributes))
            for name in attributes:
                block += struct.pack(">H", len(name)) + name.encode()
            block += struct.pack(">I", len(pool))
            for text in pool:
                block += struct.pack(">I", len(text)) + text.encode()
            block += struct.pack(">IB", nrows, width) + codes
            return struct.pack(">I", len(header)) + header + struct.pack(">I", 1) + block

        good = body(["a", "b"], ["1", "2"], 2, 1, bytes([0, 1, 1, 0]))
        assert decode_binary(good).result == Relation.from_rows(
            ("a", "b"), [(1, 2), (2, 1)]
        )
        hostile = {
            "code past the pool": body(["a", "b"], ["1", "2"], 2, 1, bytes([0, 2, 1, 0])),
            "truncated column": body(["a", "b"], ["1", "2"], 2, 1, bytes([0, 1, 1])),
            "width 3": body(["a", "b"], ["1", "2"], 2, 3, bytes(12)),
            "trailing bytes": good + b"\x00",
            "pool entry not JSON": body(["a"], ["1", "{"], 1, 1, bytes([0])),
            "array for a value": body(["a"], ["[1]"], 1, 1, bytes([0])),
            "duplicate attributes": body(["a", "a"], ["1"], 1, 1, bytes([0, 0])),
            "rows without a pool": body(["a"], [], 1, 1, bytes([0])),
        }
        for label, frame_body in hostile.items():
            with pytest.raises(ProtocolError) as excinfo:
                decode_binary(frame_body)
            assert excinfo.value.code == "bad_request", label
        # Wide codes are read big-endian, whatever this machine's order.
        wide = body(["a"], [str(n) for n in range(300)], 2, 2, struct.pack(">2H", 1, 299))
        assert decode_binary(wide).result == Relation.from_rows(("a",), [(1,), (299,)])

    def test_negotiate_frames_intersects(self):
        assert negotiate_frames([BINARY_FRAMES_V1]) == (BINARY_FRAMES_V1,)
        assert negotiate_frames([BINARY_FRAMES_V1, "future-v9"]) == (
            BINARY_FRAMES_V1,
        )
        assert negotiate_frames(["future-v9"]) == ()
        assert negotiate_frames("not-a-list") == ()
        assert negotiate_frames(None) == ()


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
        # 3 int columns over a fixed 25-value domain, so the binary pool —
        # spelled per distinct value — is the same at every size.
        return Relation.from_rows(
            ("a", "b", "c"), [(i % 25, i // 25 % 25, i // 625) for i in range(rows)]
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
    def test_blocking_reader_separates_framings(self, tmp_path):
        response = Response(
            id=1,
            kind=RELATION,
            result=encode_relation(Relation.from_rows(("a",), [(1,)])),
        )
        blob = encode(response) + encode_binary(response) + b"\n" + encode(response)
        path = tmp_path / "stream.bin"
        path.write_bytes(blob)
        with open(path, "rb") as stream:
            tag1, line = read_frame_blocking(stream)
            tag2, body = read_frame_blocking(stream)
            tag3, blank = read_frame_blocking(stream)
            tag4, line2 = read_frame_blocking(stream)
            tag5, eof = read_frame_blocking(stream)
        assert (tag1, line) == (JSON_FRAME, encode(response))
        assert tag2 == BINARY_FRAME and decode_binary(body).result == response.result
        assert (tag3, blank) == (JSON_FRAME, b"\n")
        assert (tag4, line2) == (JSON_FRAME, encode(response))
        assert (tag5, eof) == (JSON_FRAME, b"")


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
