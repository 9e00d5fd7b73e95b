"""Binary relation frames: byte-exact codec round-trips and negotiation.

The contracts under test:

* ``decode_binary`` inverts ``encode_binary``, and the round-trip is
  *byte-exact with respect to the JSON framing*: re-encoding the decoded
  message as a JSON line reproduces the original line byte for byte —
  including value spellings JSON distinguishes but Python equality does
  not (``true`` vs ``1``, ``-0.0`` vs ``0.0``).
* ``encode_binary`` declines (returns ``None``) for messages without
  relation payloads; the wire then carries plain JSON lines.
* The framing is negotiated per connection over ``ping`` and measurably
  shrinks bulk relation payloads; non-negotiated connections and
  pre-negotiation servers are unaffected.
"""

import asyncio
import json

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
    decode_binary,
    encode,
    encode_binary,
    encode_relation,
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
# Python-equal but JSON-distinct (True/1, -0.0/0.0).
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1, True, 0, False, -0.0, 0.0, 1.0]),
    texts,
)


@st.composite
def relation_payloads(draw):
    arity = draw(st.integers(min_value=0, max_value=4))
    attributes = draw(st.lists(names, min_size=arity, max_size=arity, unique=True))
    row = st.tuples(*([scalars] * arity))
    rows = draw(st.lists(row, max_size=25))
    return encode_relation(Relation.from_rows(tuple(attributes), rows))


@st.composite
def relation_responses(draw):
    rid = draw(st.one_of(st.none(), ids))
    if draw(st.booleans()):
        return Response(id=rid, kind=RELATION, result=draw(relation_payloads()))
    return Response(
        id=rid,
        kind=RESULTS,
        result=[
            {"kind": RELATION, "result": payload}
            for payload in draw(st.lists(relation_payloads(), min_size=1, max_size=4))
        ],
    )


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
    @given(relation_responses())
    def test_round_trip_is_byte_exact_vs_json(self, response):
        frame = encode_binary(response)
        if frame is None:
            # Only empty relation lists decline; kinds above always carry
            # at least the payload shape, so a relation response encodes.
            assert response.kind == RESULTS and response.result == []
            return
        decoded = decode_binary(body_of(frame))
        assert encode(decoded) == encode(response)

    @settings(max_examples=100, deadline=None)
    @given(relation_payloads(), ids)
    def test_register_database_request_round_trips(self, payload, rid):
        request = Request(
            op="register_database",
            id=rid,
            database="db",
            data={"relations": {"R": payload}},
        )
        frame = encode_binary(request)
        assert frame is not None
        assert encode(decode_binary(body_of(frame))) == encode(request)

    def test_json_distinct_spellings_survive(self):
        # 1 == True and -0.0 == 0.0 in Python; JSON spells all four apart.
        payload = {
            "attributes": ["a"],
            "rows": [[True], [1], [-0.0], [0.0]],
        }
        response = Response(id=3, kind=RELATION, result=payload)
        frame = encode_binary(response)
        decoded = decode_binary(body_of(frame))
        assert json.dumps(decoded.result["rows"]) == json.dumps(payload["rows"])

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
        # 400 rows over a 2-value domain: the frame must be far smaller
        # than the JSON line (the whole point of dictionary encoding).
        rows = [[i % 2, (i + 1) % 2, "constant-padding-value"] for i in range(400)]
        response = Response(
            id=1, kind=RELATION, result={"attributes": ["x", "y", "z"], "rows": rows}
        )
        frame = encode_binary(response)
        line = encode(response)
        assert len(frame) < len(line) / 3
        assert encode(decode_binary(body_of(frame))) == line

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

    def test_negotiate_frames_intersects(self):
        assert negotiate_frames([BINARY_FRAMES_V1]) == (BINARY_FRAMES_V1,)
        assert negotiate_frames([BINARY_FRAMES_V1, "future-v9"]) == (
            BINARY_FRAMES_V1,
        )
        assert negotiate_frames(["future-v9"]) == ()
        assert negotiate_frames("not-a-list") == ()
        assert negotiate_frames(None) == ()


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
