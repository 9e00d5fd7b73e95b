"""The sans-IO connection core: framing properties and both roles, no sockets.

:class:`~repro.protocol.connection.FrameParser` must cut the same frames
out of a stream however it is chunked, fail only with a typed
``ProtocolError`` on arbitrary bytes, and refuse an overlong frame before
buffering it.  :class:`~repro.protocol.connection.Connection` in the server
role must answer each malformed frame class with the code and best-effort
id the socket server answers, and say which ones end the connection.
"""

import json
import struct
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, Relation
from repro.protocol import (
    ProtocolError,
    Request,
    Response,
    codec,
    encode,
    encode_database,
)
from repro.protocol.connection import Connection, FrameParser
from repro.protocol.frames import BINARY_FRAME, JSON_FRAME, encode_binary
from repro.protocol.messages import PING, PONG, RELATION

# One frame of each kind: a JSON line (any bytes but NUL first and no
# newline), a blank keep-alive, a binary frame around any body.
json_lines = st.binary(max_size=40).filter(
    lambda b: b"\n" not in b and not b.startswith(b"\x00")
).map(lambda b: (JSON_FRAME, b + b"\n"))
blank_lines = st.just((JSON_FRAME, b"\n"))
binary_frames = st.binary(max_size=40).map(lambda body: (BINARY_FRAME, body))
streams = st.lists(st.one_of(json_lines, blank_lines, binary_frames), max_size=12)


def spell(frame):
    tag, payload = frame
    if tag == JSON_FRAME:
        return payload
    return struct.pack(">BBI", 0, 1, len(payload)) + payload


def chunked(data, cuts):
    points = sorted({0, len(data), *(cut % (len(data) + 1) for cut in cuts)})
    return [data[a:b] for a, b in zip(points, points[1:])]


def feed_all(parser, chunks):
    return [frame for chunk in chunks for frame in parser.feed(chunk)]


class TestFrameParser:
    @given(frames=streams, cuts=st.lists(st.integers(0, 10_000), max_size=20))
    @settings(max_examples=300)
    def test_any_chunking_yields_the_frames_of_the_whole(self, frames, cuts):
        data = b"".join(map(spell, frames))
        whole = FrameParser()
        assert list(whole.feed(data)) == frames
        parser = FrameParser()
        assert feed_all(parser, chunked(data, cuts)) == frames
        assert parser.buffered == 0
        # One byte at a time is a chunking too.
        bytewise = [data[i : i + 1] for i in range(len(data))]
        assert feed_all(FrameParser(), bytewise) == frames

    @given(data=st.binary(max_size=300), cuts=st.lists(st.integers(0, 400), max_size=8))
    @settings(max_examples=300)
    def test_arbitrary_bytes_yield_frames_or_a_typed_error(self, data, cuts):
        try:
            for tag, payload in feed_all(FrameParser(), chunked(data, cuts)):
                assert tag in (JSON_FRAME, BINARY_FRAME)
                assert isinstance(payload, bytes)
        except ProtocolError as error:
            assert error.code in ("bad_request", "frame_too_large")

    @given(
        extra=st.integers(1, 200),
        newline=st.booleans(),
        cuts=st.lists(st.integers(0, 400), max_size=8),
    )
    @settings(max_examples=200)
    def test_pending_line_past_the_bound_is_refused_unbuffered(
        self, extra, newline, cuts
    ):
        bound = 64
        line = b"{" + b"x" * (bound - 1 + extra) + (b"\n" if newline else b"")
        parser = FrameParser()
        with mock.patch.object(codec, "MAX_LINE_BYTES", bound):
            with pytest.raises(ProtocolError) as excinfo:
                for chunk in chunked(line, cuts):
                    list(parser.feed(chunk))
                    assert parser.buffered < bound
        assert excinfo.value.code == "frame_too_large"
        assert parser.buffered < bound

    @given(extra=st.integers(1, 10**6), cuts=st.lists(st.integers(0, 8), max_size=4))
    def test_announced_binary_frame_past_the_bound_is_refused(self, extra, cuts):
        bound = 64
        prefix = struct.pack(">BBI", 0, 1, bound + extra)
        parser = FrameParser()
        with mock.patch.object(codec, "MAX_LINE_BYTES", bound):
            with pytest.raises(ProtocolError) as excinfo:
                feed_all(parser, chunked(prefix + b"x" * 16, cuts))
        assert excinfo.value.code == "frame_too_large"
        assert excinfo.value.detail["bytes"] == bound + extra
        assert parser.buffered <= len(prefix)

    def test_a_line_at_the_bound_passes(self):
        with mock.patch.object(codec, "MAX_LINE_BYTES", 8):
            line = b"1234567\n"
            assert list(FrameParser().feed(line)) == [(JSON_FRAME, line)]
            with pytest.raises(ProtocolError):
                list(FrameParser().feed(b"12345678\n"))


def binary(kind, body):
    return struct.pack(">BBI", 0, kind, len(body)) + body


_HEADER = json.dumps({"v": 3, "op": "ping", "id": 5}).encode()

#: Each malformed class: the bytes, then what the socket server answers —
#: code, best-effort id — and whether it hangs up afterwards.
MALFORMED = {
    "not_json": (b"this is not json\n", "not_json", None, False),
    "wrong_version": (
        b'{"v": 99, "op": "ping", "id": 4}\n',
        "unsupported_version",
        4,
        False,
    ),
    "unknown_op": (b'{"v": 3, "op": "frobnicate", "id": 7}\n', "bad_request", 7, False),
    "response_frame": (
        b'{"v": 3, "ok": true, "kind": "pong", "result": null, "id": 1}\n',
        "bad_request",
        1,
        False,
    ),
    "bad_kind_byte": (
        binary(2, struct.pack(">I", len(_HEADER)) + _HEADER + bytes(4)),
        "bad_request",
        None,
        True,
    ),
    "truncated_binary_body": (
        binary(1, struct.pack(">I", len(_HEADER)) + _HEADER + bytes(2)),
        "bad_request",
        5,
        False,
    ),
    "overlong_line": (b"{" + b" " * 70_000 + b"}\n", "frame_too_large", None, True),
    # Deeper than the JSON parser recurses: the parent's reader crashed on
    # the best-effort id and dropped the connection unanswered.
    "deeply_nested": (
        b'{"id": 3, "v": ' + b"[" * 50_000 + b"\n",
        "not_json",
        None,
        False,
    ),
}


class TestServerRole:
    @pytest.mark.parametrize("label", sorted(MALFORMED))
    def test_malformed_frames_are_answered_like_the_socket_server(self, label):
        data, code, request_id, closes = MALFORMED[label]
        core = Connection("server")
        ping = b'{"id":9,"op":"ping","v":3}\n'
        with mock.patch.object(codec, "MAX_LINE_BYTES", 1 << 16):
            try:
                answers = list(core.receive(data))
            except ProtocolError as error:
                # Fatal: the server answers error_response(None, error) and
                # hangs up.
                answers, fatal = [codec.error_response(None, error)], True
            else:
                fatal = False
                # The connection goes on: the next frame is served.
                assert list(core.receive(ping)) == [Request(op=PING, id=9)]
        assert fatal == closes
        (answer,) = answers
        assert isinstance(answer, Response)
        assert (answer.error.code, answer.id) == (code, request_id)

    def test_requests_keep_alives_and_chunks(self):
        core = Connection("server")
        data = encode(Request(op=PING, id=3)) + b"\n  \n"
        data += encode(Request(op=PING, id=4))
        first, second = data[:10], data[10:]
        assert list(core.receive(first)) == []
        assert list(core.receive(second)) == [
            Request(op=PING, id=3),
            None,
            None,
            Request(op=PING, id=4),
        ]

    def test_ping_negotiation_switches_what_the_server_sends(self):
        core = Connection("server")
        relation = Relation.from_rows(("a",), [(1,), (2,)])
        response = Response(id=1, kind=RELATION, result=relation)
        assert core.send(response) == encode(response)
        pong = core.answer_ping(Request(op=PING, id=1, frames=("future-v9",)))
        assert pong.result == {"frames": []} and core.send(response) == encode(response)
        pong = core.answer_ping(Request(op=PING, id=2, frames=("relation-columns-v2",)))
        assert pong.result == {"frames": ["relation-columns-v2"]}
        assert core.send(response) == encode_binary(response)
        # Nothing else changes framing: a pong holds no relation.
        assert core.send(pong) == encode(pong)
        assert core.answer_ping(Request(op=PING, id=3)).result is None


class TestClientRole:
    def test_ids_count_from_one_and_a_failed_encode_spends_none(self):
        core = Connection("client")
        assert core.request(PING) == (1, encode(Request(op=PING, id=1)))
        data = encode_database(Database.from_tuples({"E": [(i,) for i in range(99)]}))
        with mock.patch.object(codec, "MAX_LINE_BYTES", 200):
            with pytest.raises(ProtocolError) as excinfo:
                core.request("register_database", database="d", data=data)
        assert excinfo.value.code == "frame_too_large"
        assert core.request(PING)[0] == 2

    def test_offer_and_adopt(self):
        core = Connection("client")
        request_id, data = core.offer_frames()
        assert codec.decode(data).frames == ("relation-columns-v2",)
        core.adopt_frames(Response(id=request_id, kind=PONG, result={"frames": []}))
        assert not core.binary
        core.adopt_frames(
            Response(
                id=request_id, kind=PONG, result={"frames": ["relation-columns-v2"]}
            )
        )
        assert core.binary

    def test_a_frame_that_does_not_decode_raises(self):
        for data in (b"garbage\n", encode(Request(op=PING, id=1))):
            with pytest.raises(ProtocolError):
                list(Connection("client").receive(data))
        pong = Response(id=1, kind=PONG, result=None)
        assert list(Connection("client").receive(encode(pong))) == [pong]

    def test_role_is_checked(self):
        with pytest.raises(ValueError):
            Connection("peer")
