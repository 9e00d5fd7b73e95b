"""Networked query protocol: the service front-end goes cross-process.

A line-delimited JSON wire protocol (:mod:`.messages` / :mod:`.codec`),
one sans-IO connection core (:mod:`.connection`), and its drivers: an
asyncio TCP server fronting one shared :class:`~repro.service.QueryService`
(:mod:`.server`) and sync + async clients (:mod:`.client`).  Every evaluation mode of the paper's workloads
— evaluation, decision, and batches of either — is first-class on the
wire, failures come back as a structured error taxonomy, and per-client
fairness on the service's admission queue keeps one flooding connection
from starving the rest.  See ``docs/protocol.md``.
"""

from .client import AsyncQueryClient, QueryClient
from .codec import (
    MAX_LINE_BYTES,
    decode,
    encode,
    error_info,
    error_response,
    request_id_of,
)
from .frames import (
    BINARY_FRAMES_V2,
    SUPPORTED_FRAMES,
    decode_binary,
    encode_binary,
)
from .messages import (
    CANCEL,
    CANCELLED,
    OPS,
    PROTOCOL_VERSION,
    QUERY_OPS,
    REGISTER_DATABASE,
    REGISTERED,
    RUN_BATCH,
    ErrorInfo,
    ProtocolError,
    RemoteQueryError,
    Request,
    Response,
    decode_database,
    decode_relation,
    decode_result,
    encode_database,
    encode_relation,
    encode_result,
    query_text,
)
from .server import QueryServer, stats_payload

__all__ = [
    "AsyncQueryClient",
    "BINARY_FRAMES_V2",
    "CANCEL",
    "CANCELLED",
    "ErrorInfo",
    "MAX_LINE_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QUERY_OPS",
    "QueryClient",
    "QueryServer",
    "REGISTERED",
    "REGISTER_DATABASE",
    "RUN_BATCH",
    "RemoteQueryError",
    "Request",
    "Response",
    "SUPPORTED_FRAMES",
    "decode",
    "decode_binary",
    "decode_database",
    "decode_relation",
    "decode_result",
    "encode",
    "encode_binary",
    "encode_database",
    "encode_relation",
    "encode_result",
    "error_info",
    "error_response",
    "query_text",
    "request_id_of",
    "stats_payload",
]
