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

from .. import _lazy_exports

__getattr__, __all__ = _lazy_exports(
    __name__,
    {
        "AsyncQueryClient": "client",
        "QueryClient": "client",
        "MAX_LINE_BYTES": "codec",
        "decode": "codec",
        "encode": "codec",
        "error_info": "codec",
        "error_response": "codec",
        "request_id_of": "codec",
        "BINARY_FRAMES_V2": "frames",
        "SUPPORTED_FRAMES": "frames",
        "decode_binary": "frames",
        "encode_binary": "frames",
        "CANCEL": "messages",
        "CANCELLED": "messages",
        "OPS": "messages",
        "PROTOCOL_VERSION": "messages",
        "QUERY_OPS": "messages",
        "REGISTER_DATABASE": "messages",
        "REGISTERED": "messages",
        "RUN_BATCH": "messages",
        "ErrorInfo": "messages",
        "ProtocolError": "messages",
        "RemoteQueryError": "messages",
        "Request": "messages",
        "Response": "messages",
        "decode_database": "messages",
        "decode_relation": "messages",
        "decode_result": "messages",
        "encode_database": "messages",
        "encode_relation": "messages",
        "encode_result": "messages",
        "query_text": "messages",
        "QueryServer": "server",
    },
)
