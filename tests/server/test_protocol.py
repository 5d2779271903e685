"""Wire protocol: framing, error round-trips, transport edge cases."""

from __future__ import annotations

import threading

import pytest

from repro.common.errors import (
    DeadlockError,
    KeyNotFoundError,
    ProtocolError,
    ServerError,
    ServerOverloadedError,
    UniqueKeyViolationError,
)
from repro.codec.frames import HEADER, MAX_FRAME_BYTES, PROTOCOL_V2
from repro.server.protocol import (
    FrameConn,
    error_response,
    loopback_pair,
    raise_from_response,
)


def _handshaken_pair() -> tuple[FrameConn, FrameConn]:
    """A (server, client) conn pair past the RPC2/hello handshake; the
    client consumes the ack on its first read."""
    server_end, client_end = loopback_pair()
    server, client = FrameConn(server_end), FrameConn(client_end)
    client.start_client()
    assert server.accept_client()
    return server, client


class TestFraming:
    def test_round_trip(self):
        a, b = _handshaken_pair()
        message = {"op": "insert", "corr_id": 7, "row": {"id": 7, "pad": "x" * 100}}
        b.write_message(message)
        assert a.read_message() == message
        a.write_message({"ok": True, "corr_id": 7, "result": None})
        assert b.read_message() == {"ok": True, "corr_id": 7, "result": None}
        a.close()
        b.close()

    def test_eof_at_boundary_is_none(self):
        a, b = _handshaken_pair()
        a.close()
        assert b.read_message() is None
        b.close()

    def test_eof_mid_frame_raises(self):
        a, b = _handshaken_pair()
        # A header promising 100 bytes, then the line dies.
        a.transport.send_bytes(HEADER.pack(100, PROTOCOL_V2, 1, 0, 1) + b"partial")
        a.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            b.read_message()
        b.close()

    def test_undecodable_body_raises(self):
        a, b = _handshaken_pair()
        a.transport.send_bytes(HEADER.pack(3, PROTOCOL_V2, 1, 0, 1) + b"zzz")
        with pytest.raises(ProtocolError, match="failed to decode"):
            b.read_message()
        a.close()
        b.close()

    def test_oversized_header_rejected_before_reading(self):
        a, b = _handshaken_pair()
        a.transport.send_bytes(HEADER.pack(MAX_FRAME_BYTES + 1, PROTOCOL_V2, 1, 0, 1))
        with pytest.raises(ProtocolError, match="exceeds"):
            b.read_message()
        a.close()
        b.close()

    def test_unencodable_message_rejected(self):
        a, b = _handshaken_pair()
        with pytest.raises(ProtocolError, match="unknown op"):
            b.encode({"op": "no_such_op"})
        with pytest.raises(ProtocolError, match="not codec-encodable"):
            b.encode({"op": "insert", "row": object()})
        a.close()
        b.close()

    def test_interleaved_messages_keep_order(self):
        a, b = _handshaken_pair()

        def writer():
            for i in range(50):
                a.write_message({"ok": True, "corr_id": i, "result": i})

        thread = threading.Thread(target=writer)
        thread.start()
        got = [b.read_message()["corr_id"] for _ in range(50)]
        thread.join(5.0)
        assert got == list(range(50))
        a.close()
        b.close()


class TestErrorRoundTrip:
    def test_simple_error_reraises_as_itself(self):
        response = error_response(UniqueKeyViolationError("dup key 7"))
        with pytest.raises(UniqueKeyViolationError, match="dup key 7"):
            raise_from_response(response)

    def test_structured_ctor_error_rebuilt_bare(self):
        """DeadlockError takes a cycle argument that doesn't cross the
        wire; the client must still get a DeadlockError."""
        response = {"ok": False, "error": "DeadlockError", "message": "victim: 3"}
        with pytest.raises(DeadlockError, match="victim: 3"):
            raise_from_response(response)

    def test_unknown_kind_falls_back_to_server_error(self):
        response = {"ok": False, "error": "NoSuchError", "message": "?"}
        with pytest.raises(ServerError) as info:
            raise_from_response(response)
        assert info.value.kind == "NoSuchError"

    def test_server_error_subclass_keeps_kind(self):
        response = error_response(ServerOverloadedError("queue full"))
        with pytest.raises(ServerOverloadedError) as info:
            raise_from_response(response)
        assert info.value.kind == "ServerOverloadedError"

    def test_key_not_found_round_trip(self):
        with pytest.raises(KeyNotFoundError):
            raise_from_response(error_response(KeyNotFoundError("key 9")))
