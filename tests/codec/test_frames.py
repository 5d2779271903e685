"""Frame-layer tests for protocol v2 (:mod:`repro.codec.frames`).

The contract under test: ``try_parse_frame`` returns ``None`` for
incomplete input, a ``(Frame, next_offset)`` pair for a complete
well-formed frame, and raises :class:`ProtocolError` — never any other
exception, never a hang — for every malformed input.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec.frames import (
    FLAG_ERROR,
    FLAG_RESPONSE,
    HEADER,
    HEADER_SIZE,
    MAX_FRAME_BYTES,
    PROTOCOL_V2,
    Frame,
    encode_frame,
    error_frame,
    hello_ack_payload,
    hello_payload,
    response_frame,
    try_parse_frame,
)
from repro.common.errors import ProtocolError

payloads = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.text(max_size=32),
        st.binary(max_size=32),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=15,
)


class TestRoundTrip:
    @given(
        st.integers(min_value=0, max_value=0xFFFF),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        payloads,
        st.sampled_from([0, FLAG_RESPONSE, FLAG_RESPONSE | FLAG_ERROR]),
    )
    @settings(max_examples=200, deadline=None)
    def test_parse_inverts_encode(self, opcode, corr_id, payload, flags):
        raw = encode_frame(opcode, corr_id, payload, flags=flags)
        parsed = try_parse_frame(raw)
        assert parsed is not None
        frame, consumed = parsed
        assert consumed == len(raw)
        assert frame == Frame(opcode, flags, corr_id, payload)
        assert frame.is_response == bool(flags & FLAG_RESPONSE)
        assert frame.is_error == bool(flags & FLAG_ERROR)

    def test_corr_id_masked_to_u32(self):
        raw = encode_frame(1, 0x1_0000_0007, "x")
        frame, _ = try_parse_frame(raw)
        assert frame.corr_id == 7

    def test_empty_body_decodes_as_none(self):
        raw = HEADER.pack(0, PROTOCOL_V2, 0, 3, 9)
        frame, consumed = try_parse_frame(raw)
        assert consumed == HEADER_SIZE
        assert frame.payload is None
        assert frame.opcode == 3 and frame.corr_id == 9

    def test_parse_at_offset(self):
        first = encode_frame(1, 1, "a")
        second = encode_frame(2, 2, "b")
        buf = first + second
        frame, offset = try_parse_frame(buf)
        assert frame.payload == "a"
        frame, offset = try_parse_frame(buf, offset)
        assert frame.payload == "b"
        assert offset == len(buf)

    def test_response_and_error_helpers(self):
        frame, _ = try_parse_frame(response_frame(7, {"rows": 3}))
        assert frame.is_response and not frame.is_error
        assert frame.corr_id == 7
        assert frame.payload == {"result": {"rows": 3}}
        frame, _ = try_parse_frame(error_frame(8, {"error": "Boom"}))
        assert frame.is_response and frame.is_error
        assert frame.payload == {"error": "Boom"}

    def test_hello_payload_shapes(self):
        assert PROTOCOL_V2 in hello_payload()["versions"]
        assert hello_ack_payload()["result"]["version"] == PROTOCOL_V2


class TestIncomplete:
    @given(payloads, st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_prefix_returns_none(self, payload, data):
        raw = encode_frame(1, 1, payload)
        cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        assert try_parse_frame(raw[:cut]) is None

    def test_header_only(self):
        raw = encode_frame(1, 1, {"k": "v"})
        assert try_parse_frame(raw[:HEADER_SIZE]) is None


class TestMalformed:
    def test_oversize_length(self):
        raw = HEADER.pack(MAX_FRAME_BYTES + 1, PROTOCOL_V2, 0, 0, 0)
        with pytest.raises(ProtocolError, match="exceeds"):
            try_parse_frame(raw)

    def test_garbage_version_byte(self):
        raw = HEADER.pack(0, 7, 0, 0, 0)
        with pytest.raises(ProtocolError, match="version"):
            try_parse_frame(raw)

    def test_unknown_flags(self):
        raw = HEADER.pack(0, PROTOCOL_V2, 0x80, 0, 0)
        with pytest.raises(ProtocolError, match="flags"):
            try_parse_frame(raw)

    def test_garbage_body(self):
        body = b"\xff\xfe\xfd"
        raw = HEADER.pack(len(body), PROTOCOL_V2, 0, 0, 0) + body
        with pytest.raises(ProtocolError, match="failed to decode"):
            try_parse_frame(raw)

    def test_truncated_body_inside_declared_length(self):
        # Body length is honest but the codec payload inside it lies.
        body = b"S" + (1000).to_bytes(4, "big") + b"abc"
        raw = HEADER.pack(len(body), PROTOCOL_V2, 0, 0, 0) + body
        with pytest.raises(ProtocolError, match="failed to decode"):
            try_parse_frame(raw)

    def test_trailing_bytes_after_body_decode(self):
        body = b"N" + b"junk"
        raw = HEADER.pack(len(body), PROTOCOL_V2, 0, 0, 0) + body
        with pytest.raises(ProtocolError, match="trailing"):
            try_parse_frame(raw)

    def test_oversize_payload_refused_at_encode(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame(0, 0, b"\x00" * (MAX_FRAME_BYTES + 1))

    def test_unencodable_payload_refused_at_encode(self):
        with pytest.raises(ProtocolError, match="not codec-encodable"):
            encode_frame(0, 0, object())

    @given(st.binary(max_size=128))
    @settings(max_examples=500, deadline=None)
    def test_random_bytes_never_leak_other_exceptions(self, raw):
        try:
            parsed = try_parse_frame(raw)
        except ProtocolError:
            return
        if parsed is not None:
            frame, consumed = parsed
            assert HEADER_SIZE <= consumed <= len(raw)
            assert isinstance(frame, Frame)

    @given(payloads, st.binary(min_size=1, max_size=32))
    @settings(max_examples=150, deadline=None)
    def test_corrupted_header_never_hangs(self, payload, noise):
        raw = bytearray(encode_frame(1, 1, payload))
        for i, b in enumerate(noise):
            raw[i % HEADER_SIZE] ^= b
        try:
            try_parse_frame(bytes(raw))
        except ProtocolError:
            pass
