"""Shared byte-level builders for hand-crafted container fixtures.

Deliberately independent of the package's own fixture generator so that
parser tests do not trust the code under test to produce their inputs.
"""

import struct

import pytest
from hypothesis import strategies as st


def mkbox(type4: bytes, payload: bytes = b"") -> bytes:
    return struct.pack(">I4s", 8 + len(payload), type4) + payload


def mkfull(type4: bytes, version: int, flags: int, body: bytes) -> bytes:
    return mkbox(type4, bytes([version]) + flags.to_bytes(3, "big") + body)


IDENTITY_MATRIX = struct.pack(">9i", 0x10000, 0, 0, 0, 0x10000, 0,
                              0, 0, 0x40000000)

# The worked 20-byte example: size 0x14, 'ftyp', major 'isom',
# minor 0, one compatible brand 'isom'.
FTYP_MIN = bytes.fromhex("00000014") + b"ftyp" + b"isom" + bytes(4) + b"isom"


def mvhd_v0_payload(creation=0, modification=0, timescale=1000, duration=0,
                    next_track=2) -> bytes:
    body = struct.pack(">IIII", creation, modification, timescale, duration)
    body += struct.pack(">ihH", 0x00010000, 0x0100, 0)
    body += struct.pack(">II", 0, 0)
    body += IDENTITY_MATRIX
    body += b"\x00" * 24
    body += struct.pack(">I", next_track)
    return bytes([0]) + (0).to_bytes(3, "big") + body


def mkmvhd(**kwargs) -> bytes:
    return mkbox(b"mvhd", mvhd_v0_payload(**kwargs))


def hostile(draw, data: bytes, offsets: list[int]) -> bytes:
    """A bit-flipped, truncated or size-rewritten copy of `data`, or one
    with the first payload byte of a box (a full box's version) rewritten,
    which makes decoders fail on otherwise well-formed files."""
    kind = draw(st.sampled_from(["flip", "truncate", "size", "version"]))
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    out = bytearray(data)
    if kind == "version":
        at = min(draw(st.sampled_from(offsets)) + 8, len(out) - 1)
        out[at] = draw(st.integers(0, 255))
    elif kind == "flip":
        for bit in draw(st.lists(st.integers(0, len(out) * 8 - 1),
                                 min_size=1, max_size=4)):
            out[bit // 8] ^= 1 << (bit % 8)
    else:
        size = draw(st.sampled_from([0, 1, 7, 8, 9, 16, len(data), 2**32 - 1])
                    | st.integers(0, 2**32 - 1))
        struct.pack_into(">I", out, draw(st.sampled_from(offsets)), size)
    return bytes(out)


def moov_nest(depth: int, inner: bytes) -> bytes:
    """`depth` nested moov boxes around `inner`."""
    for _ in range(depth):
        inner = mkbox(b"moov", inner)
    return inner


NEST_INNER = [b"", bytes(4), mkbox(b"hdlr", b"short"), mkbox(b"free"),
              mkbox(b"moov")]


@pytest.fixture
def tiny_ftyp_file(tmp_path):
    path = tmp_path / "tiny.mp4"
    path.write_bytes(FTYP_MIN)
    return path
