"""Shared byte-level builders for hand-crafted container fixtures, and
the walk with its boxes decoded that the parser and symbol tests compare.

The builders are deliberately independent of the package's own fixture
generator so that parser tests do not trust the code under test to
produce their inputs.
"""

import itertools
import struct

import pytest
from hypothesis import strategies as st

from boxtrace import bmff
from boxtrace.bmff import box_fields, box_header, walk_boxes


def schema(name: str) -> tuple:
    """The ``(key, render, decode)`` of box type `name`'s schema: `decode`
    renders the payload's key, as `box_fields` does, and raises what the
    key raises."""
    key, render = bmff._SCHEMAS[name]
    return key, render, lambda payload, drop: render(key(payload, drop), drop)


def decoded_walk(source, warnings, decode=None, drop=frozenset()):
    """`walk_boxes` with each box's entry replaced by its path, its header
    values in full, and its payload by its `box_fields` under `drop`, a
    container's by no fields: the events of the walk before it yielded
    payloads."""
    for depth, entry, offset, size, header, payload in walk_boxes(
            source, warnings, decode):
        header = box_header(entry, offset, size, header)
        yield depth, entry[0], header, ([] if payload is None else
                                        box_fields(header, payload, drop,
                                                   warnings))


def unique_keys(walk):
    """`walk`, a `walk_boxes`, with the payload key of each box that has
    one made unique at each sight: no box key ever repeats."""
    unique = itertools.count()

    def unique_walk(*args):
        for depth, entry, *rest in walk(*args):
            identity = entry[4]
            if identity is not None:
                entry = (*entry[:4], lambda payload, drop: (
                    identity(payload, drop), next(unique)))
            yield depth, entry, *rest

    return unique_walk


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


# The containers of the package's fixture files.
FIXTURE_CONTAINERS = frozenset({b"moov", b"trak", b"mdia", b"minf", b"stbl",
                                b"udta", b"edts", b"dinf"})


def box_spans(data: bytes, start: int = 0, end: int | None = None,
              parents: tuple = ()) -> list[tuple]:
    """``(offset, type, header length, end, enclosing offsets)`` of each
    box of a well-formed file in preorder, the enclosing offsets those of
    the containers it lies in, outermost first. Fewer than 8 bytes left
    in a scope are padding."""
    end = len(data) if end is None else end
    spans = []
    pos = start
    while pos + 8 <= end:
        size, kind = struct.unpack_from(">I4s", data, pos)
        header = 8
        if size == 1:
            size, header = struct.unpack_from(">Q", data, pos + 8)[0], 16
        elif size == 0:
            size = end - pos
        if kind == b"uuid":
            header += 16
        spans.append((pos, kind, header, pos + size, parents))
        if kind in FIXTURE_CONTAINERS:
            spans += box_spans(data, pos + header, pos + size,
                               parents + (pos,))
        pos += size
    return spans


def grown(data: bytes, at: int, blob: bytes, enclosing) -> bytes:
    """`data` with `blob` put in at offset `at`, and the 32-bit size of
    each box at an offset in `enclosing` grown by its length."""
    out = bytearray(data[:at] + blob + data[at:])
    for offset in enclosing:
        size = struct.unpack_from(">I", out, offset)[0]
        assert size > 1, "only 32-bit sizes grow"
        struct.pack_into(">I", out, offset, size + len(blob))
    return bytes(out)


def _child_boundary(draw, spans, parent) -> int:
    """A drawn offset where a box can go in among the children of the
    box `parent`: before a child, or after the last one."""
    children = [s for s in spans if s[4] and s[4][-1] == parent[0]]
    ends = [s[3] for s in children] or [parent[0] + parent[2]]
    return draw(st.sampled_from([s[0] for s in children] + [max(ends)]))


@st.composite
def rare_forms(draw, data: bytes) -> bytes:
    """`data`, a well-formed fixture file, with valid rare forms put in
    below the top level and every enclosing size grown: a box with a
    64-bit size in a trak (opaque, or an edts holding an elst), a uuid box
    in moov/udta (in a udta of its own if moov has none), 1 to 7 zero
    bytes at the end of a container with a 32-bit size, and the size of the final mdat made
    0. At least one of them, each at most once."""
    forms = draw(st.sets(st.sampled_from(["large", "uuid", "padding",
                                          "open"]), min_size=1),
                 label="forms")
    if "large" in forms:
        spans = box_spans(data)
        trak = draw(st.sampled_from([s for s in spans if s[1] == b"trak"]))
        elst = mkfull(b"elst", 0, 0, struct.pack(">IIihH", 1, 1000, 0, 1, 0))
        kind, body = draw(st.sampled_from([
            (b"free", bytes(draw(st.integers(0, 16)))), (b"edts", elst)]))
        blob = struct.pack(">I4sQ", 1, kind, 16 + len(body)) + body
        data = grown(data, _child_boundary(draw, spans, trak), blob,
                     (*trak[4], trak[0]))
    if "uuid" in forms:
        spans = box_spans(data)
        moov = next(s for s in spans if s[1] == b"moov" and not s[4])
        udta = [s for s in spans if s[1] == b"udta" and s[4] == (moov[0],)]
        blob = mkbox(b"uuid", draw(st.binary(min_size=16, max_size=16))
                     + bytes(draw(st.integers(0, 8))))
        if udta:
            data = grown(data, _child_boundary(draw, spans, udta[0]), blob,
                         (moov[0], udta[0][0]))
        else:
            data = grown(data, _child_boundary(draw, spans, moov),
                         mkbox(b"udta", blob), (moov[0],))
    if "padding" in forms:
        spans = box_spans(data)
        container = draw(st.sampled_from([
            s for s in spans if s[1] in FIXTURE_CONTAINERS and s[2] == 8]))
        data = grown(data, container[3], bytes(draw(st.integers(1, 7))),
                     (*container[4], container[0]))
    if "open" in forms:
        last = [s for s in box_spans(data) if not s[4]][-1]
        assert last[1] == b"mdat"
        data = data[:last[0]] + bytes(4) + data[last[0] + 4:]
    return data
