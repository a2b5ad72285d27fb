"""Stream parser for the box (atom) structure of ISO base media files.

Only box headers and the payloads of schema-registered boxes are
decoded; the rest of an opaque payload larger than the read window (mdat
included) is skipped by seeking, so parsing a multi-gigabyte file costs
time proportional to its box count, not its size. Parsing is strict about
sizes and lenient about content: unknown boxes become opaque nodes, never
failures; containers nested deeper than `MAX_NESTING` raise
`NestingTooDeep`.

Bytes come through one window per parse: a read that the last bytes read
cover is served from them. A miss inside a box reads on to the end of
that box (at most `_PAYLOAD_READ_CAP` bytes), so a `moov` is one read; an
opaque box nested in a container may therefore have up to one window of
its payload read with its header, never more. A miss between top-level
boxes reads `_TOP_READ_AHEAD` bytes, so at most that much of a top-level
opaque payload is read. Memory stays bounded by the window.
"""

from __future__ import annotations

import json
import os
import stat
import struct
import uuid as _uuidlib
from dataclasses import dataclass, field
from decimal import Decimal
from functools import lru_cache
from typing import BinaryIO, Callable, Iterator

from .errors import (
    BoxDecodeError,
    NestingTooDeep,
    NotBmff,
    PayloadTooShort,
    TruncatedBox,
    UnsupportedVersion,
    ZeroSizeNonFinal,
)

# Boxes recursed into as pure containers.
CONTAINER_TYPES = frozenset({
    "moov", "trak", "mdia", "minf", "stbl", "udta", "edts", "dinf",
    "mvex", "moof", "traf",
})

# Types accepted as the first box of a file; anything else means NotBmff.
TOP_LEVEL_TYPES = frozenset({
    "ftyp", "styp", "moov", "moof", "mdat", "free", "skip", "wide",
    "uuid", "pnot", "meta", "mfra", "sidx", "ssix", "prft", "emsg",
})

# Known-box payloads are decoded from at most this many bytes. It is also
# the largest read the parser makes, so memory stays bounded.
_PAYLOAD_READ_CAP = 64 * 1024

# Size of a read between top-level boxes. It covers the boxes after a
# fixture's moov up to the mdat header, 64-bit size included (at most 70
# bytes), so a fixture and its multi-gigabyte twin make the same reads.
_TOP_READ_AHEAD = 128

# Containers nested deeper than this raise NestingTooDeep; real files
# nest about 10 deep.
MAX_NESTING = 64

_HEADER = struct.Struct(">I4s")

_MAX_STSD_ENTRIES = 32
_MAX_ELST_ENTRIES = 16


@dataclass(slots=True)
class BoxHeader:
    """Decoded box header; `effective_len` covers header plus payload."""

    offset: int
    size: int
    type_code: str
    header_len: int
    effective_len: int
    large_size: int | None = None
    user_type: str | None = None

    @property
    def payload_offset(self) -> int:
        return self.offset + self.header_len

    @property
    def payload_len(self) -> int:
        return self.effective_len - self.header_len


@dataclass
class AtomNode:
    """One box in the container tree; leaf boxes carry decoded fields."""

    name: str
    header: BoxHeader | None
    fields: list[tuple[str, str]] = field(default_factory=list)
    children: list["AtomNode"] = field(default_factory=list)


@dataclass
class ContainerTree:
    """Full box tree of one file under a synthetic `root` node."""

    root: AtomNode
    source_id: str
    warnings: list[str] = field(default_factory=list)


_TYPE_CODE_CHARS = tuple(
    chr(b) if 0x20 <= b <= 0x7E and b not in (0x2F, 0x40, 0x5C)
    else f"\\x{b:02x}"
    for b in range(256))


def render_type_code(raw: bytes) -> str:
    """Render a 4-byte type code; non-printable bytes become ``\\xNN``.

    ``/``, ``@`` and ``\\`` are hex-escaped as well so that node names can
    never collide with the symbol path syntax.
    """
    return raw.decode("latin-1").translate(_TYPE_CODE_CHARS)


def ascii_or_hex(raw: bytes) -> str:
    """Canonical string for a byte value: printable ASCII or 0x-hex."""
    # ASCII is printable exactly from 0x20 to 0x7E.
    if raw.isascii():
        text = raw.decode("ascii")
        if text.isprintable():
            return text
    return "0x" + raw.hex()


@lru_cache(maxsize=4096)
def _fixed_point(raw: int, frac_bits: int) -> str:
    """Fixed-point value as a decimal string with trailing zeros trimmed."""
    value = Decimal(raw) / Decimal(1 << frac_bits)
    return format(value.normalize(), "f")


_U16, _U32, _U64 = (struct.Struct(f).unpack_from for f in (">H", ">I", ">Q"))
_I16, _I32, _I64 = (struct.Struct(f).unpack_from for f in (">h", ">i", ">q"))
_MATRIX = struct.Struct(">9i")


def _u16(b: bytes, o: int) -> int:
    return _U16(b, o)[0]


def _u32(b: bytes, o: int) -> int:
    return _U32(b, o)[0]


def _u64(b: bytes, o: int) -> int:
    return _U64(b, o)[0]


def _i16(b: bytes, o: int) -> int:
    return _I16(b, o)[0]


def _i32(b: bytes, o: int) -> int:
    return _I32(b, o)[0]


def _i64(b: bytes, o: int) -> int:
    return _I64(b, o)[0]


def _need(payload: bytes, n: int, what: str) -> None:
    if len(payload) < n:
        raise PayloadTooShort(f"{what} needs {n} bytes, payload holds {len(payload)}")


def _fullbox(payload: bytes, what: str) -> tuple[list[tuple[str, str]], bytes]:
    _need(payload, 4, what)
    version = payload[0]
    flags = int.from_bytes(payload[1:4], "big")
    return [("version", str(version)), ("flags", str(flags))], payload[4:]


def _matrix(body: bytes, o: int) -> str:
    # 3x3 transform: u, v, w entries (indices 2, 5, 8) are 2.30 fixed,
    # the rest 16.16.
    return ",".join(_fixed_point(raw, 30 if i % 3 == 2 else 16)
                    for i, raw in enumerate(_MATRIX.unpack_from(body, o)))


def _language(code: int) -> str:
    chars = [((code >> s) & 0x1F) + 0x60 for s in (10, 5, 0)]
    if all(0x61 <= c <= 0x7A for c in chars):
        return "".join(chr(c) for c in chars)
    return str(code)


def _decode_ftyp(payload: bytes) -> list[tuple[str, str]]:
    _need(payload, 8, "ftyp")
    fields = [
        ("majorBrand", ascii_or_hex(payload[0:4])),
        ("minorVersion", str(_u32(payload, 4))),
    ]
    pos, n = 8, 1
    while pos + 4 <= len(payload):
        fields.append((f"compatibleBrand_{n}", ascii_or_hex(payload[pos:pos + 4])))
        pos += 4
        n += 1
    return fields


def _decode_mvhd(payload: bytes) -> list[tuple[str, str]]:
    fields, body = _fullbox(payload, "mvhd")
    version = int(fields[0][1])
    if version == 0:
        _need(body, 96, "mvhd v0")
        times = [_u32(body, 0), _u32(body, 4)]
        timescale, duration = _u32(body, 8), _u32(body, 12)
        o = 16
    elif version == 1:
        _need(body, 108, "mvhd v1")
        times = [_u64(body, 0), _u64(body, 8)]
        timescale, duration = _u32(body, 16), _u64(body, 20)
        o = 28
    else:
        raise UnsupportedVersion(f"mvhd version {version}")
    fields += [
        ("creationTime", str(times[0])),
        ("modificationTime", str(times[1])),
        ("timescale", str(timescale)),
        ("duration", str(duration)),
        ("rate", _fixed_point(_i32(body, o), 16)),
        ("volume", _fixed_point(_i16(body, o + 4), 8)),
        ("matrix", _matrix(body, o + 16)),
        ("nextTrackId", str(_u32(body, o + 76))),
    ]
    return fields


def _decode_tkhd(payload: bytes) -> list[tuple[str, str]]:
    fields, body = _fullbox(payload, "tkhd")
    version = int(fields[0][1])
    if version == 0:
        _need(body, 80, "tkhd v0")
        times = [_u32(body, 0), _u32(body, 4)]
        track_id = _u32(body, 8)
        duration = _u32(body, 16)
        o = 28
    elif version == 1:
        _need(body, 92, "tkhd v1")
        times = [_u64(body, 0), _u64(body, 8)]
        track_id = _u32(body, 16)
        duration = _u64(body, 24)
        o = 40
    else:
        raise UnsupportedVersion(f"tkhd version {version}")
    fields += [
        ("creationTime", str(times[0])),
        ("modificationTime", str(times[1])),
        ("trackId", str(track_id)),
        ("duration", str(duration)),
        ("layer", str(_i16(body, o))),
        ("alternateGroup", str(_i16(body, o + 2))),
        ("volume", _fixed_point(_i16(body, o + 4), 8)),
        ("matrix", _matrix(body, o + 8)),
        ("width", _fixed_point(_i32(body, o + 44), 16)),
        ("height", _fixed_point(_i32(body, o + 48), 16)),
    ]
    return fields


def _decode_mdhd(payload: bytes) -> list[tuple[str, str]]:
    fields, body = _fullbox(payload, "mdhd")
    version = int(fields[0][1])
    if version == 0:
        _need(body, 20, "mdhd v0")
        times = [_u32(body, 0), _u32(body, 4)]
        timescale, duration = _u32(body, 8), _u32(body, 12)
        o = 16
    elif version == 1:
        _need(body, 32, "mdhd v1")
        times = [_u64(body, 0), _u64(body, 8)]
        timescale, duration = _u32(body, 16), _u64(body, 20)
        o = 28
    else:
        raise UnsupportedVersion(f"mdhd version {version}")
    fields += [
        ("creationTime", str(times[0])),
        ("modificationTime", str(times[1])),
        ("timescale", str(timescale)),
        ("duration", str(duration)),
        ("language", _language(_u16(body, o))),
    ]
    return fields


def _decode_hdlr(payload: bytes) -> list[tuple[str, str]]:
    fields, body = _fullbox(payload, "hdlr")
    _need(body, 20, "hdlr")
    name = body[20:].rstrip(b"\x00")
    fields += [
        ("handlerType", ascii_or_hex(body[4:8])),
        ("name", ascii_or_hex(name)),
    ]
    return fields


def _decode_vmhd(payload: bytes) -> list[tuple[str, str]]:
    fields, body = _fullbox(payload, "vmhd")
    _need(body, 8, "vmhd")
    opcolor = ",".join(str(_u16(body, 2 + 2 * i)) for i in range(3))
    fields += [("graphicsMode", str(_u16(body, 0))), ("opColor", opcolor)]
    return fields


def _decode_smhd(payload: bytes) -> list[tuple[str, str]]:
    fields, body = _fullbox(payload, "smhd")
    _need(body, 4, "smhd")
    fields.append(("balance", _fixed_point(_i16(body, 0), 8)))
    return fields


def _decode_entry_count(name: str) -> Callable[[bytes], list[tuple[str, str]]]:
    def decode(payload: bytes) -> list[tuple[str, str]]:
        fields, body = _fullbox(payload, name)
        _need(body, 4, name)
        fields.append(("entryCount", str(_u32(body, 0))))
        return fields

    return decode


def _decode_stsz(payload: bytes) -> list[tuple[str, str]]:
    fields, body = _fullbox(payload, "stsz")
    _need(body, 8, "stsz")
    fields += [
        ("sampleSize", str(_u32(body, 0))),
        ("sampleCount", str(_u32(body, 4))),
    ]
    return fields


def _decode_stsd(payload: bytes) -> list[tuple[str, str]]:
    # Sample entry format codes only; codec-private data stays unparsed.
    fields, body = _fullbox(payload, "stsd")
    _need(body, 4, "stsd")
    entry_count = _u32(body, 0)
    fields.append(("entryCount", str(entry_count)))
    pos, n = 4, 1
    while pos + 8 <= len(body) and n <= min(entry_count, _MAX_STSD_ENTRIES):
        entry_size = _u32(body, pos)
        fields.append((f"format_{n}", ascii_or_hex(body[pos + 4:pos + 8])))
        if entry_size < 8 or pos + entry_size > len(body):
            break
        pos += entry_size
        n += 1
    return fields


def _decode_elst(payload: bytes) -> list[tuple[str, str]]:
    fields, body = _fullbox(payload, "elst")
    version = int(fields[0][1])
    if version not in (0, 1):
        raise UnsupportedVersion(f"elst version {version}")
    _need(body, 4, "elst")
    entry_count = _u32(body, 0)
    fields.append(("entryCount", str(entry_count)))
    entry_size = 20 if version == 1 else 12
    pos = 4
    for _ in range(min(entry_count, _MAX_ELST_ENTRIES)):
        if pos + entry_size > len(body):
            break
        if version == 1:
            duration, media_time = _u64(body, pos), _i64(body, pos + 8)
            rate_off = pos + 16
        else:
            duration, media_time = _u32(body, pos), _i32(body, pos + 4)
            rate_off = pos + 8
        rate = (_i16(body, rate_off) << 16) + _u16(body, rate_off + 2)
        fields += [
            ("segmentDuration", str(duration)),
            ("mediaTime", str(media_time)),
            ("mediaRate", _fixed_point(rate, 16)),
        ]
        pos += entry_size
    return fields


_DECODERS: dict[str, Callable[[bytes], list[tuple[str, str]]]] = {
    "ftyp": _decode_ftyp,
    "styp": _decode_ftyp,
    "mvhd": _decode_mvhd,
    "tkhd": _decode_tkhd,
    "mdhd": _decode_mdhd,
    "hdlr": _decode_hdlr,
    "vmhd": _decode_vmhd,
    "smhd": _decode_smhd,
    "dref": _decode_entry_count("dref"),
    "stts": _decode_entry_count("stts"),
    "stsc": _decode_entry_count("stsc"),
    "stco": _decode_entry_count("stco"),
    "co64": _decode_entry_count("co64"),
    "stsz": _decode_stsz,
    "stsd": _decode_stsd,
    "elst": _decode_elst,
}


def has_schema(type_code: str) -> bool:
    return type_code in _DECODERS or type_code == "uuid"


def _opaque_fields(payload_len: int) -> list[tuple[str, str]]:
    return [("stuff", "opaque"), ("count", str(payload_len))]


def walk_boxes(
    stream: BinaryIO, warnings: list[str]
) -> Iterator[tuple[int, str, tuple, list[tuple[str, str]]]]:
    """Yield ``(depth, path, header, fields)`` for every box of a seekable
    byte stream, in preorder; `path` is the box's symbol path (``moov/trak``)
    and `header` the values of its `BoxHeader`. Warnings go to `warnings` as
    they arise. Raises a `ParseError` as `parse_container` does.
    """
    stream.seek(0, 2)
    file_len = stream.tell()
    if file_len == 0:
        raise NotBmff("empty file")
    # The window: the last bytes read, which serve any read they cover.
    data, start = b"", 0

    def read(offset: int, n: int, within: int | None) -> bytes:
        """The `n` bytes at `offset`, or those the stream holds there.
        `within` ends the enclosing box (None between top-level boxes); a
        read past it still returns the stream's bytes, as a 64-bit size or
        uuid user type may lie past its parent's end for the size checks."""
        nonlocal data, start
        at = offset - start
        if 0 <= at and at + n <= len(data):
            return data[at:at + n]
        if within is None:
            size = min(_TOP_READ_AHEAD, file_len - offset)
        else:
            size = min(_PAYLOAD_READ_CAP, within - offset)
        stream.seek(offset)
        data = stream.read(max(n, size))
        start = offset
        return data[:n]

    # The scope being read is [pos, end), inside `depth` containers whose
    # path is `prefix`; `stack` holds where each enclosing scope resumes.
    stack: list[tuple[int, int, int, str]] = []
    pos, end, depth, prefix = 0, file_len, 0, ""
    while pos < end or stack:
        if pos >= end:
            pos, end, depth, prefix = stack.pop()
            continue
        within = end if depth else None
        # Not min(): a builtin call per box costs about 6% of the walk.
        head = read(pos, 8 if end - pos >= 8 else end - pos, within)
        if len(head) < 8:
            # Only the first box of a file starts at offset 0.
            if not pos:
                raise NotBmff("no first box exists" if not head else
                              f"only {len(head)} bytes at offset 0, no box header fits")
            if depth and end - pos < 8 and not any(head):
                # QuickTime-style zero terminator padding inside a container.
                warnings.append(
                    f"{end - pos} zero bytes of padding at offset {pos} ignored")
                pos = end
                continue
            raise TruncatedBox(pos, render_type_code(head.ljust(4, b"\x00")[:4]),
                               "trailing bytes cannot hold a box header")
        size, raw_type = _HEADER.unpack(head)
        type_code = render_type_code(raw_type)
        if not pos and type_code not in TOP_LEVEL_TYPES:
            raise NotBmff(f"first box type '{type_code}' is not a recognized top-level box")
        header_len = 8
        large_size = None
        if size == 1:
            ext = read(pos + header_len, 8, within)
            if len(ext) < 8:
                raise TruncatedBox(pos, type_code, "64-bit size field truncated")
            large_size = _u64(ext, 0)
            header_len += 8
        user_type = None
        if raw_type == b"uuid":
            raw_uuid = read(pos + header_len, 16, within)
            if len(raw_uuid) < 16:
                raise TruncatedBox(pos, type_code, "uuid user type truncated")
            user_type = str(_uuidlib.UUID(bytes=raw_uuid))
            header_len += 16
        if size == 0:
            if depth:
                raise ZeroSizeNonFinal(pos, type_code)
            effective_len = end - pos
        elif size == 1:
            effective_len = large_size
        else:
            effective_len = size
        if effective_len < header_len:
            raise TruncatedBox(pos, type_code,
                               f"declared length {effective_len} smaller than its "
                               f"{header_len}-byte header")
        if pos + effective_len > end:
            raise TruncatedBox(pos, type_code,
                               f"declared length {effective_len} exceeds the "
                               f"{end - pos} bytes remaining")
        path = prefix + type_code
        header = (pos, size, type_code, header_len, effective_len, large_size,
                  user_type)
        box_end = pos + effective_len
        if type_code in CONTAINER_TYPES:
            if depth == MAX_NESTING:
                raise NestingTooDeep(pos, type_code, MAX_NESTING)
            yield depth, path, header, []
            stack.append((box_end, end, depth, prefix))
            pos, end, depth, prefix = pos + header_len, box_end, depth + 1, path + "/"
            continue
        decoder = _DECODERS.get(type_code)
        if decoder is not None:
            payload = read(pos + header_len,
                           min(effective_len - header_len, _PAYLOAD_READ_CAP),
                           within)
            try:
                fields = decoder(payload)
            except BoxDecodeError as exc:
                warnings.append(f"box '{type_code}' at offset {pos}: "
                                f"{exc}; treated as opaque")
                fields = _opaque_fields(effective_len - header_len)
        elif user_type is not None:
            fields = [("userType", user_type)]
        else:
            fields = _opaque_fields(effective_len - header_len)
        yield depth, path, header, fields
        pos = box_end


def parse_container(byte_source: BinaryIO, source_id: str = "") -> ContainerTree:
    """Parse the full top-level box sequence of a seekable byte stream.

    Raises a `ParseError` for any bytes that do not form a box tree,
    containers nested deeper than `MAX_NESTING` included.
    """
    warnings: list[str] = []
    root = AtomNode("root", None, [], [])
    # levels[d] holds the children of the latest box at depth d - 1.
    levels = [root.children]
    for depth, _, header, fields in walk_boxes(byte_source, warnings):
        node = AtomNode(header[2], BoxHeader(*header), fields, [])
        del levels[depth + 1:]
        levels[depth].append(node)
        levels.append(node.children)
    return ContainerTree(root=root, source_id=source_id, warnings=warnings)


def open_box_file(path: str) -> BinaryIO:
    """Open `path` for parsing. Anything but a regular file raises
    `NotBmff`, so a named pipe without a writer never blocks the caller."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise NotBmff("not a regular file")
    return open(path, "rb")


def parse_file(path: str) -> ContainerTree:
    """Open `path` and parse its container structure."""
    with open_box_file(path) as handle:
        return parse_container(handle, source_id=str(path))


def _node_to_obj(node: AtomNode) -> dict:
    obj: dict = {"name": node.name}
    if node.header is not None:
        obj["offset"] = node.header.offset
        obj["length"] = node.header.effective_len
    obj["fields"] = [[name, value] for name, value in node.fields]
    obj["children"] = [_node_to_obj(child) for child in node.children]
    return obj


def dump_tree(tree: ContainerTree, format: str = "text") -> str:
    """Render a parsed tree deterministically as indented text or JSON."""
    if format == "json":
        payload = [_node_to_obj(child) for child in tree.root.children]
        return json.dumps(payload, indent=2) + "\n"
    if format != "text":
        raise ValueError(f"unknown dump format: {format!r}")
    lines: list[str] = []

    def walk(node: AtomNode, depth: int) -> None:
        lines.append("  " * depth + node.name)
        for name, value in node.fields:
            lines.append("  " * (depth + 1) + f"@{name}: {value}")
        for child in node.children:
            walk(child, depth + 1)

    for child in tree.root.children:
        walk(child, 0)
    return "\n".join(lines) + "\n"
