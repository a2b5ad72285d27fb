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
from typing import BinaryIO, Callable, Collection, Iterator

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


# Rendered type codes by raw code, filled by the walk. Like `_fixed_point`'s
# cache it holds at most 4096 entries: once full, the first codes the
# process met stay, and any other code is rendered each time it is met.
_TYPE_CODES: dict[bytes, str] = {}
_TYPE_CODE_CACHE_SIZE = 4096


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


_U32, _U64 = (struct.Struct(f).unpack_from for f in (">I", ">Q"))
_MATRIX = struct.Struct(">9i")
_OPCOLOR = struct.Struct(">3H")


def _u32(b: bytes, o: int) -> int:
    return _U32(b, o)[0]


def _u64(b: bytes, o: int) -> int:
    return _U64(b, o)[0]


# A box's fields in payload order: (field name, rendered value), the value
# None where the name, ``@``-prefixed, is in the decode's drop set.
_Fields = list[tuple[str, "str | None"]]
_Decoder = Callable[[bytes, Collection[str]], _Fields]


def _need(payload: bytes, n: int, what: str, at: int = 0) -> None:
    """Raise unless the payload holds `n` bytes from offset `at`."""
    if len(payload) - at < n:
        raise PayloadTooShort(
            f"{what} needs {n} bytes, payload holds {len(payload) - at}")


def _fullbox(payload: bytes, what: str, drop: Collection[str]) -> _Fields:
    """The version and flags fields of a full box, whose body starts at
    offset 4."""
    _need(payload, 4, what)
    return [("version", None if "@version" in drop else str(payload[0])),
            ("flags", None if "@flags" in drop
             else str(int.from_bytes(payload[1:4], "big")))]


def _fixed16(raw: int) -> str:
    return _fixed_point(raw, 16)


def _fixed8(raw: int) -> str:
    return _fixed_point(raw, 8)


def _matrix(raw: bytes) -> str:
    # 3x3 transform: u, v, w entries (indices 2, 5, 8) are 2.30 fixed,
    # the rest 16.16.
    return ",".join(_fixed_point(v, 30 if i % 3 == 2 else 16)
                    for i, v in enumerate(_MATRIX.unpack(raw)))


def _opcolor(raw: bytes) -> str:
    return ",".join(map(str, _OPCOLOR.unpack(raw)))


def _language(code: int) -> str:
    chars = [((code >> s) & 0x1F) + 0x60 for s in (10, 5, 0)]
    if all(0x61 <= c <= 0x7A for c in chars):
        return "".join(chr(c) for c in chars)
    return str(code)


# Plans each fixed-layout decoder keeps, one per drop set: like the
# type-code cache, once full the first drop sets stay and any other one's
# plan is made at each decode. A process meets few drop sets: the default
# blacklist, the empty set of a full parse, and a caller's own blacklists.
_PLAN_CACHE_SIZE = 16


def _flags(raw: bytes) -> str:
    return str(int.from_bytes(raw, "big"))


def _fixed_layout(name: str, fields: list[tuple[str, Callable]],
                  *formats: str) -> _Decoder:
    """Decoder of a full box whose body is one fixed `struct` layout per
    version: ``formats[v]`` for version v, or any version if there is one
    format. The unpacked values pass, in order, through the writers of
    `fields`, a ``(field name, writer)`` list.

    A drop set's plan is the fields' list with every value None, and the
    index, name and writer of each field the set keeps, so a dropped
    field costs no work."""
    # Each layout unpacks the whole payload: version, flags, then the body.
    layouts = [(struct.Struct(">B3s" + f.removeprefix(">")),
                name if len(formats) == 1 else f"{name} v{v}")
               for v, f in enumerate(formats)]
    fields = [("version", str), ("flags", _flags), *fields]
    plans: dict[frozenset[str], tuple[_Fields, tuple]] = {}

    def plan_of(drop: Collection[str]) -> tuple[_Fields, tuple]:
        plan = ([(key, None) for key, _ in fields],
                tuple((i, key, write) for i, (key, write) in enumerate(fields)
                      if "@" + key not in drop))
        if len(plans) < _PLAN_CACHE_SIZE:
            plans[frozenset(drop)] = plan
        return plan

    def decode(payload: bytes, drop: Collection[str]) -> _Fields:
        if len(payload) < 4:
            _need(payload, 4, name)
        if len(layouts) == 1:
            layout, what = layouts[0]
        elif (version := payload[0]) < len(layouts):
            layout, what = layouts[version]
        else:
            raise UnsupportedVersion(f"{name} version {version}")
        if len(payload) < layout.size:
            _need(payload, layout.size - 4, what, 4)
        # Another collection may be unhashable, so only a frozenset is
        # looked up; the walk passes one.
        template, kept = (plans.get(drop) if type(drop) is frozenset
                          else None) or plan_of(drop)
        values = layout.unpack_from(payload)
        out = template.copy()
        for i, key, write in kept:
            out[i] = key, write(values[i])
        return out

    return decode


def _decode_ftyp(payload: bytes, drop: Collection[str]) -> _Fields:
    _need(payload, 8, "ftyp")
    fields = [
        ("majorBrand", None if "@majorBrand" in drop
         else ascii_or_hex(payload[0:4])),
        ("minorVersion", None if "@minorVersion" in drop
         else str(_u32(payload, 4))),
    ]
    pos, n = 8, 1
    while pos + 4 <= len(payload):
        fname = f"compatibleBrand_{n}"
        fields.append((fname, None if "@" + fname in drop
                       else ascii_or_hex(payload[pos:pos + 4])))
        pos += 4
        n += 1
    return fields


def _decode_hdlr(payload: bytes, drop: Collection[str]) -> _Fields:
    fields = _fullbox(payload, "hdlr", drop)
    _need(payload, 20, "hdlr", 4)
    fields += [
        ("handlerType", None if "@handlerType" in drop
         else ascii_or_hex(payload[8:12])),
        ("name", None if "@name" in drop
         else ascii_or_hex(payload[24:].rstrip(b"\x00"))),
    ]
    return fields


def _decode_stsd(payload: bytes, drop: Collection[str]) -> _Fields:
    # Sample entry format codes only; codec-private data stays unparsed.
    fields = _fullbox(payload, "stsd", drop)
    _need(payload, 4, "stsd", 4)
    entry_count = _u32(payload, 4)
    fields.append(("entryCount", None if "@entryCount" in drop
                   else str(entry_count)))
    pos, n = 8, 1
    while pos + 8 <= len(payload) and n <= min(entry_count, _MAX_STSD_ENTRIES):
        entry_size = _u32(payload, pos)
        fname = f"format_{n}"
        fields.append((fname, None if "@" + fname in drop
                       else ascii_or_hex(payload[pos + 4:pos + 8])))
        if entry_size < 8 or pos + entry_size > len(payload):
            break
        pos += entry_size
        n += 1
    return fields


# One edit list entry per version: segment duration, media time, and the
# 16.16 media rate (rate integer and fraction read as one i32).
_ELST_ENTRIES = (struct.Struct(">Iii"), struct.Struct(">Qqi"))


def _decode_elst(payload: bytes, drop: Collection[str]) -> _Fields:
    fields = _fullbox(payload, "elst", drop)
    version = payload[0]
    if version not in (0, 1):
        raise UnsupportedVersion(f"elst version {version}")
    _need(payload, 4, "elst", 4)
    entry_count = _u32(payload, 4)
    fields.append(("entryCount", None if "@entryCount" in drop
                   else str(entry_count)))
    entry = _ELST_ENTRIES[version]
    pos = 8
    for _ in range(min(entry_count, _MAX_ELST_ENTRIES)):
        if pos + entry.size > len(payload):
            break
        duration, media_time, rate = entry.unpack_from(payload, pos)
        fields += [
            ("segmentDuration", None if "@segmentDuration" in drop
             else str(duration)),
            ("mediaTime", None if "@mediaTime" in drop else str(media_time)),
            ("mediaRate", None if "@mediaRate" in drop else _fixed16(rate)),
        ]
        pos += entry.size
    return fields


_TIMES = [("creationTime", str), ("modificationTime", str)]

# Fixed layouts follow ISO/IEC 14496-12; `x` pads are reserved and
# pre-defined fields.
_DECODERS: dict[str, _Decoder] = {
    "ftyp": _decode_ftyp,
    "styp": _decode_ftyp,
    "mvhd": _fixed_layout(
        "mvhd",
        [*_TIMES, ("timescale", str), ("duration", str), ("rate", _fixed16),
         ("volume", _fixed8), ("matrix", _matrix), ("nextTrackId", str)],
        ">IIIIih10x36s24xI", ">QQIQih10x36s24xI"),
    "tkhd": _fixed_layout(
        "tkhd",
        [*_TIMES, ("trackId", str), ("duration", str), ("layer", str),
         ("alternateGroup", str), ("volume", _fixed8), ("matrix", _matrix),
         ("width", _fixed16), ("height", _fixed16)],
        ">III4xI8xhhh2x36sii", ">QQI4xQ8xhhh2x36sii"),
    "mdhd": _fixed_layout(
        "mdhd",
        [*_TIMES, ("timescale", str), ("duration", str),
         ("language", _language)],
        ">IIIIH2x", ">QQIQH2x"),
    "hdlr": _decode_hdlr,
    "vmhd": _fixed_layout("vmhd", [("graphicsMode", str), ("opColor", _opcolor)],
                          ">H6s"),
    "smhd": _fixed_layout("smhd", [("balance", _fixed8)], ">h2x"),
    **{name: _fixed_layout(name, [("entryCount", str)], ">I")
       for name in ("dref", "stts", "stsc", "stco", "co64")},
    "stsz": _fixed_layout("stsz", [("sampleSize", str), ("sampleCount", str)],
                          ">II"),
    "stsd": _decode_stsd,
    "elst": _decode_elst,
}


def has_schema(type_code: str) -> bool:
    return type_code in _DECODERS or type_code == "uuid"


def _opaque_fields(payload_len: int, drop: Collection[str]) -> _Fields:
    return [("stuff", None if "@stuff" in drop else "opaque"),
            ("count", None if "@count" in drop else str(payload_len))]


def walk_boxes(
    stream: BinaryIO, warnings: list[str],
    decode: Collection[str] | None = None,
    drop: Collection[str] = frozenset(),
) -> Iterator[tuple[int, str, tuple, _Fields]]:
    """Yield ``(depth, path, header, fields)`` for every box of a seekable
    byte stream, in preorder; `path` is the box's symbol path (``moov/trak``)
    and `header` the values of its `BoxHeader`. Warnings go to `warnings` as
    they arise. Raises a `ParseError` as `parse_container` does.

    `drop` holds ``@``-prefixed field names whose values are not wanted:
    such a field is still yielded, with the value None, and its value is
    never rendered. The fields, their order and every warning and error
    are those of a walk without `drop`, since rendering a value never
    fails.

    `decode`, if given, holds the paths of the boxes whose fields are
    wanted, and only those boxes yield an event: containers and other
    boxes are walked past, and their payloads are neither read nor
    decoded. Every header is still checked, so the same bytes raise the
    same `ParseError`, but warnings then cover only the structure and the
    decoded boxes.

    A header whose 8 bytes lie in the window is unpacked in place; a
    64-bit size, a uuid user type, a header that crosses the window's end
    and a scope's last bytes under 8 go through `read` and its checks.
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

    unpack_header = _HEADER.unpack_from
    type_codes = _TYPE_CODES
    # The scope being read is [pos, end), inside `depth` containers whose
    # path is `prefix`; `stack` holds where each enclosing scope resumes.
    stack: list[tuple[int, int, int, str]] = []
    pos, end, depth, prefix = 0, file_len, 0, ""
    while pos < end or stack:
        if pos >= end:
            pos, end, depth, prefix = stack.pop()
            continue
        within = end if depth else None
        at = pos - start
        if 0 <= at <= len(data) - 8 and end - pos >= 8:
            size, raw_type = unpack_header(data, at)
        else:
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
        type_code = type_codes.get(raw_type)
        if type_code is None:
            type_code = render_type_code(raw_type)
            if len(type_codes) < _TYPE_CODE_CACHE_SIZE:
                type_codes[raw_type] = type_code
        if not pos and type_code not in TOP_LEVEL_TYPES:
            raise NotBmff(f"first box type '{type_code}' is not a recognized top-level box")
        header_len = 8
        large_size = user_type = None
        if size > 1 and raw_type != b"uuid":
            effective_len = size
        else:
            if size == 1:
                ext = read(pos + header_len, 8, within)
                if len(ext) < 8:
                    raise TruncatedBox(pos, type_code, "64-bit size field truncated")
                large_size = _u64(ext, 0)
                header_len += 8
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
        box_end = pos + effective_len
        if box_end > end:
            raise TruncatedBox(pos, type_code,
                               f"declared length {effective_len} exceeds the "
                               f"{end - pos} bytes remaining")
        path = prefix + type_code
        if type_code in CONTAINER_TYPES:
            if depth == MAX_NESTING:
                raise NestingTooDeep(pos, type_code, MAX_NESTING)
            if decode is None:
                yield depth, path, (pos, size, type_code, header_len,
                                    effective_len, large_size, user_type), []
            stack.append((box_end, end, depth, prefix))
            pos, end, depth, prefix = pos + header_len, box_end, depth + 1, path + "/"
            continue
        if decode is None or path in decode:
            if (decoder := _DECODERS.get(type_code)) is not None:
                payload = read(pos + header_len,
                               min(effective_len - header_len, _PAYLOAD_READ_CAP),
                               within)
                try:
                    fields = decoder(payload, drop)
                except BoxDecodeError as exc:
                    warnings.append(f"box '{type_code}' at offset {pos}: "
                                    f"{exc}; treated as opaque")
                    fields = _opaque_fields(effective_len - header_len, drop)
            elif user_type is not None:
                fields = [("userType",
                           None if "@userType" in drop else user_type)]
            else:
                fields = _opaque_fields(effective_len - header_len, drop)
            yield depth, path, (pos, size, type_code, header_len,
                                effective_len, large_size, user_type), fields
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
    `NotBmff`, so a named pipe without a writer never blocks the caller;
    so does a path that no file can have (one holding a NUL byte).

    The check is made on the open descriptor, so a path swapped between
    a check and the open cannot slip through; the open does not wait for
    a named pipe's writer (`O_NONBLOCK`, which a regular file's reads
    ignore)."""
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    except ValueError as exc:  # an embedded NUL byte
        raise NotBmff(f"unusable path: {exc}") from exc
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        raise NotBmff("not a regular file")
    return open(fd, "rb")


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
