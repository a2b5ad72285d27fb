"""Stream parser for the box (atom) structure of ISO base media files.

Only box headers and the payloads of schema-registered boxes are
decoded; the rest of an opaque payload larger than the read window (mdat
included) is never read, so parsing a multi-gigabyte file costs time
proportional to its box count, not its size. Parsing is strict about
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
import re
import stat
import struct
import uuid as _uuidlib
from dataclasses import dataclass, field
from decimal import Decimal
from functools import lru_cache
from typing import BinaryIO, Callable, Collection, Hashable, Iterator

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
# A decoder's identity maps a payload and a drop set to a key: payloads
# with equal keys decode to equal fields under that set, or raise the same
# error. A payload that fails the decoder's checks is its own key.
_Identity = Callable[[bytes, Collection[str]], Hashable]


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
# box table, once full the first drop sets stay and any other one's
# plan is made at each decode. A process meets few drop sets: the default
# blacklist, the empty set of a full parse, and a caller's own blacklists.
_PLAN_CACHE_SIZE = 16


def _flags(raw: bytes) -> str:
    return str(int.from_bytes(raw, "big"))


def _padded(layout: struct.Struct, kept: Collection[int]) -> struct.Struct:
    """`layout` with each value whose index `kept` lacks read as pad
    bytes, so it unpacks only the kept values."""
    tokens, i = [">"], 0
    for token in re.findall(r"\d*[a-zA-Z]", layout.format):
        if not token.endswith("x"):
            if i not in kept:
                token = f"{struct.calcsize('>' + token)}x"
            i += 1
        tokens.append(token)
    return struct.Struct("".join(tokens))


def _fixed_layout(name: str, fields: list[tuple[str, Callable]],
                  *formats: str) -> tuple[_Decoder, _Identity]:
    """Decoder and identity of a full box whose body is one fixed
    `struct` layout per version: ``formats[v]`` for version v, or any
    version if there is one format. The unpacked values pass, in order,
    through the writers of `fields`, a ``(field name, writer)`` list.

    A drop set's plan is the fields' list with every value None, the
    index, name and writer of each field the set keeps, so a dropped
    field costs no work, and per version the `unpack_from` of a layout
    that unpacks only the kept values, and the version when it picks the
    layout. Those values are the identity of a payload that the checks
    pass."""
    # Each layout unpacks the whole payload: version, flags, then the body.
    layouts = [(struct.Struct(">B3s" + f.removeprefix(">")),
                name if len(formats) == 1 else f"{name} v{v}")
               for v, f in enumerate(formats)]
    fields = [("version", str), ("flags", _flags), *fields]
    plans: dict[frozenset[str], tuple[_Fields, tuple, tuple]] = {}

    def plan_of(drop: Collection[str]) -> tuple[_Fields, tuple, tuple]:
        kept = tuple((i, key, write) for i, (key, write) in enumerate(fields)
                     if "@" + key not in drop)
        keys = {i for i, _, _ in kept} | ({0} if len(layouts) > 1 else set())
        plan = ([(key, None) for key, _ in fields], kept,
                tuple(_padded(layout, keys).unpack_from
                      for layout, _ in layouts))
        if len(plans) < _PLAN_CACHE_SIZE:
            plans[frozenset(drop)] = plan
        return plan

    def version_of(payload: bytes) -> int:
        """The version whose layout reads `payload`; raises the decoder's
        `BoxDecodeError` if there is none or the payload is too short."""
        if len(payload) < 4:
            _need(payload, 4, name)
        if len(layouts) == 1:
            version = 0
        elif (version := payload[0]) >= len(layouts):
            raise UnsupportedVersion(f"{name} version {version}")
        layout, what = layouts[version]
        if len(payload) < layout.size:
            _need(payload, layout.size - 4, what, 4)
        return version

    def decode(payload: bytes, drop: Collection[str]) -> _Fields:
        version = version_of(payload)
        # Another collection may be unhashable, so only a frozenset is
        # looked up; the callers pass one.
        template, kept, _ = (plans.get(drop) if type(drop) is frozenset
                             else None) or plan_of(drop)
        values = layouts[version][0].unpack_from(payload)
        out = template.copy()
        for i, key, write in kept:
            out[i] = key, write(values[i])
        return out

    # The identity makes `version_of`'s checks inline: a payload that
    # fails them is its own key.
    sizes = tuple(layout.size for layout, _ in layouts)
    versioned = len(sizes) > 1

    def identity(payload: bytes, drop: Collection[str]) -> Hashable:
        version = 0
        if versioned and (len(payload) < 4
                          or (version := payload[0]) >= len(sizes)):
            return payload
        if len(payload) < sizes[version]:
            return payload
        plan = plans.get(drop) if type(drop) is frozenset else None
        return (plan or plan_of(drop))[2][version](payload)

    return decode, identity


def _whole(payload: bytes, drop: Collection[str]) -> bytes:
    """A payload as its own identity."""
    return payload


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


def _hdlr_identity(payload: bytes, drop: Collection[str]) -> bytes:
    # The name is the payload's tail from offset 24.
    return payload if "@name" not in drop else payload[:24]


def _stsd_formats(payload: bytes) -> list[bytes]:
    """The format codes of the sample entries that an stsd payload of 8
    bytes or more lists, up to its entry count and `_MAX_STSD_ENTRIES`.
    The codes are read entry by entry, each at its offset plus 4, until
    one's size is under 8 or runs past the payload."""
    count = min(_u32(payload, 4), _MAX_STSD_ENTRIES)
    formats: list[bytes] = []
    pos = 8
    while pos + 8 <= len(payload) and len(formats) < count:
        formats.append(payload[pos + 4:pos + 8])
        entry_size = _u32(payload, pos)
        if entry_size < 8 or pos + entry_size > len(payload):
            break
        pos += entry_size
    return formats


def _decode_stsd(payload: bytes, drop: Collection[str]) -> _Fields:
    # Sample entry format codes only; codec-private data stays unparsed.
    fields = _fullbox(payload, "stsd", drop)
    _need(payload, 4, "stsd", 4)
    fields.append(("entryCount", None if "@entryCount" in drop
                   else str(_u32(payload, 4))))
    for n, code in enumerate(_stsd_formats(payload), 1):
        fname = f"format_{n}"
        fields.append((fname, None if "@" + fname in drop
                       else ascii_or_hex(code)))
    return fields


def _stsd_identity(payload: bytes, drop: Collection[str]) -> Hashable:
    # Not the payload: its sample entries hold codec-private data.
    return payload if len(payload) < 8 else (payload[:8],
                                             *_stsd_formats(payload))


# One edit list entry per version: segment duration, media time, and the
# 16.16 media rate (rate integer and fraction read as one i32).
_ELST_ENTRIES = (struct.Struct(">Iii"), struct.Struct(">Qqi"))
_ELST_FIELDS = ("segmentDuration", "mediaTime", "mediaRate")


def _elst_entries(payload: bytes) -> list[tuple[int, int, int]]:
    """The entries of a version 0 or 1 elst payload of 8 bytes or more:
    up to its entry count and `_MAX_ELST_ENTRIES`, as many as it holds."""
    entry = _ELST_ENTRIES[payload[0]]
    count = min(_u32(payload, 4), _MAX_ELST_ENTRIES,
                (len(payload) - 8) // entry.size)
    return [entry.unpack_from(payload, 8 + i * entry.size)
            for i in range(count)]


def _decode_elst(payload: bytes, drop: Collection[str]) -> _Fields:
    fields = _fullbox(payload, "elst", drop)
    version = payload[0]
    if version not in (0, 1):
        raise UnsupportedVersion(f"elst version {version}")
    _need(payload, 4, "elst", 4)
    fields.append(("entryCount", None if "@entryCount" in drop
                   else str(_u32(payload, 4))))
    for duration, media_time, rate in _elst_entries(payload):
        fields += [
            ("segmentDuration", None if "@segmentDuration" in drop
             else str(duration)),
            ("mediaTime", None if "@mediaTime" in drop else str(media_time)),
            ("mediaRate", None if "@mediaRate" in drop else _fixed16(rate)),
        ]
    return fields


def _elst_identity(payload: bytes, drop: Collection[str]) -> Hashable:
    # Not the payload: segment durations, dropped by default, differ in
    # every file.
    if len(payload) < 8 or payload[0] > 1:
        return payload
    duration, media_time, rate = ("@" + key in drop for key in _ELST_FIELDS)
    return payload[:8], *[(None if duration else d, None if media_time else t,
                           None if rate else r)
                          for d, t, r in _elst_entries(payload)]


_TIMES = [("creationTime", str), ("modificationTime", str)]

# The decoder and identity of each box type with a schema. Fixed layouts
# follow ISO/IEC 14496-12; `x` pads are reserved and pre-defined fields.
_SCHEMAS: dict[str, tuple[_Decoder, _Identity]] = {
    "ftyp": (_decode_ftyp, _whole),
    "styp": (_decode_ftyp, _whole),
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
    "hdlr": (_decode_hdlr, _hdlr_identity),
    "vmhd": _fixed_layout("vmhd", [("graphicsMode", str), ("opColor", _opcolor)],
                          ">H6s"),
    "smhd": _fixed_layout("smhd", [("balance", _fixed8)], ">h2x"),
    **{name: _fixed_layout(name, [("entryCount", str)], ">I")
       for name in ("dref", "stts", "stsc", "stco", "co64")},
    "stsz": _fixed_layout("stsz", [("sampleSize", str), ("sampleCount", str)],
                          ">II"),
    "stsd": (_decode_stsd, _stsd_identity),
    "elst": (_decode_elst, _elst_identity),
}
_DECODERS = {name: decode for name, (decode, _) in _SCHEMAS.items()}
_IDENTITIES = {name: identity for name, (_, identity) in _SCHEMAS.items()}


def has_schema(type_code: str) -> bool:
    return type_code in _DECODERS or type_code == "uuid"


def _opaque_fields(payload_len: int, drop: Collection[str]) -> _Fields:
    return [("stuff", None if "@stuff" in drop else "opaque"),
            ("count", None if "@count" in drop else str(payload_len))]


def box_fields(header: tuple, payload: bytes, drop: Collection[str],
               warnings: list[str]) -> _Fields:
    """The fields of a box that `walk_boxes` yields with its `header` and
    `payload`, not a container: a decoder's, a uuid box's user type, or
    the stuff and count of an opaque box. A field whose ``@``-prefixed
    name is in `drop` has the value None, and its value is never
    rendered; the fields, their order and the warnings are otherwise
    those of an empty `drop`. A payload that its decoder refuses adds a
    warning, and the box is opaque."""
    decoder = _DECODERS.get(header[2])
    if decoder is not None:
        try:
            return decoder(payload, drop)
        except BoxDecodeError as exc:
            warnings.append(f"box '{header[2]}' at offset {header[0]}: "
                            f"{exc}; treated as opaque")
    elif header[6] is not None:
        return [("userType", None if "@userType" in drop else header[6])]
    return _opaque_fields(header[4] - header[3], drop)


# The roles a box can have in the box table.
_CONTAINER, _DECODED, _UUID, _OPAQUE = range(4)

# The box table: the walk's entry for each (scope path, raw type) pair it
# meets, a scope path being ``""`` at the top level and ``moov/trak/``
# inside a trak. A scope is its path and the dict of its entries by raw
# type; `_BOXES` is the top level's dict. An entry is (path, type code,
# role, whether the box may be a file's first box, identity, scope): the
# identity is that of the box's payload as the walk yields it, its
# decoder's for a decoded box, the payload itself for a uuid box (its
# user type) and an opaque one (empty), None for a container; the scope,
# only a container's, is that of its children. Like `_fixed_point`'s cache
# the table holds at most 4096 entries (`_box_count`): once full, the
# first pairs the process met stay, and any other pair's entry is made
# each time it is met. A scope path holds at most `MAX_NESTING` container
# codes of 4 characters, so an entry takes about 1 KB at most and a full
# table about 4 MB; a seed-7 fixture corpus fills 36 entries.
_BOXES: dict[bytes, tuple] = {}
_BOX_TABLE_SIZE = 4096
_box_count = 0


def _box_entry(scope: tuple[str, dict], raw_type: bytes) -> tuple:
    """The box table's entry for a box of `raw_type` in `scope`, added to
    the scope's dict while the table has room."""
    global _box_count
    prefix, table = scope
    type_code = render_type_code(raw_type)
    path = prefix + type_code
    children = None
    if type_code in CONTAINER_TYPES:
        role, identity, children = _CONTAINER, None, (path + "/", {})
    elif type_code in _IDENTITIES:
        role, identity = _DECODED, _IDENTITIES[type_code]
    else:
        role, identity = _UUID if raw_type == b"uuid" else _OPAQUE, _whole
    entry = (path, type_code, role, type_code in TOP_LEVEL_TYPES, identity,
             children)
    if _box_count < _BOX_TABLE_SIZE:
        table[raw_type] = entry
        _box_count += 1
    return entry


def box_header(entry: tuple, offset: int, size: int,
               header: tuple | None) -> tuple:
    """The values of the `BoxHeader` of a box that `walk_boxes` yields
    with `entry`, `offset`, `size` and `header`: `header` itself, or for a
    plain box (None) those of an 8-byte header with its 32-bit size."""
    if header is None:
        return offset, size, entry[1], 8, size, None, None
    return header


def walk_boxes(
    source: BinaryIO | int, warnings: list[str],
    decode: Collection[str] | None = None,
) -> Iterator[tuple[int, tuple, int, int, tuple | None, bytes | None]]:
    """Yield ``(depth, entry, offset, size, header, payload)`` for every
    box of a seekable byte stream, or of the open descriptor of a regular
    file, in preorder. `entry` is the box's entry in the box table:
    ``entry[0]`` is its symbol path (``moov/trak``), ``entry[1]`` its type
    code and ``entry[4]`` the identity of its payload (see `_BOXES`).
    `offset` and `size` are the box's offset and 32-bit size. `header` is
    None for a plain box, one with a 32-bit size of 8 or more that is not
    ``uuid``; for any other box it holds the values of its `BoxHeader`
    (`box_header` gives them for both). `payload` is None for a
    container; for a box with a decoder, its payload's first
    `_PAYLOAD_READ_CAP` bytes, which `box_fields` decodes; for a uuid box,
    the 16 bytes of its user type; for any other box, empty. Warnings go
    to `warnings` as they arise. Raises a `ParseError` as
    `parse_container` does.

    `decode`, if given, holds the paths of the boxes whose fields are
    wanted, and only those boxes yield an event: containers and other
    boxes are walked past, and their payloads are not read. Every header
    is still checked, so the same bytes raise the same `ParseError`, but
    warnings then cover only the structure and the decoded boxes.

    A descriptor is read with `os.pread` at each offset, and its length
    taken from `os.fstat`; a stream is read with ``seek`` and ``read``.
    A plain box that fits its scope and whose header and payload lie in
    the window takes a straight branch: one box table lookup, no read.
    Any other box, a 64-bit size or a size of 0, a uuid user type, a
    header or payload past the window's end, a scope's last bytes under 8
    and a file's first box among them, goes through `read` and its checks.
    """
    if isinstance(source, int):
        fd, file_len = source, os.fstat(source).st_size
    else:
        fd = None
        source.seek(0, 2)
        file_len = source.tell()
    if file_len == 0:
        raise NotBmff("empty file")

    def read(data: bytes, start: int, offset: int, n: int,
             within: int | None) -> tuple[bytes, int, int, bytes]:
        """The window after a read of the `n` bytes at `offset`, as its
        bytes, start and end, and the bytes read, or those the source
        holds there. The window `data`, which starts at `start`, serves
        any read it covers. `within` ends the enclosing box (None between
        top-level boxes); a read past it still returns the source's bytes,
        as a 64-bit size or uuid user type may lie past its parent's end
        for the size checks."""
        at = offset - start
        if 0 <= at and at + n <= len(data):
            return data, start, start + len(data), data[at:at + n]
        if within is None:
            size = min(_TOP_READ_AHEAD, file_len - offset)
        else:
            size = min(_PAYLOAD_READ_CAP, within - offset)
        if fd is None:
            source.seek(offset)
            data = source.read(max(n, size))
        else:
            data = os.pread(fd, max(n, size), offset)
        return data, offset, offset + len(data), data[:n]

    unpack_header = _HEADER.unpack_from
    # The window: the last bytes read, `data`, which run from `start` to
    # `stop` and serve any read they cover. The first box always misses it.
    data, start, stop = b"", 0, 0
    # The scope being read is [pos, end), inside `depth` containers, and
    # `table` is its dict of entries; `stack` holds where each enclosing
    # scope resumes.
    stack: list[tuple[int, int, int, tuple[str, dict]]] = []
    pos, end, depth, scope = 0, file_len, 0, ("", _BOXES)
    table = _BOXES
    while True:
        if pos >= end:
            if not stack:
                break
            pos, end, depth, scope = stack.pop()
            table = scope[1]
            continue
        if start <= pos <= stop - 8 and end - pos >= 8:
            at = pos - start
            size, raw_type = unpack_header(data, at)
            entry = table.get(raw_type) or _box_entry(scope, raw_type)
            role = entry[2]
            if 8 <= size <= end - pos and pos + size <= stop and role != _UUID:
                # The straight branch: every check below passes.
                if role == _CONTAINER:
                    if depth == MAX_NESTING:
                        raise NestingTooDeep(pos, entry[1], MAX_NESTING)
                    if decode is None:
                        yield depth, entry, pos, size, None, None
                    stack.append((pos + size, end, depth, scope))
                    pos, end, depth, scope = (pos + 8, pos + size, depth + 1,
                                              entry[5])
                    table = scope[1]
                    continue
                if decode is None or entry[0] in decode:
                    yield depth, entry, pos, size, None, (
                        data[at + 8:at + size] if role == _DECODED else b"")
                pos += size
                continue
        else:
            # Not min(): a builtin call per box costs about 6% of the walk.
            data, start, stop, head = read(
                data, start, pos, 8 if end - pos >= 8 else end - pos,
                end if depth else None)
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
            entry = table.get(raw_type) or _box_entry(scope, raw_type)
            role = entry[2]
        type_code = entry[1]
        if not pos and not entry[3]:
            raise NotBmff(f"first box type '{type_code}' is not a recognized top-level box")
        within = end if depth else None
        header_len = 8
        header = None
        if size > 1 and role != _UUID:
            effective_len = size
        else:
            large_size = user_type = None
            if size == 1:
                data, start, stop, ext = read(data, start, pos + header_len,
                                              8, within)
                if len(ext) < 8:
                    raise TruncatedBox(pos, type_code, "64-bit size field truncated")
                large_size = _u64(ext, 0)
                header_len += 8
            if role == _UUID:
                data, start, stop, raw_uuid = read(
                    data, start, pos + header_len, 16, within)
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
            header = (pos, size, type_code, header_len, effective_len,
                      large_size, user_type)
        if effective_len < header_len:
            raise TruncatedBox(pos, type_code,
                               f"declared length {effective_len} smaller than its "
                               f"{header_len}-byte header")
        box_end = pos + effective_len
        if box_end > end:
            raise TruncatedBox(pos, type_code,
                               f"declared length {effective_len} exceeds the "
                               f"{end - pos} bytes remaining")
        if role == _CONTAINER:
            if depth == MAX_NESTING:
                raise NestingTooDeep(pos, type_code, MAX_NESTING)
            if decode is None:
                yield depth, entry, pos, size, header, None
            stack.append((box_end, end, depth, scope))
            pos, end, depth, scope = (pos + header_len, box_end, depth + 1,
                                      entry[5])
            table = scope[1]
            continue
        if decode is None or entry[0] in decode:
            if role == _DECODED:
                data, start, stop, payload = read(
                    data, start, pos + header_len,
                    min(effective_len - header_len, _PAYLOAD_READ_CAP), within)
            else:
                payload = raw_uuid if role == _UUID else b""
            yield depth, entry, pos, size, header, payload
        pos = box_end


def parse_container(byte_source: BinaryIO | int,
                    source_id: str = "") -> ContainerTree:
    """Parse the full top-level box sequence of a seekable byte stream,
    or of the open descriptor of a regular file.

    Raises a `ParseError` for any bytes that do not form a box tree,
    containers nested deeper than `MAX_NESTING` included.
    """
    warnings: list[str] = []
    root = AtomNode("root", None, [], [])
    # levels[d] holds the children of the latest box at depth d - 1.
    levels = [root.children]
    for depth, entry, offset, size, header, payload in walk_boxes(
            byte_source, warnings):
        header = box_header(entry, offset, size, header)
        fields = ([] if payload is None
                  else box_fields(header, payload, frozenset(), warnings))
        node = AtomNode(entry[1], BoxHeader(*header), fields, [])
        del levels[depth + 1:]
        levels[depth].append(node)
        levels.append(node.children)
    return ContainerTree(root=root, source_id=source_id, warnings=warnings)


def open_box_file(path: str) -> int:
    """Open `path` for parsing, and return its descriptor, which the
    caller closes. Anything but a regular file raises `NotBmff`, so a
    named pipe without a writer never blocks the caller; so does a path
    that no file can have (one holding a NUL byte).

    The check is made on the open descriptor, so a path swapped between
    a check and the open cannot slip through; the open does not wait for
    a named pipe's writer (`O_NONBLOCK`, which a regular file's reads
    ignore). No buffered reader is made: `walk_boxes` reads the
    descriptor at offsets."""
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    except ValueError as exc:  # an embedded NUL byte
        raise NotBmff(f"unusable path: {exc}") from exc
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        raise NotBmff("not a regular file")
    return fd


def parse_file(path: str) -> ContainerTree:
    """Open `path` and parse its container structure."""
    fd = open_box_file(path)
    try:
        return parse_container(fd, source_id=str(path))
    finally:
        os.close(fd)


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
