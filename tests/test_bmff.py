"""Parser tests over hand-crafted byte-level fixtures."""

import contextlib
import io
import itertools
import json
import os
import signal
import struct
import uuid as _uuidlib
from decimal import Decimal
from inspect import getclosurevars
from typing import BinaryIO, Collection, Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxtrace import bmff
from boxtrace.bmff import (
    _HEADER,
    _PAYLOAD_READ_CAP,
    _TOP_READ_AHEAD,
    _BOX_TABLE_SIZE,
    CONTAINER_TYPES,
    MAX_NESTING,
    TOP_LEVEL_TYPES,
    _fixed_point,
    _language,
    _opaque_fields,
    _u64,
    ascii_or_hex,
    box_fields,
    dump_tree,
    open_box_file,
    parse_container,
    parse_file,
    render_type_code,
    walk_boxes,
)
from boxtrace.errors import (
    BoxDecodeError,
    NestingTooDeep,
    NotBmff,
    ParseError,
    PayloadTooShort,
    TruncatedBox,
    UnsupportedVersion,
    ZeroSizeNonFinal,
)
from boxtrace.fixtures import FixtureSpec, generate_corpus
from boxtrace.symbols import (
    container_symbols,
    default_blacklist,
    extract_symbols,
    file_count_matrix,
    file_symbols,
)

from conftest import (
    FTYP_MIN,
    NEST_INNER,
    decoded_walk,
    hostile,
    mkbox,
    mkfull,
    mkmvhd,
    moov_nest,
    rare_forms,
    schema,
)

# Each schema's decode: its render of its key.
_DECODERS = {name: schema(name)[2] for name in bmff._SCHEMAS}


def parse_bytes(data: bytes):
    return parse_container(io.BytesIO(data), source_id="test")


class TestBasicParsing:
    def test_worked_ftyp_example(self):
        # Hand-decoded against the 14496-12 ftyp layout: 4-byte size,
        # 4-byte type, major brand, minor version, compatible brands.
        tree = parse_bytes(FTYP_MIN)
        assert len(tree.root.children) == 1
        node = tree.root.children[0]
        assert node.name == "ftyp"
        assert node.fields == [("majorBrand", "isom"), ("minorVersion", "0"),
                               ("compatibleBrand_1", "isom")]
        assert node.children == []
        assert tree.warnings == []

    def test_empty_file_is_not_bmff(self):
        with pytest.raises(NotBmff):
            parse_bytes(b"")

    def test_declared_size_exceeding_file_truncates(self):
        data = struct.pack(">I4s", 100, b"ftyp") + bytes(32)
        assert len(data) == 40
        with pytest.raises(TruncatedBox) as err:
            parse_bytes(data)
        assert err.value.offset == 0
        assert err.value.type_code == "ftyp"

    def test_first_box_must_be_recognized(self):
        with pytest.raises(NotBmff):
            parse_bytes(mkbox(b"abcd", bytes(8)))

    def test_plain_text_is_not_bmff(self):
        with pytest.raises(NotBmff):
            parse_bytes(b"This is not a video file at all, sorry.\n")

    @pytest.mark.parametrize("data", [b"hello", b"abc", b"1234567"])
    def test_file_shorter_than_a_header_is_not_bmff(self, data):
        with pytest.raises(NotBmff, match=f"^only {len(data)} bytes at offset 0"):
            parse_bytes(data)

    def test_unknown_box_after_first_is_opaque(self):
        data = FTYP_MIN + mkbox(b"abcd", bytes(5))
        tree = parse_bytes(data)
        node = tree.root.children[1]
        assert node.name == "abcd"
        assert node.fields == [("stuff", "opaque"), ("count", "5")]

    def test_nested_containers(self):
        trak = mkbox(b"trak", mkbox(b"tref", bytes(4)))
        moov = mkbox(b"moov", mkmvhd() + trak + trak)
        tree = parse_bytes(FTYP_MIN + moov)
        moov_node = tree.root.children[1]
        assert [c.name for c in moov_node.children] == ["mvhd", "trak", "trak"]
        tref = moov_node.children[1].children[0]
        assert tref.fields == [("stuff", "opaque"), ("count", "4")]

    def test_child_ranges_contained_and_ordered(self):
        moov = mkbox(b"moov", mkmvhd() + mkbox(b"trak", b""))
        tree = parse_bytes(FTYP_MIN + moov)
        parent = tree.root.children[1]
        prev_end = parent.header.payload_offset
        for child in parent.children:
            assert child.header.offset == prev_end
            prev_end = child.header.offset + child.header.effective_len
        assert prev_end == parent.header.offset + parent.header.effective_len


class TestSizeHandling:
    def test_large_size_box(self):
        payload = bytes(6)
        data = FTYP_MIN + struct.pack(">I4sQ", 1, b"blob", 16 + len(payload)) + payload
        tree = parse_bytes(data)
        node = tree.root.children[1]
        assert node.header.large_size == 22
        assert node.fields == [("stuff", "opaque"), ("count", "6")]

    def test_size_zero_final_top_level(self):
        data = FTYP_MIN + struct.pack(">I4s", 0, b"mdat") + bytes(100)
        tree = parse_bytes(data)
        mdat = tree.root.children[1]
        assert mdat.header.effective_len == 108
        assert mdat.fields == [("stuff", "opaque"), ("count", "100")]

    def test_size_zero_nested_rejected(self):
        moov = mkbox(b"moov", struct.pack(">I4s", 0, b"free") + bytes(4))
        with pytest.raises(ZeroSizeNonFinal):
            parse_bytes(FTYP_MIN + moov)

    def test_size_smaller_than_header_rejected(self):
        data = FTYP_MIN + struct.pack(">I4s", 4, b"free")
        with pytest.raises(TruncatedBox):
            parse_bytes(data)

    def test_top_level_effective_lengths_sum_to_file_length(self):
        data = FTYP_MIN + mkbox(b"moov", mkmvhd()) + mkbox(b"mdat", bytes(50))
        tree = parse_bytes(data)
        total = sum(c.header.effective_len for c in tree.root.children)
        assert total == len(data)

    def test_trailing_garbage_at_top_level_rejected(self):
        with pytest.raises(TruncatedBox):
            parse_bytes(FTYP_MIN + b"\x00\x01\x02")

    def test_zero_padding_inside_container_tolerated(self):
        moov = mkbox(b"moov", mkmvhd() + bytes(4))
        tree = parse_bytes(FTYP_MIN + moov)
        assert len(tree.warnings) == 1
        assert "padding" in tree.warnings[0]
        assert [c.name for c in tree.root.children[1].children] == ["mvhd"]

    def test_header_fields_past_parent_end_are_read_from_the_file(self):
        # The 64-bit size of the last child of `moov` lies past the end of
        # `moov`; it is read from the bytes that follow, as any read is.
        # The opaque `free` before it is larger than a top-level read.
        skipped = mkbox(b"free", bytes(100))
        moov = mkbox(b"moov", skipped + struct.pack(">I4s", 1, b"free"))
        with pytest.raises(TruncatedBox) as err:
            parse_bytes(FTYP_MIN + moov + mkbox(b"free", bytes(8)))
        assert "declared length 70438249829 exceeds the 8 bytes remaining" \
            in str(err.value)
        user = mkbox(b"moov", skipped + struct.pack(">I4s", 24, b"uuid"))
        with pytest.raises(TruncatedBox) as err:
            parse_bytes(FTYP_MIN + user + bytes(16))
        assert "declared length 24 exceeds the 8 bytes remaining" \
            in str(err.value)

    def test_nonzero_trailer_inside_container_rejected(self):
        moov = mkbox(b"moov", mkmvhd() + b"\x00\x00\x00\x01")
        with pytest.raises(TruncatedBox):
            parse_bytes(FTYP_MIN + moov)


class TestUuidBoxes:
    def test_uuid_user_type_field(self):
        user = bytes(range(16))
        data = FTYP_MIN + struct.pack(">I4s", 8 + 16 + 4, b"uuid") + user + bytes(4)
        tree = parse_bytes(data)
        node = tree.root.children[1]
        assert node.name == "uuid"
        assert node.fields == [
            ("userType", "00010203-0405-0607-0809-0a0b0c0d0e0f")]

    def test_uuid_truncated_user_type(self):
        data = FTYP_MIN + struct.pack(">I4s", 16, b"uuid") + bytes(8)
        with pytest.raises(TruncatedBox):
            parse_bytes(data)


class TestKnownBoxDecoding:
    def test_mvhd_timescale_value(self):
        payload = mkmvhd(timescale=1000)[8:]
        assert b"\x00\x00\x03\xe8" in payload
        tree = parse_bytes(FTYP_MIN + mkbox(b"moov", mkbox(b"mvhd", payload)))
        mvhd = tree.root.children[1].children[0]
        assert ("timescale", "1000") in mvhd.fields
        assert ("version", "0") in mvhd.fields
        assert ("flags", "0") in mvhd.fields

    def test_ftyp_two_compatible_brands(self):
        payload = b"isom" + bytes(4) + b"isom" + b"3gp4"
        data = mkbox(b"ftyp", payload)
        tree = parse_bytes(data)
        fields = dict(tree.root.children[0].fields)
        assert fields["compatibleBrand_1"] == "isom"
        assert fields["compatibleBrand_2"] == "3gp4"

    def test_short_hdlr_downgrades_to_opaque_with_warning(self):
        short = mkfull(b"hdlr", 0, 0, bytes(10))
        tree = parse_bytes(FTYP_MIN + short)
        node = tree.root.children[1]
        assert node.fields == [("stuff", "opaque"), ("count", "14")]
        assert len(tree.warnings) == 1
        assert "hdlr" in tree.warnings[0]

    def test_unsupported_mvhd_version_downgrades(self):
        bad = mkfull(b"mvhd", 7, 0, bytes(96))
        tree = parse_bytes(FTYP_MIN + bad)
        node = tree.root.children[1]
        assert node.fields[0] == ("stuff", "opaque")
        assert tree.warnings

    def test_ftyp_and_styp_decode_by_schema(self):
        tree = parse_bytes(FTYP_MIN + mkbox(b"styp", FTYP_MIN[8:]))
        for node in tree.root.children:
            assert node.fields[0] == ("majorBrand", "isom")
        assert tree.warnings == []

    def test_stsz_summary_only(self):
        body = struct.pack(">II", 0, 3) + struct.pack(">3I", 10, 20, 30)
        tree = parse_bytes(FTYP_MIN + mkfull(b"stsz", 0, 0, body))
        fields = dict(tree.root.children[1].fields)
        assert fields["sampleSize"] == "0"
        assert fields["sampleCount"] == "3"
        assert "10" not in fields.values()

    def test_elst_entries(self):
        body = struct.pack(">I", 1) + struct.pack(">IihH", 73432, 1024, 1, 0)
        tree = parse_bytes(FTYP_MIN + mkfull(b"elst", 0, 0, body))
        fields = tree.root.children[1].fields
        assert ("segmentDuration", "73432") in fields
        assert ("mediaTime", "1024") in fields
        assert ("mediaRate", "1") in fields

    def test_stsd_entry_formats(self):
        entry = mkbox(b"avc1", bytes(70))
        body = struct.pack(">I", 1) + entry
        tree = parse_bytes(FTYP_MIN + mkfull(b"stsd", 0, 0, body))
        fields = dict(tree.root.children[1].fields)
        assert fields["entryCount"] == "1"
        assert fields["format_1"] == "avc1"

    def test_short_ftyp_payload_downgrades_to_opaque(self):
        tree = parse_bytes(mkbox(b"ftyp", b"is"))
        assert tree.root.children[0].fields == [("stuff", "opaque"),
                                                ("count", "2")]
        # The warning carries the decoder's `PayloadTooShort` message.
        assert tree.warnings == ["box 'ftyp' at offset 0: ftyp needs 8 bytes, "
                                 "payload holds 2; treated as opaque"]


# The hand-written decoders that the struct layouts replaced, kept as the
# reference for every fixed-layout box: each reads its fields at computed
# offsets.
_R16, _R32, _R64 = (struct.Struct(f).unpack_from for f in (">H", ">I", ">Q"))
_RI16, _RI32, _RI64 = (struct.Struct(f).unpack_from for f in (">h", ">i", ">q"))


def _ref_u16(b, o):
    return _R16(b, o)[0]


def _ref_u32(b, o):
    return _R32(b, o)[0]


def _ref_u64(b, o):
    return _R64(b, o)[0]


def _ref_i16(b, o):
    return _RI16(b, o)[0]


def _ref_i32(b, o):
    return _RI32(b, o)[0]


def _ref_i64(b, o):
    return _RI64(b, o)[0]


def _ref_need(payload, n, what):
    if len(payload) < n:
        raise PayloadTooShort(f"{what} needs {n} bytes, payload holds {len(payload)}")


def _ref_fullbox(payload, what):
    _ref_need(payload, 4, what)
    version = payload[0]
    flags = int.from_bytes(payload[1:4], "big")
    return [("version", str(version)), ("flags", str(flags))], payload[4:]


def _ref_matrix(body, o):
    return ",".join(_fixed_point(_ref_i32(body, o + 4 * i), 30 if i % 3 == 2 else 16)
                    for i in range(9))


def ref_decode_mvhd(payload):
    fields, body = _ref_fullbox(payload, "mvhd")
    version = int(fields[0][1])
    if version == 0:
        _ref_need(body, 96, "mvhd v0")
        times = [_ref_u32(body, 0), _ref_u32(body, 4)]
        timescale, duration = _ref_u32(body, 8), _ref_u32(body, 12)
        o = 16
    elif version == 1:
        _ref_need(body, 108, "mvhd v1")
        times = [_ref_u64(body, 0), _ref_u64(body, 8)]
        timescale, duration = _ref_u32(body, 16), _ref_u64(body, 20)
        o = 28
    else:
        raise UnsupportedVersion(f"mvhd version {version}")
    fields += [
        ("creationTime", str(times[0])),
        ("modificationTime", str(times[1])),
        ("timescale", str(timescale)),
        ("duration", str(duration)),
        ("rate", _fixed_point(_ref_i32(body, o), 16)),
        ("volume", _fixed_point(_ref_i16(body, o + 4), 8)),
        ("matrix", _ref_matrix(body, o + 16)),
        ("nextTrackId", str(_ref_u32(body, o + 76))),
    ]
    return fields


def ref_decode_tkhd(payload):
    fields, body = _ref_fullbox(payload, "tkhd")
    version = int(fields[0][1])
    if version == 0:
        _ref_need(body, 80, "tkhd v0")
        times = [_ref_u32(body, 0), _ref_u32(body, 4)]
        track_id = _ref_u32(body, 8)
        duration = _ref_u32(body, 16)
        o = 28
    elif version == 1:
        _ref_need(body, 92, "tkhd v1")
        times = [_ref_u64(body, 0), _ref_u64(body, 8)]
        track_id = _ref_u32(body, 16)
        duration = _ref_u64(body, 24)
        o = 40
    else:
        raise UnsupportedVersion(f"tkhd version {version}")
    fields += [
        ("creationTime", str(times[0])),
        ("modificationTime", str(times[1])),
        ("trackId", str(track_id)),
        ("duration", str(duration)),
        ("layer", str(_ref_i16(body, o))),
        ("alternateGroup", str(_ref_i16(body, o + 2))),
        ("volume", _fixed_point(_ref_i16(body, o + 4), 8)),
        ("matrix", _ref_matrix(body, o + 8)),
        ("width", _fixed_point(_ref_i32(body, o + 44), 16)),
        ("height", _fixed_point(_ref_i32(body, o + 48), 16)),
    ]
    return fields


def ref_decode_mdhd(payload):
    fields, body = _ref_fullbox(payload, "mdhd")
    version = int(fields[0][1])
    if version == 0:
        _ref_need(body, 20, "mdhd v0")
        times = [_ref_u32(body, 0), _ref_u32(body, 4)]
        timescale, duration = _ref_u32(body, 8), _ref_u32(body, 12)
        o = 16
    elif version == 1:
        _ref_need(body, 32, "mdhd v1")
        times = [_ref_u64(body, 0), _ref_u64(body, 8)]
        timescale, duration = _ref_u32(body, 16), _ref_u64(body, 20)
        o = 28
    else:
        raise UnsupportedVersion(f"mdhd version {version}")
    fields += [
        ("creationTime", str(times[0])),
        ("modificationTime", str(times[1])),
        ("timescale", str(timescale)),
        ("duration", str(duration)),
        ("language", _language(_ref_u16(body, o))),
    ]
    return fields


def ref_decode_vmhd(payload):
    fields, body = _ref_fullbox(payload, "vmhd")
    _ref_need(body, 8, "vmhd")
    opcolor = ",".join(str(_ref_u16(body, 2 + 2 * i)) for i in range(3))
    fields += [("graphicsMode", str(_ref_u16(body, 0))), ("opColor", opcolor)]
    return fields


def ref_decode_smhd(payload):
    fields, body = _ref_fullbox(payload, "smhd")
    _ref_need(body, 4, "smhd")
    fields.append(("balance", _fixed_point(_ref_i16(body, 0), 8)))
    return fields


def ref_decode_entry_count(name):
    def decode(payload):
        fields, body = _ref_fullbox(payload, name)
        _ref_need(body, 4, name)
        fields.append(("entryCount", str(_ref_u32(body, 0))))
        return fields

    return decode


def ref_decode_stsz(payload):
    fields, body = _ref_fullbox(payload, "stsz")
    _ref_need(body, 8, "stsz")
    fields += [
        ("sampleSize", str(_ref_u32(body, 0))),
        ("sampleCount", str(_ref_u32(body, 4))),
    ]
    return fields


def ref_decode_elst(payload):
    fields, body = _ref_fullbox(payload, "elst")
    version = int(fields[0][1])
    if version not in (0, 1):
        raise UnsupportedVersion(f"elst version {version}")
    _ref_need(body, 4, "elst")
    entry_count = _ref_u32(body, 0)
    fields.append(("entryCount", str(entry_count)))
    entry_size = 20 if version == 1 else 12
    pos = 4
    for _ in range(min(entry_count, 16)):
        if pos + entry_size > len(body):
            break
        if version == 1:
            duration, media_time = _ref_u64(body, pos), _ref_i64(body, pos + 8)
            rate_off = pos + 16
        else:
            duration, media_time = _ref_u32(body, pos), _ref_i32(body, pos + 4)
            rate_off = pos + 8
        rate = (_ref_i16(body, rate_off) << 16) + _ref_u16(body, rate_off + 2)
        fields += [
            ("segmentDuration", str(duration)),
            ("mediaTime", str(media_time)),
            ("mediaRate", _fixed_point(rate, 16)),
        ]
        pos += entry_size
    return fields


# Box type -> (reference decoder, largest body its fixed layout reads);
# elst reads at most 16 entries, of up to 20 bytes, after its entry count.
REFERENCE_DECODERS = {
    "mvhd": (ref_decode_mvhd, 108),
    "tkhd": (ref_decode_tkhd, 92),
    "mdhd": (ref_decode_mdhd, 32),
    "vmhd": (ref_decode_vmhd, 8),
    "smhd": (ref_decode_smhd, 4),
    **{name: (ref_decode_entry_count(name), 4)
       for name in ("dref", "stts", "stsc", "stco", "co64")},
    "stsz": (ref_decode_stsz, 8),
    "elst": (ref_decode_elst, 4 + 16 * 20),
}


# The hand-written decoders of the boxes with tails of varying length, as
# they were before decoders took a set of fields to drop: the reference for
# dropping fields of every decoder.
def ref_decode_ftyp(payload):
    _ref_need(payload, 8, "ftyp")
    fields = [
        ("majorBrand", ascii_or_hex(payload[0:4])),
        ("minorVersion", str(_ref_u32(payload, 4))),
    ]
    pos, n = 8, 1
    while pos + 4 <= len(payload):
        fields.append((f"compatibleBrand_{n}", ascii_or_hex(payload[pos:pos + 4])))
        pos += 4
        n += 1
    return fields


def ref_decode_hdlr(payload):
    fields, body = _ref_fullbox(payload, "hdlr")
    _ref_need(body, 20, "hdlr")
    name = body[20:].rstrip(b"\x00")
    fields += [
        ("handlerType", ascii_or_hex(body[4:8])),
        ("name", ascii_or_hex(name)),
    ]
    return fields


def ref_decode_stsd(payload):
    fields, body = _ref_fullbox(payload, "stsd")
    _ref_need(body, 4, "stsd")
    entry_count = _ref_u32(body, 0)
    fields.append(("entryCount", str(entry_count)))
    pos, n = 4, 1
    while pos + 8 <= len(body) and n <= min(entry_count, 32):
        entry_size = _ref_u32(body, pos)
        fields.append((f"format_{n}", ascii_or_hex(body[pos + 4:pos + 8])))
        if entry_size < 8 or pos + entry_size > len(body):
            break
        pos += entry_size
        n += 1
    return fields


VARIABLE_REFERENCES = {
    "ftyp": (ref_decode_ftyp, 48),
    "styp": (ref_decode_ftyp, 48),
    "hdlr": (ref_decode_hdlr, 40),
    "stsd": (ref_decode_stsd, 48),
}


def decode_outcome(decoder, payload, *drop):
    """The fields a decoder returns, or the type and message it raises."""
    try:
        return decoder(payload, *drop)
    except BoxDecodeError as exc:
        return type(exc), str(exc)


def draw_payload(data, name, layout):
    """A payload for box `name`, whose layout reads up to `layout` bytes:
    half the time a whole layout, version 0 or 1 and a body as long as the
    longest layout's, so that fixed layouts decode in full; otherwise
    random bytes, often a small entry count and, for stsd, sample entries
    of plausible sizes, cut short at times."""
    if name in ("ftyp", "styp"):
        return data.draw(st.binary(max_size=layout), label="payload")
    if data.draw(st.booleans(), label="whole layout"):
        return bytes([data.draw(st.integers(0, 1), label="version")]) \
            + data.draw(st.binary(min_size=3 + layout, max_size=11 + layout),
                        label="flags and body")
    version = data.draw(st.sampled_from([0, 1, 2, 255]), label="version")
    flags = data.draw(st.binary(min_size=3, max_size=3), label="flags")
    n = data.draw(st.integers(0, layout + 8), label="body length")
    body = data.draw(st.binary(min_size=n, max_size=n), label="body")
    if name == "stsd" and data.draw(st.booleans(), label="entries"):
        body += b"".join(
            struct.pack(">I", size) + code + bytes(max(size - 8, 0))
            for size, code in data.draw(st.lists(st.tuples(
                st.integers(0, 20), st.binary(min_size=4, max_size=4)),
                max_size=4), label="entries"))
    if len(body) >= 4 and data.draw(st.booleans(), label="small count"):
        body = struct.pack(">I", data.draw(st.integers(0, 20))) + body[4:]
    payload = bytes([version]) + flags + body
    # Payloads too short for the version and flags as well.
    return payload[:data.draw(
        st.sampled_from([len(payload), 0, 1, 2, 3]), label="cut")]


def decoder_plans() -> list[dict]:
    """The plan dict of each fixed-layout schema, which its key and render
    read through its `plan_of`."""
    return [getclosurevars(plan_of).nonlocals["plans"] for name in _DECODERS
            if (plan_of := getclosurevars(schema(name)[0]).nonlocals.get(
                "plan_of")) is not None]


@contextlib.contextmanager
def no_plans():
    """Every fixed-layout schema without plans, as in a fresh process,
    until the block ends; then the process's plans are put back."""
    saved = [(plans, dict(plans)) for plans in decoder_plans()]
    for plans, _ in saved:
        plans.clear()
    try:
        yield
    finally:
        for plans, kept in saved:
            plans.clear()
            plans.update(kept)


# Numbers of field names no box has, so each drop set holding one is new
# to every plan dict.
_FRESH_NAMES = itertools.count()


def interleaved_drops(data, names: list[str]) -> list:
    """More drop sets than a decoder keeps plans for, each twice, in an
    order drawn at random: `()`, a list, a set and frozensets, most of
    which name a field of no box."""
    drops = [(), ["@flags"], set(names), frozenset(), frozenset(names)]
    for _ in range(bmff._PLAN_CACHE_SIZE + 2):
        drop = data.draw(st.sets(st.sampled_from(names)), label="drop")
        drops.append(frozenset(drop | {f"@fresh{next(_FRESH_NAMES)}"}))
    return data.draw(st.permutations(drops * 2), label="order")


def dropped(fields, drop):
    """`fields` with the value of each field whose name `drop` holds None."""
    return [(key, None if "@" + key in drop else value)
            for key, value in fields]


class TestDecodersMatchReference:
    def test_every_decoder_is_covered(self):
        # ftyp/styp, hdlr and stsd have variable-length tails and keep
        # their own hand-written decoders.
        assert set(_DECODERS) - set(REFERENCE_DECODERS) == {
            "ftyp", "styp", "hdlr", "stsd"}

    @pytest.mark.parametrize("name", sorted(REFERENCE_DECODERS))
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_fields_or_error_equal_reference(self, name, data):
        reference, layout = REFERENCE_DECODERS[name]
        payload = draw_payload(data, name, layout)
        assert (decode_outcome(_DECODERS[name], payload, ())
                == decode_outcome(reference, payload))

    def test_every_decoder_has_a_reference(self):
        assert set(_DECODERS) == {*REFERENCE_DECODERS, *VARIABLE_REFERENCES}

    @pytest.mark.parametrize("name", sorted(_DECODERS))
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_dropped_fields_are_none(self, name, data):
        # The same fields, with None for each dropped one, or the same
        # error, for any subset of the field names and names of no field.
        reference, layout = {**REFERENCE_DECODERS, **VARIABLE_REFERENCES}[name]
        payload = draw_payload(data, name, layout)
        expected = decode_outcome(reference, payload)
        names = ["@version", "@flags", "@absent", "version"]
        if isinstance(expected, list):
            names += ["@" + key for key, _ in expected]
        drop = frozenset(data.draw(st.sets(st.sampled_from(names)),
                                   label="drop"))
        if isinstance(expected, list):
            expected = dropped(expected, drop)
        assert decode_outcome(_DECODERS[name], payload, drop) == expected

    def test_fixed_layouts_keep_plans(self):
        assert len(decoder_plans()) == len(REFERENCE_DECODERS) - 1  # elst

    @pytest.mark.parametrize("name", sorted(_DECODERS))
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_interleaved_drop_sets_past_the_plan_bound(self, name, data):
        # A plan made for one drop set is never used for another, whether
        # it was kept or the bound was reached, and no type of collection
        # is refused.
        reference, layout = {**REFERENCE_DECODERS, **VARIABLE_REFERENCES}[name]
        payloads = [draw_payload(data, name, layout) for _ in range(3)]
        names = ["@version", "@flags", "@absent", "version",
                 *("@" + key for key, _ in reference(bytes(4 + layout)))]
        with no_plans():
            for drop in interleaved_drops(data, names):
                for payload in payloads:
                    expected = decode_outcome(reference, payload)
                    if isinstance(expected, list):
                        expected = dropped(expected, drop)
                    assert decode_outcome(_DECODERS[name], payload,
                                          drop) == expected
            assert all(len(plans) <= bmff._PLAN_CACHE_SIZE
                       for plans in decoder_plans())

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_walks_with_interleaved_drop_sets(self, walked_fixtures, data):
        # The walk of a hostile variant under each drop set: the
        # reference walk's events with the dropped values None, its
        # warnings and its errors.
        base, offsets = data.draw(st.sampled_from(walked_fixtures))
        variant = hostile(data.draw, base, offsets)
        names = sorted({"@" + key for _, _, _, fields
                        in reference_walk_boxes(io.BytesIO(base), [])
                        for key, _ in fields})
        expected = walk_outcome(reference_walk_boxes, variant)
        with no_plans():
            for drop in interleaved_drops(data, names):
                want = expected
                if isinstance(expected[0], list):
                    want = ([(depth, path, header, dropped(fields, drop))
                             for depth, path, header, fields in expected[0]],
                            expected[1])
                warnings: list[str] = []
                try:
                    outcome = list(decoded_walk(io.BytesIO(variant), warnings,
                                                None, drop)), warnings
                except ParseError as exc:
                    outcome = type(exc), str(exc)
                assert outcome == want


def rewritten(data, payload: bytes, outcome, key, drop) -> bytes:
    """`payload` with bytes at drawn offsets rewritten, each rewrite kept
    only while the `decode_outcome` of its `key` under `drop` stays
    `outcome`: the dropped fields, pads and unread bytes."""
    out = bytearray(payload)
    for at in data.draw(st.lists(st.integers(0, max(len(out) - 1, 0)),
                                 max_size=64), label="offsets"):
        if at >= len(out):
            break
        old = out[at]
        out[at] = data.draw(st.integers(0, 255), label="byte")
        if decode_outcome(key, bytes(out), drop) != outcome:
            out[at] = old
    return bytes(out)


class TestIdentities:
    """A schema's key is the identity of a payload: payloads with equal
    keys render to equal fields, and a payload the schema refuses raises
    the error that `box_fields` warns with."""

    def test_every_decoder_has_an_identity(self):
        # Each schema is a key and a render of that key.
        assert all(len(pair) == 2 and all(map(callable, pair))
                   and bmff.has_schema(name)
                   for name, pair in bmff._SCHEMAS.items())

    @pytest.mark.parametrize("name", sorted(_DECODERS))
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_equal_identities_decode_alike(self, name, data):
        reference, layout = {**REFERENCE_DECODERS, **VARIABLE_REFERENCES}[name]
        key, render, decode = schema(name)
        payload = draw_payload(data, name, layout)
        expected = decode_outcome(reference, payload)
        names = {"@" + fname for fname, _ in reference(bytes(4 + layout))}
        if isinstance(expected, list):
            names.update("@" + fname for fname, _ in expected)
        drop = data.draw(st.sampled_from([
            frozenset(), default_blacklist(), frozenset(names)])
            | st.sets(st.sampled_from(sorted(names))).map(frozenset),
            label="drop")
        outcome = decode_outcome(key, payload, drop)
        if isinstance(expected, list):
            assert render(outcome, drop) == dropped(expected, drop)
        else:
            assert outcome == expected
            header = (0, 8 + len(payload), name, 8, 8 + len(payload), None,
                      None)
            warnings: list[str] = []
            assert (box_fields(header, payload, drop, warnings)
                    == _opaque_fields(len(payload), drop))
            assert warnings == [f"box '{name}' at offset 0: {outcome[1]}; "
                                f"treated as opaque"]
        # A rewrite of bytes that leave the key as it is, and payloads cut
        # short or with a version out of range.
        version = data.draw(st.sampled_from([2, 7, 255]), label="version")
        others = [rewritten(data, payload, outcome, key, drop),
                  payload[:data.draw(st.integers(0, len(payload)),
                                     label="cut")],
                  bytes([version]) + payload[1:]]
        fields = decode_outcome(decode, payload, drop)
        for other in others:
            if decode_outcome(key, other, drop) == outcome:
                assert decode_outcome(decode, other, drop) == fields

    def test_dropped_fields_leave_fixed_layout_keys_equal(self):
        # Two tkhd payloads that differ only in times, duration, matrix,
        # width and height: one key under the default blacklist, and two
        # keys once the width is kept.
        first = bytes(4) + bytes(range(80))
        second = bytearray(first)
        for at in [*range(4, 12), *range(20, 24), *range(40, 84)]:
            second[at] ^= 0xFF
        key = schema("tkhd")[0]
        blacklist = default_blacklist()
        assert key(first, blacklist) == key(bytes(second), blacklist)
        kept = blacklist - {"@width"}
        assert key(first, kept) != key(bytes(second), kept)

    @pytest.mark.parametrize("version", [0, 1])
    def test_dropped_fields_leave_elst_keys_equal(self, version):
        # Two elst payloads that differ only in segment durations: one key
        # and equal fields under the default blacklist, and two keys once
        # the durations are kept.
        entry = ">IihH" if version == 0 else ">QqhH"
        first, second = (
            bytes([version, 0, 0, 0]) + struct.pack(">I", 3) + b"".join(
                struct.pack(entry, duration, media_time, 1, 0)
                for duration, media_time in zip(durations, [0, -1, 512]))
            for durations in ([1000, 2000, 3000], [7, 8, 9]))
        key, render, _ = schema("elst")
        blacklist = default_blacklist()
        assert "@segmentDuration" in blacklist
        assert key(first, blacklist) == key(second, blacklist)
        assert (render(key(first, blacklist), blacklist)
                == render(key(second, blacklist), blacklist))
        kept = blacklist - {"@segmentDuration"}
        assert key(first, kept) != key(second, kept)


class TestTypeCodeRendering:
    def test_printable_kept(self):
        assert render_type_code(b"ftyp") == "ftyp"
        assert render_type_code(b"qt  ") == "qt  "

    def test_non_printable_escaped(self):
        assert render_type_code(b"\xa9xyz") == "\\xa9xyz"

    def test_path_metacharacters_escaped(self):
        assert render_type_code(b"a/b@") == "a\\x2fb\\x40"

    def test_non_printable_box_parses(self):
        data = FTYP_MIN + mkbox(b"\xa9nam", bytes(3))
        tree = parse_bytes(data)
        assert tree.root.children[1].name == "\\xa9nam"

    @given(st.binary(min_size=4, max_size=4))
    @settings(max_examples=500)
    def test_matches_per_byte_loop(self, raw):
        assert render_type_code(raw) == oracle_render_type_code(raw)

    def test_every_byte_matches_per_byte_loop(self):
        for b in range(256):
            raw = bytes([b, 0x61, b, 0x7F])
            assert render_type_code(raw) == oracle_render_type_code(raw)


def oracle_render_type_code(raw: bytes) -> str:
    """The per-byte rendering loop `render_type_code` replaced."""
    out = []
    for b in raw:
        if 0x20 <= b <= 0x7E and b not in (0x2F, 0x40, 0x5C):
            out.append(chr(b))
        else:
            out.append(f"\\x{b:02x}")
    return "".join(out)


def oracle_ascii_or_hex(raw: bytes) -> str:
    """The per-byte printability test `ascii_or_hex` replaced."""
    if all(0x20 <= b <= 0x7E for b in raw):
        return raw.decode("ascii")
    return "0x" + raw.hex()


class TestAsciiOrHex:
    @given(st.binary(max_size=12))
    @settings(max_examples=500)
    def test_matches_per_byte_test(self, raw):
        assert ascii_or_hex(raw) == oracle_ascii_or_hex(raw)

    def test_every_byte_matches_per_byte_test(self):
        for b in range(256):
            raw = b"ab" + bytes([b])
            assert ascii_or_hex(raw) == oracle_ascii_or_hex(raw)


def oracle_fixed_point(raw: int, frac_bits: int) -> str:
    return format((Decimal(raw) / Decimal(1 << frac_bits)).normalize(), "f")


I32 = st.integers(-(2**31), 2**31 - 1)


class TestFixedPoint:
    @given(I32, st.sampled_from([8, 16, 30]))
    @settings(max_examples=500)
    def test_memoized_matches_decimal(self, raw, frac_bits):
        assert _fixed_point(raw, frac_bits) == oracle_fixed_point(raw, frac_bits)

    @pytest.mark.parametrize("raw", [2**30 + 1, -(2**30) - 1, 2**31 - 1,
                                     -(2**31) + 1, 2**30 + 3 * 2**9 + 1])
    def test_expansions_past_28_digits(self, raw):
        # raw / 2**30 has the digits of raw * 5**30; past 28 of them
        # Decimal rounds.
        assert len(str(abs(raw) * 5**30).rstrip("0")) > 28
        for _ in range(2):  # the second call is served from the cache
            assert _fixed_point(raw, 30) == oracle_fixed_point(raw, 30)


class TestNesting:
    @staticmethod
    def moov_chain(depth: int) -> bytes:
        return b"".join(struct.pack(">I4s", 8 * (depth - d), b"moov")
                        for d in range(depth))

    def test_deepest_allowed_chain_parses(self):
        node = parse_bytes(self.moov_chain(MAX_NESTING)).root
        for _ in range(MAX_NESTING):
            (node,) = node.children
        assert node.name == "moov" and node.children == []

    def test_one_level_deeper_raises(self):
        with pytest.raises(NestingTooDeep) as err:
            parse_bytes(self.moov_chain(MAX_NESTING + 1))
        assert err.value.offset == 8 * MAX_NESTING
        assert err.value.type_code == "moov"

    def test_5000_deep_chain_raises_parse_error(self):
        with pytest.raises(NestingTooDeep):
            parse_bytes(self.moov_chain(5000))


class SparseStream:
    """A seekable stream of `data` followed by zeros up to `length`; the
    zeros are made only as a read returns them. Counts `read` calls and
    the bytes they return."""

    def __init__(self, data: bytes, length: int):
        self.data, self.length, self.pos = data, length, 0
        self.reads = self.bytes_read = 0

    def seek(self, offset: int, whence: int = 0) -> int:
        self.pos = (offset, self.pos + offset, self.length + offset)[whence]
        return self.pos

    def tell(self) -> int:
        return self.pos

    def read(self, n: int = -1) -> bytes:
        end = self.length if n < 0 else min(self.length, self.pos + n)
        chunk = self.data[self.pos:end]
        chunk += bytes(max(0, end - self.pos - len(chunk)))
        self.pos = max(self.pos, end)
        self.reads += 1
        self.bytes_read += len(chunk)
        return chunk


def sparse_twin(data: bytes, length: int) -> bytes:
    """`data` with its final top-level box (an mdat) re-headed as a 64-bit
    box that runs to `length`; the caller serves the rest as zeros."""
    pos = last = 0
    while pos < len(data):
        last = pos
        pos += struct.unpack_from(">I", data, pos)[0]
    assert data[last + 4:last + 8] == b"mdat"
    return (data[:last] + struct.pack(">I4sQ", 1, b"mdat", length - last)
            + data[last + 8:])


class TestSizeIndependence:
    """Parse cost tracks the box count, not the file size: a fixture and
    its 4 GiB twin make the same reads, and a fixture makes at most two
    per top-level box."""

    TWIN_LENGTH = 4 << 30

    @pytest.fixture(scope="class")
    def fixture_files(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("size_independence")
        manifest = generate_corpus(FixtureSpec(seed=7, videos_per_cell=1), out)
        return [row.path.read_bytes() for row in manifest.rows]

    def test_twin_makes_the_same_reads(self, fixture_files):
        for data in fixture_files:
            plain = SparseStream(data, len(data))
            plain_tree = parse_container(plain)
            twin = SparseStream(sparse_twin(data, self.TWIN_LENGTH),
                                self.TWIN_LENGTH)
            twin_tree = parse_container(twin)
            assert twin_tree.root.children[-1].header.effective_len \
                == self.TWIN_LENGTH - plain_tree.root.children[-1].header.offset
            assert extract_symbols(twin_tree) == extract_symbols(plain_tree)
            assert twin.reads == plain.reads
            assert twin.bytes_read <= plain.bytes_read + _PAYLOAD_READ_CAP

    def test_reads_bounded_by_top_level_boxes(self, fixture_files):
        for data in fixture_files:
            stream = SparseStream(data, len(data))
            tree = parse_container(stream)
            assert stream.reads <= 2 * len(tree.root.children)

    def test_nested_opaque_payload_reads_at_most_one_window(self):
        # A 1 MiB free inside moov: the miss at its header reads one window
        # of its payload with it, and the rest is skipped by seeking.
        free_len = 1 << 20
        moov = (struct.pack(">I4s", 8 + len(mkmvhd()) + free_len, b"moov")
                + mkmvhd() + struct.pack(">I4s", free_len, b"free"))
        data = FTYP_MIN + moov
        stream = SparseStream(data, len(data) + free_len - 8)
        tree = parse_container(stream)
        moov_node = tree.root.children[1]
        assert [c.name for c in moov_node.children] == ["mvhd", "free"]
        assert moov_node.children[1].fields == [("stuff", "opaque"),
                                               ("count", str(free_len - 8))]
        assert stream.bytes_read <= len(data) + _PAYLOAD_READ_CAP


# The walk before its in-window fast path, kept verbatim as the reference:
# every header goes through `read`, and with `decode` every box yields an
# event, with no fields if it is not decoded.
def reference_walk_boxes(
    stream: BinaryIO, warnings: list[str],
    decode: Collection[str] | None = None,
) -> Iterator[tuple[int, str, tuple, list[tuple[str, str]]]]:
    """Yield ``(depth, path, header, fields)`` for every box of a seekable
    byte stream, in preorder; `path` is the box's symbol path (``moov/trak``)
    and `header` the values of its `BoxHeader`. Warnings go to `warnings` as
    they arise. Raises a `ParseError` as `parse_container` does.

    `decode`, if given, holds the paths of the boxes whose fields are
    wanted: any other non-container box yields no fields, and its payload
    is neither read nor decoded. Every header is still checked, so the
    same bytes raise the same `ParseError`, but warnings then cover only
    the structure and the decoded boxes.
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
        if decode is not None and path not in decode:
            fields = []
        elif (decoder := _DECODERS.get(type_code)) is not None:
            payload = read(pos + header_len,
                           min(effective_len - header_len, _PAYLOAD_READ_CAP),
                           within)
            try:
                fields = decoder(payload, ())
            except BoxDecodeError as exc:
                warnings.append(f"box '{type_code}' at offset {pos}: "
                                f"{exc}; treated as opaque")
                fields = _opaque_fields(effective_len - header_len, ())
        elif user_type is not None:
            fields = [("userType", user_type)]
        else:
            fields = _opaque_fields(effective_len - header_len, ())
        yield depth, path, header, fields
        pos = box_end


def walk_outcome(walk, data: bytes, decode=None):
    """A walk's events and warnings over `data`, or the type and message of
    the `ParseError` it raises. Any other exception escapes."""
    warnings: list[str] = []
    try:
        events = list(walk(io.BytesIO(data), warnings, decode))
    except ParseError as exc:
        return type(exc), str(exc)
    return events, warnings


def assert_walks_agree(data: bytes, decode=None) -> None:
    """`walk_boxes`, its boxes decoded by `box_fields`, gives the
    reference's outcome; with `decode`, only the reference's events that
    carry fields."""
    expected = walk_outcome(reference_walk_boxes, data, decode)
    if decode is not None and isinstance(expected[0], list):
        expected = [e for e in expected[0] if e[3]], expected[1]
    assert walk_outcome(decoded_walk, data, decode) == expected


def box_paths(data: bytes) -> list[str]:
    """The symbol path of every box the reference walks before it stops."""
    paths = []
    try:
        for _, path, _, _ in reference_walk_boxes(io.BytesIO(data), []):
            paths.append(path)
    except ParseError:
        pass
    return paths


def decode_sets(data: bytes):
    """`decode` sets drawn from the box paths of `data`, with paths that
    name no box."""
    return (st.sets(st.sampled_from(box_paths(data) or ["ftyp"]))
            | st.sets(st.sampled_from(["", "moov", "moov/", "mdat", "x"])))


# Header forms put where a read's window ends: the plain header of an
# opaque or a decoded box, a 64-bit size, a uuid user type (whole or cut),
# a size-0 box, and tails of 1 to 7 zero or nonzero bytes.
def header_forms():
    plain = st.builds(lambda t, n: mkbox(t, bytes(n)),
                      st.sampled_from([b"free", b"mvhd", b"ftyp", b"trak"]),
                      st.integers(0, 24))
    large = st.builds(lambda n, d: struct.pack(">I4sQ", 1, b"skip", 16 + n + d)
                      + bytes(n), st.integers(0, 16), st.integers(-16, 2))
    user = st.builds(lambda n, cut: (struct.pack(">I4s", 24 + n, b"uuid")
                                     + bytes(range(16)) + bytes(n))[:cut],
                     st.integers(0, 8), st.integers(8, 48))
    zero = st.builds(lambda n: struct.pack(">I4s", 0, b"mdat") + bytes(n),
                     st.integers(0, 8))
    tail = st.binary(min_size=1, max_size=7) | st.builds(bytes,
                                                         st.integers(1, 7))
    return plain | large | user | zero | tail


@st.composite
def straddling(draw) -> bytes:
    """Bytes whose header form starts up to 8 bytes before the end of a
    read's window, or just after it: the 128-byte read between top-level
    boxes, or the 64 KiB window read inside a container."""
    form = draw(header_forms())
    shift = draw(st.integers(-1, 8))  # window end minus the form's offset
    if not draw(st.booleans()):
        first = _TOP_READ_AHEAD - shift
        return mkbox(b"free", bytes(first - 8)) + form
    # moov's second child misses the first read and reads one window; the
    # third child starts `shift` bytes before that window ends.
    second = mkbox(b"free", bytes(_PAYLOAD_READ_CAP - shift - 8))
    body = mkbox(b"free", bytes(_TOP_READ_AHEAD)) + second + form
    body += bytes(draw(st.integers(0, 8)))
    moov = struct.pack(">I4s", 8 + len(body) + draw(st.integers(-2, 0)),
                       b"moov") + body
    return moov + draw(st.sampled_from([b"", mkbox(b"free", bytes(4))]))


@st.composite
def short_tails(draw) -> bytes:
    """A container whose last 1 to 7 bytes cannot hold a header, inside
    1 to 3 containers, with the bytes after it in the same window."""
    tail = draw(st.binary(min_size=1, max_size=7)
                | st.builds(bytes, st.integers(1, 7)))
    inner = mkbox(b"free", bytes(draw(st.integers(0, 16)))) + tail
    for _ in range(draw(st.integers(1, 3))):
        inner = (mkbox(draw(st.sampled_from([b"moov", b"trak", b"mdia"])),
                       inner)
                 + mkbox(b"free", bytes(draw(st.integers(0, 8)))))
    return FTYP_MIN + inner


@pytest.fixture(scope="module")
def walked_fixtures(tmp_path_factory):
    """Bytes and box offsets of one fixture file per device and class."""
    out = tmp_path_factory.mktemp("walk")
    files = []
    for row in generate_corpus(FixtureSpec(seed=7, videos_per_cell=1),
                               out).rows:
        data = row.path.read_bytes()
        offsets = sorted(header[0] for _, _, header, _
                         in reference_walk_boxes(io.BytesIO(data), []))
        files.append((data, offsets))
    return files


class TestWalkMatchesReference:
    """The in-window fast path changes no event, warning or error, and a
    restricted walk yields exactly the reference's events with fields."""

    @given(st.data(), st.booleans(), st.binary(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_random_bytes(self, data, after_ftyp, tail):
        raw = (FTYP_MIN if after_ftyp else b"") + tail
        assert_walks_agree(raw)
        assert_walks_agree(raw, data.draw(decode_sets(raw)))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_hostile_fixture_variants(self, walked_fixtures, data):
        base, offsets = data.draw(st.sampled_from(walked_fixtures))
        variant = hostile(data.draw, base, offsets)
        assert_walks_agree(variant)
        assert_walks_agree(variant, data.draw(decode_sets(base)))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_valid_rare_forms_below_the_top_level(self, walked_fixtures,
                                                  data):
        # The forms that leave the straight branch, built well-formed: the
        # walk gives the reference's events, not an error.
        base, _ = data.draw(st.sampled_from(walked_fixtures))
        variant = data.draw(rare_forms(base))
        assert isinstance(walk_outcome(reference_walk_boxes, variant)[0], list)
        assert_walks_agree(variant)
        assert_walks_agree(variant, data.draw(decode_sets(variant)))

    @given(st.data(), straddling())
    @settings(max_examples=300, deadline=None)
    def test_headers_across_a_window_end(self, data, raw):
        assert_walks_agree(raw)
        assert_walks_agree(raw, data.draw(decode_sets(raw)))

    @given(st.data(), short_tails())
    @settings(max_examples=200, deadline=None)
    def test_short_tails_before_more_bytes(self, data, raw):
        assert_walks_agree(raw)
        assert_walks_agree(raw, data.draw(decode_sets(raw)))

    @pytest.mark.parametrize("depth", [MAX_NESTING - 1, MAX_NESTING,
                                       MAX_NESTING + 1])
    @pytest.mark.parametrize("inner", NEST_INNER)
    def test_deep_nests(self, depth, inner):
        raw = FTYP_MIN + moov_nest(depth, inner)
        paths = box_paths(raw)
        for decode in (None, set(), set(paths), {paths[-1]}):
            assert_walks_agree(raw, decode)

    def test_rare_forms_across_the_top_level_read(self):
        # A 64-bit size, a uuid, a size-0 box and a short tail whose first
        # 4 bytes end the first 128-byte read.
        for form, error in [
                (struct.pack(">I4sQ", 1, b"skip", 16), None),
                (struct.pack(">I4s", 24, b"uuid") + bytes(16), None),
                (struct.pack(">I4s", 0, b"mdat"), None),
                (bytes(3), TruncatedBox)]:
            raw = mkbox(b"free", bytes(_TOP_READ_AHEAD - 4 - 8)) + form
            outcome = walk_outcome(decoded_walk, raw)
            assert outcome == walk_outcome(reference_walk_boxes, raw)
            assert (outcome[0] is error) if error else len(outcome[0]) == 2

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_descriptor_walks_as_the_stream(self, walked_fixtures,
                                            tmp_path_factory, data):
        # The positioned reads of a file's descriptor give the outcome of
        # seek and read on a stream of its bytes.
        base, offsets = data.draw(st.sampled_from(walked_fixtures))
        variant = hostile(data.draw, base, offsets)
        decode = data.draw(st.none() | decode_sets(base))
        path = tmp_path_factory.getbasetemp() / "descriptor_walk.mp4"
        path.write_bytes(variant)
        fd = os.open(path, os.O_RDONLY)
        try:
            outcome = walk_outcome(lambda _, *args: decoded_walk(fd, *args),
                                   variant, decode)
        finally:
            os.close(fd)
        assert outcome == walk_outcome(decoded_walk, variant, decode)

    def test_reads_do_not_rise(self, walked_fixtures):
        for data, _ in walked_fixtures:
            paths = box_paths(data)
            for decode in (None, set(), set(paths), set(paths[1::3])):
                counts = []
                for walk in (reference_walk_boxes, walk_boxes):
                    stream = SparseStream(data, len(data))
                    list(walk(stream, [], decode))
                    counts.append((stream.reads, stream.bytes_read))
                assert counts[1][0] <= counts[0][0]
                assert counts[1][1] <= counts[0][1]

    def test_restricted_twin_makes_the_same_reads(self, walked_fixtures):
        length = TestSizeIndependence.TWIN_LENGTH
        for data, _ in walked_fixtures:
            only = {s for s in container_symbols(io.BytesIO(data))[0]
                    if s.startswith(("moov/trak/mdia/hdlr", "mdat"))}
            plain = SparseStream(data, len(data))
            twin = SparseStream(sparse_twin(data, length), length)
            plain_symbols = container_symbols(plain, only=only)
            assert container_symbols(twin, only=only) == plain_symbols
            assert twin.reads == plain.reads


class TestTypeCodeCache:
    """The walk's box table: bounded, its first entries kept, each entry's
    type code the one `render_type_code` gives and its path its scope's
    path and that code."""

    @staticmethod
    def boxes(raws) -> bytes:
        """A file of the boxes of `raws` at the top level and in moov."""
        inner = b"".join(mkbox(raw) for raw in raws)
        return FTYP_MIN + inner + mkbox(b"moov", inner)

    @staticmethod
    def paths(raws) -> list[str]:
        codes = [render_type_code(raw) for raw in raws]
        return ["ftyp", *codes, "moov", *("moov/" + code for code in codes)]

    @staticmethod
    def empty_table(monkeypatch):
        monkeypatch.setattr(bmff, "_BOXES", {})
        monkeypatch.setattr(bmff, "_box_count", 0)

    @staticmethod
    def table() -> dict:
        """The box table's entries by (scope path, raw type)."""
        entries = {}
        scopes = [("", bmff._BOXES)]
        while scopes:
            prefix, boxes = scopes.pop()
            for raw, entry in boxes.items():
                entries[prefix, raw] = entry
                if entry[5] is not None:
                    scopes.append(entry[5])
        assert len(entries) == bmff._box_count
        return entries

    def test_bounded(self, monkeypatch):
        self.empty_table(monkeypatch)
        raws = [struct.pack(">I", 0x61610000 + i)
                for i in range(_BOX_TABLE_SIZE // 2 + 50)]
        data = self.boxes(raws)
        pairs = [("", b"ftyp"), *(("", raw) for raw in raws), ("", b"moov"),
                 *(("moov/", raw) for raw in raws)]
        assert len(pairs) > _BOX_TABLE_SIZE
        first = None
        for _ in range(2):  # the second walk meets a full table
            events = list(walk_boxes(io.BytesIO(data), []))
            assert [e[1][0] for e in events] == self.paths(raws)
            table = self.table()
            assert set(table) == set(pairs[:_BOX_TABLE_SIZE])
            assert first is None or table == first
            first = table
        # Boxes past the bound walk as the reference walks them.
        assert_walks_agree(data)
        assert_walks_agree(data, {"moov/" + render_type_code(raws[-1])})

    @pytest.mark.parametrize("position", range(4))
    def test_every_byte_renders_as_uncached(self, monkeypatch, position):
        self.empty_table(monkeypatch)
        raws = [b"free"[:position] + bytes([b]) + b"free"[position + 1:]
                for b in range(256)]
        data = self.boxes(raws)
        for _ in range(2):  # the second walk reads from the table
            events = list(walk_boxes(io.BytesIO(data), []))
            assert [e[1][0] for e in events] == self.paths(raws)
        table = self.table()
        assert len(table) == 2 + 2 * len(set(raws))
        for (prefix, raw), entry in table.items():
            assert entry[1] == render_type_code(raw)
            assert entry[0] == prefix + entry[1]


class _CountingStream(io.BytesIO):
    def __init__(self, data: bytes):
        super().__init__(data)
        self.bytes_read = 0

    def read(self, n=-1):
        chunk = super().read(n)
        self.bytes_read += len(chunk)
        return chunk


class TestStreamingBehavior:
    def test_opaque_payloads_never_read(self):
        mdat = mkbox(b"mdat", bytes(2 * 1024 * 1024))
        stream = _CountingStream(FTYP_MIN + mdat)
        tree = parse_container(stream)
        assert tree.root.children[1].fields == [("stuff", "opaque"),
                                                ("count", "2097152")]
        # Only headers and the tiny ftyp payload should ever be read.
        assert stream.bytes_read < 256

    def test_reparse_is_deterministic(self):
        data = FTYP_MIN + mkbox(b"moov", mkmvhd()) + mkbox(b"mdat", bytes(10))
        assert parse_bytes(data) == parse_bytes(data)

    def test_stuff_always_with_count(self):
        data = FTYP_MIN + mkbox(b"free") + mkbox(b"mdat", bytes(9))
        tree = parse_bytes(data)

        def check(node):
            names = [n for n, _ in node.fields]
            assert ("stuff" in names) == ("count" in names)
            for child in node.children:
                check(child)

        check(tree.root)

    def test_parse_file(self, tiny_ftyp_file):
        tree = parse_file(str(tiny_ftyp_file))
        assert tree.source_id == str(tiny_ftyp_file)
        assert tree.root.children[0].name == "ftyp"

    def test_only_regular_files_are_opened(self, tmp_path):
        # A directory and a device; a named pipe is in test_cli.py, since
        # opening one would block.
        for path in (str(tmp_path), os.devnull):
            for read in (parse_file, file_symbols):
                with pytest.raises(NotBmff, match="^not a regular file$"):
                    read(path)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd")
                        or not hasattr(os, "mkfifo"),
                        reason="no descriptor listing or named pipes")
    def test_no_descriptor_left_open(self, tmp_path, tiny_ftyp_file):
        # A raw descriptor left open is not reported as an unclosed file,
        # so the open descriptors are compared.
        truncated = tmp_path / "truncated.mp4"
        truncated.write_bytes(FTYP_MIN + mkbox(b"moov", mkmvhd())[:-5])
        directory = tmp_path / "directory"
        directory.mkdir()
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        good = str(tiny_ftyp_file)
        readers = [parse_file, file_symbols,
                   lambda path: file_count_matrix([good, path, good])]
        before = sorted(os.listdir("/proc/self/fd"))
        for read in readers:
            for bad in (truncated, directory, pipe):
                with pytest.raises(ParseError):
                    read(str(bad))
            read(good)
        assert sorted(os.listdir("/proc/self/fd")) == before

    @pytest.mark.skipif(not hasattr(os, "mkfifo")
                        or not hasattr(signal, "SIGALRM"),
                        reason="no named pipes or alarms")
    def test_path_swapped_for_a_named_pipe(self, tmp_path, tiny_ftyp_file,
                                           monkeypatch):
        # Another process swaps the path for a named pipe with no writer
        # right after it is first checked. A check of the path, not of the
        # open descriptor, then opens the pipe and blocks; the alarm turns
        # that block into a failure.
        path = str(tmp_path / "swapped.mp4")
        data = tiny_ftyp_file.read_bytes()
        with open(path, "wb") as handle:
            handle.write(data)
        real_stat = os.stat
        swapped = []

        def stat_then_swap(target, *args, **kwargs):
            result = real_stat(target, *args, **kwargs)
            if target == path and not swapped:
                swapped.append(target)
                os.unlink(path)
                os.mkfifo(path)
            return result

        def blocked(signum, frame):
            raise TimeoutError("open_box_file blocked on a named pipe")

        monkeypatch.setattr(os, "stat", stat_then_swap)
        previous = signal.signal(signal.SIGALRM, blocked)
        signal.alarm(10)
        try:
            try:
                fd = open_box_file(path)
                try:
                    assert os.read(fd, len(data) + 1) == data
                finally:
                    os.close(fd)
            except NotBmff:
                assert swapped  # the pipe was seen on the open descriptor
            # A path that is a pipe when it is opened is refused, and the
            # open does not wait for a writer.
            if not swapped:
                os.unlink(path)
                os.mkfifo(path)
            with pytest.raises(NotBmff, match="^not a regular file$"):
                open_box_file(path)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestDumpTree:
    def test_text_format_ftyp_only(self):
        tree = parse_bytes(FTYP_MIN)
        text = dump_tree(tree, "text")
        assert text.splitlines() == [
            "ftyp",
            "  @majorBrand: isom",
            "  @minorVersion: 0",
            "  @compatibleBrand_1: isom",
        ]

    def test_json_format_preserves_order(self):
        trak = mkbox(b"trak", mkbox(b"tref", bytes(2)))
        moov = mkbox(b"moov", trak + trak)
        tree = parse_bytes(FTYP_MIN + moov)
        obj = json.loads(dump_tree(tree, "json"))
        assert [node["name"] for node in obj] == ["ftyp", "moov"]
        assert [c["name"] for c in obj[1]["children"]] == ["trak", "trak"]
        assert obj[0]["fields"][0] == ["majorBrand", "isom"]

    def test_sibling_traks_both_rendered(self):
        trak = mkbox(b"trak", b"")
        moov = mkbox(b"moov", trak + trak)
        text = dump_tree(parse_bytes(FTYP_MIN + moov), "text")
        assert text.count("  trak") == 2

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            dump_tree(parse_bytes(FTYP_MIN), "yaml")
