"""Parser tests over hand-crafted byte-level fixtures."""

import io
import json
import os
import struct
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxtrace.bmff import (
    _PAYLOAD_READ_CAP,
    MAX_NESTING,
    _fixed_point,
    ascii_or_hex,
    dump_tree,
    parse_container,
    parse_file,
    render_type_code,
)
from boxtrace.errors import (
    NestingTooDeep,
    NotBmff,
    TruncatedBox,
    ZeroSizeNonFinal,
)
from boxtrace.fixtures import FixtureSpec, generate_corpus
from boxtrace.symbols import extract_symbols, file_symbols

from conftest import FTYP_MIN, mkbox, mkfull, mkmvhd


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
