"""Symbol extraction and blacklist behavior."""

import contextlib
import io
import itertools
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxtrace import evaluate as evaluate_module
from boxtrace import symbols as symbols_module
from boxtrace.bmff import (
    MAX_NESTING,
    AtomNode,
    ContainerTree,
    box_header,
    has_schema,
    parse_container,
    render_type_code,
    walk_boxes,
)
from boxtrace.errors import (
    BoxDecodeError,
    EmptyCorpus,
    NestingTooDeep,
    ParseError,
)
from boxtrace.evaluate import (
    DatasetManifest,
    ManifestRow,
    get_scenario,
    run_scenario,
)
from boxtrace.fixtures import FixtureSpec, generate_corpus
from boxtrace.symbols import (
    container_symbols,
    default_blacklist,
    dump_symbols,
    escape_value,
    extract_symbols,
    file_count_matrix,
    file_symbols,
    symbol_kind,
)
from boxtrace.vectorize import count_matrix

from conftest import (
    FIXTURE_CONTAINERS,
    FTYP_MIN,
    NEST_INNER,
    box_spans,
    decoded_walk,
    grown,
    hostile,
    mkbox,
    mkfull,
    mkmvhd,
    moov_nest,
    mvhd_v0_payload,
    rare_forms,
    schema,
)


def parse_bytes(data: bytes):
    return parse_container(io.BytesIO(data), source_id="test")


def field_of(symbol: str) -> str:
    """The field-symbol a symbol belongs to (itself for a field-symbol)."""
    at = symbol.index("@")
    slash = symbol.find("/", at)
    return symbol if slash < 0 else symbol[:slash]


NO_BLACKLIST: frozenset[str] = frozenset()


class TestExtraction:
    def test_ftyp_field_and_value_symbols(self):
        ms = extract_symbols(parse_bytes(FTYP_MIN), NO_BLACKLIST)
        assert ms["ftyp/@majorBrand"] == 1
        assert ms["ftyp/@majorBrand/isom"] == 1

    def test_blacklisted_field_keeps_field_symbol_only(self):
        tree = parse_bytes(FTYP_MIN + mkbox(b"moov", mkmvhd(duration=73432)))
        ms = extract_symbols(tree, default_blacklist())
        assert ms["moov/mvhd/@duration"] == 1
        assert all(not s.startswith("moov/mvhd/@duration/") for s in ms)

    def test_sibling_duplicates_aggregate(self):
        trak = mkbox(b"trak", mkbox(b"tref", bytes(4)))
        tree = parse_bytes(FTYP_MIN + mkbox(b"moov", trak + trak))
        ms = extract_symbols(tree, default_blacklist())
        assert ms["moov/trak/tref/@count"] == 2
        assert ms["moov/trak/tref/@stuff"] == 2

    def test_atoms_emit_no_standalone_symbol(self):
        tree = parse_bytes(FTYP_MIN + mkbox(b"moov", mkmvhd()))
        ms = extract_symbols(tree, NO_BLACKLIST)
        assert all("@" in s for s in ms)

    def test_root_not_in_paths(self):
        ms = extract_symbols(parse_bytes(FTYP_MIN), NO_BLACKLIST)
        assert all(not s.startswith("root") for s in ms)

    def test_value_symbol_paths_have_field_symbols(self):
        tree = parse_bytes(FTYP_MIN + mkbox(b"moov", mkmvhd()))
        ms = extract_symbols(tree, default_blacklist())
        field_paths = {s for s in ms if symbol_kind(s) == "field"}
        for s in ms:
            if symbol_kind(s) == "value":
                assert field_of(s) in field_paths

    def test_field_symbols_at_least_value_symbols(self):
        tree = parse_bytes(FTYP_MIN + mkbox(b"moov", mkmvhd()))
        for blacklist in (NO_BLACKLIST, default_blacklist()):
            ms = extract_symbols(tree, blacklist)
            fields = sum(1 for s in ms if symbol_kind(s) == "field")
            values = sum(1 for s in ms if symbol_kind(s) == "value")
            assert fields >= values

    def test_blacklist_shrink_is_monotone(self):
        tree = parse_bytes(FTYP_MIN + mkbox(b"moov", mkmvhd()))
        full = extract_symbols(tree, default_blacklist())
        smaller = default_blacklist() - {"@timescale"}
        grown = extract_symbols(tree, smaller)
        for s, count in full.items():
            assert grown[s] >= count

    def test_extraction_deterministic(self):
        tree = parse_bytes(FTYP_MIN + mkbox(b"moov", mkmvhd()))
        a = extract_symbols(tree, default_blacklist())
        b = extract_symbols(tree, default_blacklist())
        assert list(a.items()) == list(b.items())


class TestDefaultBlacklist:
    def test_duration_is_blacklisted(self):
        assert "@duration" in default_blacklist()

    def test_count_is_blacklisted(self):
        # The count memo of `file_count_matrix` keys an opaque box by its
        # path and empty payload, without its length, so an opaque box's
        # count must be dropped under the default blacklist.
        assert "@count" in default_blacklist()

    def test_major_brand_is_not(self):
        assert "@majorBrand" not in default_blacklist()

    def test_exactly_21_names(self):
        assert len(default_blacklist()) == 21

    def test_stuff_and_count_suppressed_but_fields_kept(self):
        tree = parse_bytes(FTYP_MIN + mkbox(b"wide"))
        ms = extract_symbols(tree, default_blacklist())
        assert ms["wide/@stuff"] == 1
        assert ms["wide/@count"] == 1
        assert all(symbol_kind(s) == "field" or not s.startswith("wide")
                   for s in ms)


class TestCanonicalForm:
    def test_value_symbol_canonical(self):
        ms = extract_symbols(parse_bytes(FTYP_MIN), NO_BLACKLIST)
        assert "ftyp/@majorBrand/isom" in ms
        assert symbol_kind("ftyp/@majorBrand/isom") == "value"

    def test_field_symbol_canonical(self):
        ms = extract_symbols(parse_bytes(FTYP_MIN), NO_BLACKLIST)
        assert "ftyp/@majorBrand" in ms
        assert symbol_kind("ftyp/@majorBrand") == "field"

    def test_slash_in_value_escaped(self):
        assert escape_value("a/b") == "a\\/b"
        hdlr = mkfull(b"hdlr", 0, 0, bytes(4) + b"vi/d" + bytes(12))
        ms = extract_symbols(parse_bytes(FTYP_MIN + hdlr), NO_BLACKLIST)
        assert ms["hdlr/@handlerType/vi\\/d"] == 1
        assert symbol_kind("hdlr/@handlerType/vi\\/d") == "value"

    def test_backslash_in_value_escaped(self):
        assert escape_value("a\\b") == "a\\\\b"

    @given(st.text(st.characters(min_codepoint=32, max_codepoint=126),
                   max_size=20))
    @settings(max_examples=50)
    def test_escaping_reversible(self, value):
        # Unescape in one left-to-right pass; must restore the original.
        escaped = escape_value(value)
        out, i = [], 0
        while i < len(escaped):
            if escaped[i] == "\\" and i + 1 < len(escaped):
                out.append(escaped[i + 1])
                i += 2
            else:
                out.append(escaped[i])
                i += 1
        assert "".join(out) == value


class TestDump:
    def test_dump_format_and_order(self):
        ms = Counter({"ftyp/@majorBrand/isom": 1, "ftyp/@majorBrand": 2})
        text = dump_symbols(ms)
        assert text.splitlines() == [
            "2\tfield\tftyp/@majorBrand",
            "1\tvalue\tftyp/@majorBrand/isom",
        ]

    def test_symbols_without_field_are_field_kind(self):
        # dump_symbols takes any Counter of strings; one without "@" has
        # no value segment.
        assert dump_symbols(Counter({"a": 1, "base/x": 2})).splitlines() == [
            "1\tfield\ta",
            "2\tfield\tbase/x",
        ]


def old_symbols(tree, blacklist):
    """(path, kind, value) of every symbol, in emission order, as the
    recursive walk over `Symbol` objects made them: the reference that
    string symbols and the kind read back from them are checked against."""
    out = []

    def walk(node, path):
        for fname, fvalue in node.fields:
            out.append((f"{path}/@{fname}", "field", None))
            if f"@{fname}" not in blacklist:
                out.append((f"{path}/@{fname}", "value", fvalue))
        for child in node.children:
            walk(child, f"{path}/{child.name}")

    for child in tree.root.children:
        walk(child, child.name)
    return out


def old_canonical(path, kind, value):
    return f"{path}/{escape_value(value)}" if kind == "value" else path


FIELD_NAMES = st.sampled_from(["majorBrand", "stuff", "count", "rate",
                               "format_1", "userType"])
# Values as the decoders render them: printable ASCII, `/`, `\\` and `@`
# included.
VALUES = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E),
                 max_size=8)


@st.composite
def atom_trees(draw, depth=0):
    name = render_type_code(draw(st.binary(min_size=4, max_size=4)))
    fields = draw(st.lists(st.tuples(FIELD_NAMES, VALUES), max_size=3))
    children = (draw(st.lists(atom_trees(depth=depth + 1), max_size=3))
                if depth < 3 else [])
    return AtomNode(name, None, fields, children)


class TestStringSymbols:
    @given(st.lists(atom_trees(), min_size=1, max_size=3),
           st.sampled_from([NO_BLACKLIST, default_blacklist(),
                            frozenset({"@rate", "@majorBrand"})]))
    @settings(max_examples=200, deadline=None)
    def test_match_the_symbol_object_walk(self, children, blacklist):
        tree = ContainerTree(AtomNode("root", None, [], children), "t")
        reference = old_symbols(tree, blacklist)
        ms = extract_symbols(tree, blacklist)
        canonicals = [old_canonical(*sym) for sym in reference]
        assert ms == Counter(canonicals)
        assert list(ms) == list(dict.fromkeys(canonicals))
        dumped = {(old_canonical(*sym), sym[1]) for sym in reference}
        assert {(s, symbol_kind(s)) for s in ms} == dumped
        lines = dump_symbols(ms).splitlines()
        assert [line.split("\t", 1)[1] for line in lines] == [
            f"{kind}\t{s}" for s, kind in sorted(dumped)]


def tree_outcome(data: bytes, blacklist):
    """Symbols in key order and warnings through the parsed tree, or the
    `ParseError` type and message. Any other exception escapes."""
    try:
        tree = parse_container(io.BytesIO(data))
    except ParseError as exc:
        return type(exc), str(exc)
    return list(extract_symbols(tree, blacklist).items()), tree.warnings


def byte_outcome(data: bytes, blacklist):
    """The same, counted straight from the bytes by `container_symbols`."""
    try:
        symbols, warnings = container_symbols(io.BytesIO(data), blacklist)
    except ParseError as exc:
        return type(exc), str(exc)
    return list(symbols.items()), warnings


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    """Bytes and box offsets of one fixture file per device and class."""
    corpus = generate_corpus(FixtureSpec(seed=7, videos_per_cell=1),
                             tmp_path_factory.mktemp("byte_symbols"))
    files = []
    for row in corpus.rows:
        data = row.path.read_bytes()
        stack = list(parse_container(io.BytesIO(data)).root.children)
        offsets = []
        while stack:
            node = stack.pop()
            offsets.append(node.header.offset)
            stack.extend(node.children)
        files.append((data, sorted(offsets)))
    return files


BLACKLISTS = st.sampled_from([None, NO_BLACKLIST, default_blacklist()])


class TestByteSymbols:
    """`container_symbols` gives what the parsed tree gives, for any bytes."""

    @given(st.booleans(), st.binary(max_size=300), BLACKLISTS)
    @settings(max_examples=300, deadline=None)
    def test_random_bytes(self, after_ftyp, tail, blacklist):
        data = (FTYP_MIN if after_ftyp else b"") + tail
        assert byte_outcome(data, blacklist) == tree_outcome(data, blacklist)

    @given(st.data(), BLACKLISTS)
    @settings(max_examples=300, deadline=None)
    def test_hostile_fixture_variants(self, fixture_files, data, blacklist):
        base, offsets = data.draw(st.sampled_from(fixture_files))
        variant = hostile(data.draw, base, offsets)
        assert byte_outcome(variant, blacklist) \
            == tree_outcome(variant, blacklist)

    @pytest.mark.parametrize("depth", [MAX_NESTING - 1, MAX_NESTING,
                                       MAX_NESTING + 1])
    @pytest.mark.parametrize("inner", NEST_INNER)
    def test_deep_nests(self, depth, inner):
        data = FTYP_MIN + moov_nest(depth, inner)
        expected = tree_outcome(data, None)
        assert byte_outcome(data, None) == expected
        if depth > MAX_NESTING:
            assert expected[0] is NestingTooDeep


def reference_outcome(data: bytes, blacklist):
    """Symbols in key order and warnings, counted from the parsed tree by
    `old_symbols` and `old_canonical`, or the `ParseError` type and
    message."""
    try:
        tree = parse_container(io.BytesIO(data))
    except ParseError as exc:
        return type(exc), str(exc)
    dropped = default_blacklist() if blacklist is None else blacklist
    canonicals = [old_canonical(*sym) for sym in old_symbols(tree, dropped)]
    return list(Counter(canonicals).items()), tree.warnings


# The three blacklists, and one of names the default keeps, a uuid box's
# user type among them.
REFERENCE_BLACKLISTS = BLACKLISTS | st.just(frozenset(
    {"@userType", "@majorBrand", "@compatibleBrand_2", "@format_1",
     "@mediaRate", "@handlerType", "@rate"}))


class TestByteSymbolsMatchReference:
    """`container_symbols`, which renders only the values that become
    symbols, gives what the reference symbol walk gives over a full parse."""

    @given(st.booleans(), st.binary(max_size=300), REFERENCE_BLACKLISTS)
    @settings(max_examples=300, deadline=None)
    def test_random_bytes(self, after_ftyp, tail, blacklist):
        data = (FTYP_MIN if after_ftyp else b"") + tail
        assert byte_outcome(data, blacklist) \
            == reference_outcome(data, blacklist)

    @given(st.data(), REFERENCE_BLACKLISTS)
    @settings(max_examples=300, deadline=None)
    def test_hostile_fixture_variants(self, fixture_files, data, blacklist):
        base, offsets = data.draw(st.sampled_from(fixture_files))
        variant = hostile(data.draw, base, offsets)
        assert byte_outcome(variant, blacklist) \
            == reference_outcome(variant, blacklist)


@pytest.fixture()
def fresh_cache(monkeypatch):
    """An empty box cache for one test; the process's stays as it is."""
    monkeypatch.setattr(symbols_module, "_BOX_SYMBOLS", {})


def all_symbols(files, blacklist):
    """The multisets of `files` through the bytes and through the tree."""
    out = []
    for data, _ in files:
        out.append(container_symbols(io.BytesIO(data), blacklist)[0])
        out.append(extract_symbols(parse_bytes(data), blacklist))
    return out


def built_symbols(path, fields):
    """A box's symbols as `old_symbols` makes them, None for no value."""
    out = []
    for fname, fvalue in fields:
        out.append(f"{path}/@{fname}")
        if fvalue is not None:
            out.append(f"{path}/@{fname}/{escape_value(fvalue)}")
    return out


@pytest.mark.usefixtures("fresh_cache")
class TestSymbolCache:
    """The process's symbols of each distinct box: bounded, each built as
    an uncached one is, and one object per distinct symbol."""

    def test_bounded(self, fixture_files, monkeypatch):
        expected = [list(ms.items())
                    for ms in all_symbols(fixture_files, None)]
        monkeypatch.setattr(symbols_module, "_BOX_SYMBOLS", {})
        monkeypatch.setattr(symbols_module, "_BOX_CACHE_SIZE", 7)
        for _ in range(2):  # the second pass reads from the full cache
            assert [list(ms.items()) for ms in
                    all_symbols(fixture_files, None)] == expected
            assert len(symbols_module._BOX_SYMBOLS) == 7

    @pytest.mark.parametrize("blacklist", [NO_BLACKLIST, ["@count"],
                                           set(default_blacklist()) - {"@name"}])
    def test_other_blacklists_leave_the_cache_unchanged(self, fixture_files,
                                                        blacklist):
        # A pass under another blacklist reads the cache and adds nothing
        # to it, so the default's boxes keep their room.
        all_symbols(fixture_files[:3], None)
        before = dict(symbols_module._BOX_SYMBOLS)
        uncached = all_symbols(fixture_files, blacklist)
        assert symbols_module._BOX_SYMBOLS == before
        symbols_module._BOX_SYMBOLS.clear()
        assert all_symbols(fixture_files, blacklist) == uncached
        assert not symbols_module._BOX_SYMBOLS

    def test_symbols_past_the_bound_equal_uncached(self, fixture_files,
                                                   monkeypatch):
        monkeypatch.setattr(symbols_module, "_BOX_CACHE_SIZE", 0)
        uncached = all_symbols(fixture_files, None)
        assert not symbols_module._BOX_SYMBOLS
        monkeypatch.undo()
        monkeypatch.setattr(symbols_module, "_BOX_SYMBOLS", {})
        for _ in range(2):
            assert [list(ms.items()) for ms in all_symbols(fixture_files, None)] \
                == [list(ms.items()) for ms in uncached]

    def test_cached_strings_are_built_symbols(self, fixture_files):
        all_symbols(fixture_files, NO_BLACKLIST)
        all_symbols(fixture_files, default_blacklist())
        cache = symbols_module._BOX_SYMBOLS
        assert any(None in dict(fields).values() for _, *fields in cache)
        for (path, *fields), symbols in cache.items():
            assert type(symbols) is tuple
            assert list(symbols) == built_symbols(path, fields)

    def test_blacklisted_values_are_not_keys(self, fixture_files):
        # A tree holds every value; its blacklisted ones, durations and
        # timestamps among them, reach the cache as None.
        for data, _ in fixture_files:
            extract_symbols(parse_bytes(data))
        assert symbols_module._BOX_SYMBOLS
        for _, *fields in symbols_module._BOX_SYMBOLS:
            assert all(fvalue is None for fname, fvalue in fields
                       if "@" + fname in default_blacklist())

    def test_long_symbols_are_not_cached(self):
        cap = symbols_module._CACHED_BOX_LEN
        brands = cap // 40  # two symbols of over 40 characters each
        ftyp = mkbox(b"ftyp", b"isom" + bytes(4) + b"isom" * brands)
        hdlr = mkfull(b"hdlr", 0, 0, bytes(4) + b"vide" + bytes(12))
        depth = cap // 25 + 1  # five symbols of over 5 * depth characters
        data = ftyp + mkbox(b"moov", hdlr) + moov_nest(depth, hdlr)
        deep = "moov/" * depth + "hdlr/@handlerType/vide"
        for _ in range(2):
            ms = container_symbols(io.BytesIO(data))[0]
            assert ms[f"ftyp/@compatibleBrand_{brands}/isom"] == ms[deep] == 1
            assert extract_symbols(parse_bytes(data)) == ms
        cache = symbols_module._BOX_SYMBOLS
        assert all(sum(map(len, symbols)) <= cap
                   for symbols in cache.values())
        assert {path for path, *_ in cache} == {"moov/hdlr"}

    # The default blacklist, by default and given; only its walks fill the
    # cache that shares the strings.
    @pytest.mark.parametrize("blacklist", [None, default_blacklist()])
    def test_shared_symbols_are_one_object(self, fixture_files, blacklist):
        # Two files' multisets, each through the bytes and the tree.
        multisets = all_symbols([fixture_files[0], fixture_files[-1]],
                                blacklist)
        shared = multisets[0].keys() & multisets[2].keys()
        assert any(symbol_kind(s) == "value" for s in shared)
        first_seen: dict[str, str] = {}
        for ms in multisets:
            assert all(first_seen.setdefault(s, s) is s for s in ms)


def event_outcome(events):
    """The ``(depth, path, fields)`` of events, or the `ParseError` type
    and message."""
    try:
        return [(depth, path, fields) for depth, path, _, fields in events]
    except ParseError as exc:
        return type(exc), str(exc)


def tree_events_outcome(data: bytes, blacklist):
    try:
        tree = parse_bytes(data)
    except ParseError as exc:
        return type(exc), str(exc)
    return event_outcome(symbols_module._tree_events(tree, blacklist))


# Any set of the names the decoders give, so a blacklist may drop a value
# that the default keeps or keep one that it drops.
DROPPABLE = sorted(default_blacklist() | {
    "@userType", "@majorBrand", "@minorVersion", "@compatibleBrand_0",
    "@compatibleBrand_2", "@format_1", "@handlerType", "@mediaRate",
    "@mediaTime", "@rate", "@volume", "@graphicsMode", "@opColor"})


class TestTreeEventsMatchWalk:
    """`_tree_events` over a parsed tree gives the events of `walk_boxes`
    over the bytes, decoded by `box_fields` with the blacklist as the drop
    set: a value whose name the blacklist holds as None."""

    @given(st.booleans(), st.binary(max_size=300),
           st.sets(st.sampled_from(DROPPABLE)))
    @settings(max_examples=300, deadline=None)
    def test_random_bytes(self, after_ftyp, tail, blacklist):
        data = (FTYP_MIN if after_ftyp else b"") + tail
        assert tree_events_outcome(data, blacklist) == event_outcome(
            decoded_walk(io.BytesIO(data), [], drop=blacklist))

    @given(st.data(), st.sets(st.sampled_from(DROPPABLE)))
    @settings(max_examples=200, deadline=None)
    def test_hostile_fixture_variants(self, fixture_files, data, blacklist):
        base, offsets = data.draw(st.sampled_from(fixture_files))
        variant = hostile(data.draw, base, offsets)
        assert tree_events_outcome(variant, blacklist) == event_outcome(
            decoded_walk(io.BytesIO(variant), [], drop=blacklist))


# Strings that name no symbol of a file, or no box of it.
GARBAGE = st.sets(st.sampled_from([
    "", "ftyp", "moov", "/@", "moov/@x", "ftyp/@majorBrand/nope",
    "moov/trak/tkhd/@absent", "moov/trak", "mdat/@count/7",
]) | st.text(max_size=12), max_size=4)


def restricted_matches_full(data: bytes, blacklist, only) -> None:
    """`container_symbols(..., only=only)` is the full count restricted to
    `only`, in the full count's order, with a subsequence of its warnings;
    or both raise the same `ParseError`."""
    full = byte_outcome(data, blacklist)
    try:
        symbols, warnings = container_symbols(io.BytesIO(data), blacklist,
                                              only=only)
    except ParseError as exc:
        assert (type(exc), str(exc)) == full
        return
    full_items, full_warnings = full
    assert list(symbols.items()) == [(s, n) for s, n in full_items
                                     if s in only]
    rest = iter(full_warnings)
    assert all(w in rest for w in warnings)


class TestRestrictedSymbols:
    """`container_symbols` with `only` decodes only the boxes `only` names
    and gives exactly the full count restricted to it."""

    @given(st.data(), st.booleans(), st.binary(max_size=300), BLACKLISTS)
    @settings(max_examples=300, deadline=None)
    def test_random_bytes(self, data, after_ftyp, tail, blacklist):
        raw = (FTYP_MIN if after_ftyp else b"") + tail
        full = byte_outcome(raw, blacklist)
        known = sorted({s for s, _ in full[0]} if isinstance(full[0], list)
                       else extract_symbols(parse_bytes(FTYP_MIN)))
        only = data.draw(st.sets(st.sampled_from(known))) | data.draw(GARBAGE)
        restricted_matches_full(raw, blacklist, only)

    @given(st.data(), BLACKLISTS)
    @settings(max_examples=300, deadline=None)
    def test_hostile_fixture_variants(self, fixture_files, data, blacklist):
        base, offsets = data.draw(st.sampled_from(fixture_files))
        variant = hostile(data.draw, base, offsets)
        # Symbols of the base file and of the variant, which holds opaque
        # counts where a decoder failed.
        known = set(container_symbols(io.BytesIO(base), NO_BLACKLIST)[0])
        full = byte_outcome(variant, blacklist)
        if isinstance(full[0], list):
            known.update(s for s, _ in full[0])
        only = (data.draw(st.sets(st.sampled_from(sorted(known))))
                | data.draw(GARBAGE))
        restricted_matches_full(variant, blacklist, only)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_valid_rare_forms(self, count_corpora, tmp_path_factory, data):
        # Files with well-formed rare forms below the top level, read from
        # their paths.
        _, base, _ = data.draw(st.sampled_from(count_corpora[7, False]))
        path = tmp_path_factory.getbasetemp() / "restricted_rare.mp4"
        path.write_bytes(data.draw(rare_forms(base)))
        full, full_warnings = file_symbols(str(path))
        only = (data.draw(st.sets(st.sampled_from(sorted(full))))
                | data.draw(GARBAGE))
        symbols, warnings = file_symbols(str(path), only=only)
        assert list(symbols.items()) == [(s, n) for s, n in full.items()
                                         if s in only]
        rest = iter(full_warnings)
        assert all(w in rest for w in warnings)

    def test_only_decodes_the_named_boxes(self):
        # A broken mvhd warns only when a symbol of moov/mvhd is wanted.
        data = FTYP_MIN + mkbox(b"moov", mkbox(b"mvhd", bytes(4)))
        full, full_warnings = container_symbols(io.BytesIO(data))
        assert full["moov/mvhd/@stuff"] == 1 and len(full_warnings) == 1
        symbols, warnings = container_symbols(
            io.BytesIO(data), only={"ftyp/@majorBrand/isom"})
        assert symbols == Counter({"ftyp/@majorBrand/isom": 1})
        assert warnings == []
        symbols, warnings = container_symbols(
            io.BytesIO(data), only={"moov/mvhd/@stuff", "moov/mvhd/@x"})
        assert symbols == Counter({"moov/mvhd/@stuff": 1})
        assert warnings == full_warnings
        assert container_symbols(io.BytesIO(data), only=set()) \
            == (Counter(), [])


@pytest.fixture(scope="module")
def count_corpora(tmp_path_factory):
    """The paths, bytes and box offsets of the files of four fixture
    corpora, seeds 7 and 11, plain and varied, by (seed, varied)."""
    corpora = {}
    for seed in (7, 11):
        for varied in (False, True):
            manifest = generate_corpus(
                FixtureSpec(seed=seed, videos_per_cell=1, varied=varied),
                tmp_path_factory.mktemp(f"count_{seed}_{varied}"))
            files = []
            for row in manifest.rows:
                data = row.path.read_bytes()
                offsets = [header[0] for _, _, header, _
                           in decoded_walk(io.BytesIO(data), [])]
                files.append((str(row.path), data, offsets))
            corpora[seed, varied] = files
    return corpora


def matrix_outcome(count, paths):
    """A count matrix's symbols, dtype, shape and counts, or the type and
    message of the `ParseError` its making raised."""
    try:
        symbols, counts = count(paths)
    except ParseError as exc:
        return type(exc), str(exc)
    return symbols, counts.dtype, counts.shape, counts.tolist()


def multiset_matrix(paths):
    """The count matrix of the files' `file_symbols` multisets."""
    return count_matrix(file_symbols(path)[0] for path in paths)


def file_matrix(paths):
    """`file_count_matrix`'s count row of each path, ``rows[row_of]``,
    after checking that its rows are distinct and numbered in the order of
    their first files."""
    symbols, rows, row_of = file_count_matrix(paths)
    assert len({row.tobytes() for row in rows}) == len(rows)
    assert list(dict.fromkeys(row_of.tolist())) == list(range(len(rows)))
    return symbols, rows[row_of]


class TestFileCountMatrix:
    """`file_count_matrix`, which counts each file's boxes straight into
    columns, gives `count_matrix` of the files' `file_symbols`, or raises
    the error `file_symbols` raises for the first bad file."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_count_matrix_of_file_symbols(self, count_corpora,
                                                 tmp_path_factory, data):
        files = count_corpora[data.draw(st.sampled_from(sorted(count_corpora)),
                                        label="corpus")]
        chosen = data.draw(st.just(files)
                           | st.lists(st.sampled_from(files), min_size=1,
                                      max_size=30), label="files")
        paths = [path for path, _, _ in chosen]
        out = tmp_path_factory.getbasetemp() / "count_variants"
        out.mkdir(exist_ok=True)
        for i in range(data.draw(st.integers(0, 3), label="extra files")):
            if data.draw(st.booleans(), label="hostile"):
                _, base, offsets = data.draw(st.sampled_from(files))
                raw = hostile(data.draw, base, offsets)
            else:  # a file with no symbols
                raw = mkbox(b"moov")
            path = out / f"extra_{i}.mp4"
            path.write_bytes(raw)
            paths.insert(data.draw(st.integers(0, len(paths))), str(path))
        chunk = data.draw(st.sampled_from(
            [1, 2, 3, symbols_module._CHUNK_ROWS]), label="chunk")
        with mock.patch.object(symbols_module, "_CHUNK_ROWS", chunk):
            outcome = matrix_outcome(file_matrix, paths)
        assert outcome == matrix_outcome(multiset_matrix, paths)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_valid_rare_forms(self, count_corpora, tmp_path_factory, data):
        # Seed-7 files with well-formed rare forms below the top level
        # among plain ones.
        files = count_corpora[7, False]
        out = tmp_path_factory.getbasetemp() / "count_rare"
        out.mkdir(exist_ok=True)
        paths = [path for path, _, _ in data.draw(
            st.lists(st.sampled_from(files), max_size=8), label="plain")]
        for i in range(data.draw(st.integers(1, 4), label="rare files")):
            _, base, _ = data.draw(st.sampled_from(files))
            path = out / f"rare_{i}.mp4"
            path.write_bytes(data.draw(rare_forms(base)))
            paths.insert(data.draw(st.integers(0, len(paths))), str(path))
        outcome = matrix_outcome(file_matrix, paths)
        assert outcome == matrix_outcome(multiset_matrix, paths)
        assert isinstance(outcome[0], tuple)

    @pytest.mark.parametrize("bad", ["truncated", "directory", "no symbols"])
    def test_one_bad_file_raises_its_error(self, count_corpora, tmp_path, bad):
        files = [path for path, _, _ in count_corpora[7, False]]
        path = tmp_path / "bad.mp4"
        if bad == "truncated":
            path.write_bytes(Path(files[0]).read_bytes()[:100])
        elif bad == "directory":
            path.mkdir()
        else:  # not a bad file: a row of zeros
            path.write_bytes(mkbox(b"moov"))
        paths = files[:5] + [str(path)] + files[5:]
        outcome = matrix_outcome(file_matrix, paths)
        assert outcome == matrix_outcome(multiset_matrix, paths)
        if bad == "no symbols":
            assert not any(outcome[3][5])
        else:
            assert outcome == matrix_outcome(file_symbols, str(path))

    def test_no_files_is_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            file_count_matrix([])


@contextlib.contextmanager
def watched_memo():
    """A list that takes, after each file `file_count_matrix` walks in the
    context, the columns its memo holds and its room left. The memo's box
    numbers must count up from 0."""
    sizes = []
    real = symbols_module._file_boxes

    def file_boxes(path, column, memo, boxes, room):
        numbers, loose, left = real(path, column, memo, boxes, room)
        assert sorted(memo.values()) == list(range(len(boxes)))
        sizes.append((sum(map(len, boxes)) // 4, left))
        return numbers, loose, left

    with mock.patch.object(symbols_module, "_file_boxes", file_boxes):
        yield sizes


class TestCountMemo:
    """`file_count_matrix` decodes each distinct box once per call, by its
    path and the payload key of its box table entry, and its memo stays
    bounded."""

    def test_good_short_and_unsupported_boxes_of_one_path(self, tmp_path):
        # moov/mvhd holds a good version 0 box, one cut short, one of
        # version 7 and a good version 1 box, each more than once and in
        # more than one file. The refused ones are opaque at each sight.
        good = mkmvhd(timescale=600)
        other = mkfull(b"mvhd", 1, 0, bytes(108))
        short = mkbox(b"mvhd", mvhd_v0_payload()[:50])
        version = mkfull(b"mvhd", 7, 0, bytes(96))
        files = [[good, short, version, good, short],
                 [version, other, good],
                 [short, short, other, version, version]]
        paths = []
        for i, boxes in enumerate(files):
            path = tmp_path / f"mixed_{i}.mp4"
            path.write_bytes(FTYP_MIN + mkbox(b"moov", b"".join(boxes)))
            paths.append(str(path))
        outcome = matrix_outcome(file_matrix, paths)
        assert outcome == matrix_outcome(multiset_matrix, paths)
        symbols, _, _, counts = outcome
        stuff = symbols.index("moov/mvhd/@stuff")
        assert [row[stuff] for row in counts] == [3, 1, 4]

    def test_each_distinct_box_is_decoded_once(self, count_corpora,
                                               monkeypatch):
        paths = [path for path, _, _ in count_corpora[7, False]]
        distinct, boxes = set(), 0
        for path in paths:
            with open(path, "rb") as handle:
                for _, box_path, _, fields in decoded_walk(
                        handle, [], drop=default_blacklist()):
                    if fields:
                        distinct.add((box_path, *fields))
                        boxes += 1
            # A decoded box's box table entry holds its schema's key.
            with open(path, "rb") as handle:
                assert all(
                    entry[4] is schema(entry[1])[0]
                    for _, entry, *_ in walk_boxes(handle, [])
                    if has_schema(entry[1]) and entry[1] != "uuid")
        decoded = []
        real = symbols_module.box_fields

        def counted(*args):
            decoded.append(args[0])
            return real(*args)

        monkeypatch.setattr(symbols_module, "box_fields", counted)
        expected = matrix_outcome(multiset_matrix, paths)
        decoded.clear()
        assert matrix_outcome(file_matrix, paths) == expected
        assert len(decoded) == len(distinct) < boxes
        # With no room, every box is decoded at each sight.
        monkeypatch.setattr(symbols_module, "_MEMO_COLUMNS", 0)
        decoded.clear()
        assert matrix_outcome(file_matrix, paths) == expected
        assert len(decoded) == boxes

    @pytest.mark.parametrize("room", [0, 7, 300])
    def test_memo_bounded_when_no_box_repeats(self, count_corpora,
                                              monkeypatch, room):
        # Every box gets a key of its own; the memo takes boxes
        # only while their columns fit in its room.
        paths = [path for path, _, _ in count_corpora[11, True]]
        expected = matrix_outcome(multiset_matrix, paths)
        unique = itertools.count()
        real_walk = symbols_module.walk_boxes

        def unique_walk(*args):
            for depth, entry, *rest in real_walk(*args):
                identity = entry[4]
                if identity is not None:
                    entry = (*entry[:4], lambda payload, drop: (
                        identity(payload, drop), next(unique)))
                yield depth, entry, *rest

        monkeypatch.setattr(symbols_module, "walk_boxes", unique_walk)
        monkeypatch.setattr(symbols_module, "_MEMO_COLUMNS", room)
        monkeypatch.setattr(symbols_module, "_CHUNK_ROWS", 5)
        with watched_memo() as sizes:
            assert matrix_outcome(file_matrix, paths) == expected
        assert len(sizes) == len(paths)
        for columns, left in sizes:
            assert columns + left == room and left >= 0


def reordered(draw, data: bytes) -> bytes:
    """`data`, a well-formed fixture file, with its top-level boxes after
    the first, or the children of one of its containers, in a drawn order:
    the same boxes, so the same symbols, walked in another order."""
    spans = box_spans(data)
    siblings = [[s for s in spans if not s[4]][1:]] + [
        [s for s in spans if s[4] and s[4][-1] == parent[0]]
        for parent in spans if parent[1] in FIXTURE_CONTAINERS]
    boxes = draw(st.sampled_from([group for group in siblings
                                  if len(group) > 1]))
    order = draw(st.permutations(boxes))
    return (data[:boxes[0][0]] + b"".join(data[s[0]:s[3]] for s in order)
            + data[boxes[-1][3]:])


def duplicated(draw, data: bytes) -> bytes:
    """`data`, a well-formed fixture file, with one of its boxes after the
    first put in again right after itself, and every enclosing size grown:
    the same box keys, one of them once more."""
    box = draw(st.sampled_from(box_spans(data)[1:]))
    return grown(data, box[3], data[box[0]:box[3]], box[4])


def refused(draw, data: bytes) -> bytes:
    """`data`, a well-formed fixture file, with the first payload byte of
    one of its boxes, a full box's version, set to 255 where its schema's
    key then refuses the payload: the box is opaque, and warns."""
    drop = default_blacklist()
    starts = []
    for _, entry, offset, size, header, payload in walk_boxes(
            io.BytesIO(data), []):
        if payload and has_schema(entry[1]) and entry[1] != "uuid":
            try:
                schema(entry[1])[0](b"\xff" + payload[1:], drop)
            except BoxDecodeError:
                starts.append(box_header(entry, offset, size, header)[3])
    at = draw(st.sampled_from(starts))
    return data[:at] + b"\xff" + data[at + 1:]


def drawn_paths(count_corpora, tmp_path_factory, data, min_size=1):
    """Files of one fixture corpus drawn with repeats, among which are put
    files and their copies with their boxes reordered, with a box put in
    twice or with a refused key, some copies twice. Files of one cell
    often share their box keys, and so their rows."""
    files = count_corpora[data.draw(st.sampled_from(sorted(count_corpora)),
                                    label="corpus")]
    paths = [path for path, _, _ in data.draw(
        st.lists(st.sampled_from(files), min_size=min_size, max_size=20),
        label="files")]
    out = tmp_path_factory.getbasetemp() / "row_keying"
    out.mkdir(exist_ok=True)
    for i in range(data.draw(st.integers(0, 4), label="variants")):
        base_path, base, _ = data.draw(st.sampled_from(files))
        variant = data.draw(st.sampled_from([reordered, duplicated, refused]))
        path = out / f"variant_{i}.mp4"
        path.write_bytes(variant(data.draw, base))
        for copy in [base_path] + [str(path)] * data.draw(
                st.integers(1, 2), label="copies"):
            paths.insert(data.draw(st.integers(0, len(paths))), copy)
    return paths


def reference_distinct_rows(counts, groups):
    """The first row of each distinct (group, count row) pair, in row
    order, and how many rows each stands for, rows compared by their
    bytes: the grouping `run_scenario` made before rows had numbers."""
    first: dict[tuple[int, bytes], int] = {}  # pair -> its entry number
    entry_rows: list[int] = []
    entry = np.empty(len(counts), dtype=np.intp)
    for i, (group, row) in enumerate(zip(groups, counts)):
        e = first.setdefault((group, row.tobytes()), len(entry_rows))
        if e == len(entry_rows):
            entry_rows.append(i)
        entry[i] = e
    return (np.array(entry_rows, dtype=np.intp),
            np.bincount(entry, minlength=len(entry_rows)))


class TestRowKeying:
    """`file_count_matrix` keys a file by its box numbers and merges equal
    rows: files that share their boxes, files whose boxes are reordered
    (other numbers, an equal row), files with a refused key (no numbers),
    under a memo with little or no room."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_rows_are_the_distinct_count_rows(self, count_corpora,
                                              tmp_path_factory, data):
        paths = drawn_paths(count_corpora, tmp_path_factory, data)
        room = data.draw(st.sampled_from(
            [0, 1, 6, 40, symbols_module._MEMO_COLUMNS]), label="room")
        chunk = data.draw(st.sampled_from([1, 2, symbols_module._CHUNK_ROWS]),
                          label="chunk")
        with mock.patch.object(symbols_module, "_MEMO_COLUMNS", room), \
                mock.patch.object(symbols_module, "_CHUNK_ROWS", chunk), \
                watched_memo() as sizes:
            outcome = matrix_outcome(file_matrix, paths)
        assert outcome == matrix_outcome(multiset_matrix, paths)
        assert len(sizes) == len(paths)
        for columns, left in sizes:
            assert columns + left == room and left >= 0

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_scenario_entries_equal_bytes_keyed_entries(
            self, count_corpora, tmp_path_factory, data):
        paths = drawn_paths(count_corpora, tmp_path_factory, data, 2)
        kinds = [("iOS", "none"), ("iOS", "ffmpeg"), ("Android", "none")]
        rows = [ManifestRow(f"f{i}.mp4", device, *kind, "none", Path(path))
                for i, (path, device, kind) in enumerate(zip(paths, [
                    "D0", "D1", *data.draw(st.lists(
                        st.sampled_from(["D0", "D1", "D2"]),
                        min_size=len(paths) - 2, max_size=len(paths) - 2),
                        label="devices")], data.draw(st.lists(
                            st.sampled_from(kinds), min_size=len(paths),
                            max_size=len(paths)), label="classes")))]
        trained = []
        real = evaluate_module.train_folds

        def spy(symbols, entries, labels, multiplicity, groups, **options):
            trained.append((symbols, entries.copy(), list(labels),
                            np.asarray(multiplicity).tolist(),
                            np.asarray(groups).tolist()))
            return real(symbols, entries, labels, multiplicity, groups,
                        **options)

        scenario = get_scenario("blind")
        with mock.patch.object(evaluate_module, "train_folds", spy):
            run_scenario(DatasetManifest(Path("manifest.csv"), rows),
                         scenario)
        (symbols, entries, labels, multiplicity, devices), = trained
        expected_symbols, counts = multiset_matrix(paths)
        row_labels = [scenario.label(row) for row in rows]
        classes = sorted(set(row_labels))
        device_names = sorted({row.device for row in rows})
        groups = [device_names.index(row.device) * len(classes)
                  + classes.index(label)
                  for row, label in zip(rows, row_labels)]
        first, expected_multiplicity = reference_distinct_rows(counts, groups)
        assert symbols == expected_symbols
        assert np.array_equal(entries, counts[first])
        assert multiplicity == expected_multiplicity.tolist()
        assert labels == [row_labels[i] for i in first]
        assert devices == [groups[i] // len(classes) for i in first]
