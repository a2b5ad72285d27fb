"""Conversion of a file's boxes into a multiset of path symbols.

A symbol is a plain string. A field-symbol is the path from below the
root to a field name, ``moov/mvhd/@rate``; a value-symbol extends it with
the field's escaped value, ``moov/mvhd/@rate/1``. A file's symbols are a
``Counter`` of these strings. Two sibling boxes with the same name produce
identical paths, so multiplicity lives in the counts, never in the path.

Box names never hold ``/``, ``@`` or ``\\`` (`render_type_code` escapes
them) and values never hold an unescaped ``/``, so the kind of a symbol
can be read back from its string: the first ``@`` starts the field name,
and a ``/`` after it starts a value.
"""

from __future__ import annotations

import functools
from collections import Counter
from typing import BinaryIO, Collection, Iterable, Iterator

from .bmff import ContainerTree, open_box_file, walk_boxes

# Value-symbols for these fields carry only intra-class variability
# (durations, dates, byte counts, ...) and are suppressed; their
# field-symbols are always kept.
_DEFAULT_BLACKLIST = frozenset(f"@{name}" for name in (
    "author", "count", "creationTime", "depth", "duration", "entryCount",
    "flags", "gpscoords", "matrix", "modelName", "modificationTime",
    "name", "sampleCount", "segmentDuration", "size", "stuff",
    "timescale", "version", "width", "height", "language",
))


# One string per distinct symbol, shared by every multiset the process
# counts: field-symbols by (box path, field name), value-symbols by
# (field-symbol, value). Like `bmff`'s type-code cache, each dict stops
# growing at its bound; any other symbol is built each time it is met, as
# is a symbol longer than `_CACHED_SYMBOL_LEN` characters. The bounds cover
# the ~4.2k distinct symbols of 24 devices with 4096 extra opaque boxes.
# An entry holds a pair and at most 128 characters of strings besides the
# symbol, so filled with the longest symbols they take 525 and 494 bytes
# an entry, 6.3 MB in all (tracemalloc, CPython 3.11).
_FIELD_SYMBOLS: dict[tuple[str, str], str] = {}
_FIELD_SYMBOL_CACHE_SIZE = 8192
_VALUE_SYMBOLS: dict[tuple[str, str], str] = {}
_VALUE_SYMBOL_CACHE_SIZE = 4096
_CACHED_SYMBOL_LEN = 128


def escape_value(value: str) -> str:
    """Escape a value for use as the final path segment."""
    if "/" in value or "\\" in value:
        return value.replace("\\", "\\\\").replace("/", "\\/")
    return value


def default_blacklist() -> frozenset[str]:
    """The ``@``-prefixed field names whose value-symbols are dropped by
    default: noisy per-file field values."""
    return _DEFAULT_BLACKLIST


def symbol_kind(symbol: str) -> str:
    """``"value"`` for a value-symbol, ``"field"`` for a field-symbol."""
    return "value" if "/" in symbol.partition("@")[2] else "field"


def _count_symbols(events: Iterable[tuple],
                   blacklist: frozenset[str] = frozenset(),
                   only: Collection[str] | None = None) -> Counter[str]:
    """The symbols of `walk_boxes` events, counted in the order given. A
    field gives its field-symbol, and its value-symbol unless its value is
    None or its ``@``-prefixed name is in `blacklist`. With `only`, only
    the symbols in `only` are counted."""
    field_symbols, value_symbols = _FIELD_SYMBOLS, _VALUE_SYMBOLS
    symbols: list[str] = []
    append = symbols.append
    for _, path, _, fields in events:
        for fname, fvalue in fields:
            key = path, fname
            field_symbol = field_symbols.get(key)
            if field_symbol is None:
                field_symbol = f"{path}/@{fname}"
                if (len(field_symbols) < _FIELD_SYMBOL_CACHE_SIZE
                        and len(field_symbol) <= _CACHED_SYMBOL_LEN):
                    field_symbols[key] = field_symbol
            append(field_symbol)
            if fvalue is None or blacklist and "@" + fname in blacklist:
                continue
            key = field_symbol, fvalue
            value_symbol = value_symbols.get(key)
            if value_symbol is None:
                value_symbol = f"{field_symbol}/{escape_value(fvalue)}"
                if (len(value_symbols) < _VALUE_SYMBOL_CACHE_SIZE
                        and len(value_symbol) <= _CACHED_SYMBOL_LEN):
                    value_symbols[key] = value_symbol
            append(value_symbol)
    return Counter(symbols if only is None
                   else filter(only.__contains__, symbols))


def _tree_events(tree: ContainerTree) -> Iterator[tuple]:
    """The `walk_boxes` events of a parsed or hand-built tree."""
    stack = [(child, child.name, 0) for child in reversed(tree.root.children)]
    while stack:
        node, path, depth = stack.pop()
        yield depth, path, node.header, node.fields
        for child in reversed(node.children):
            stack.append((child, f"{path}/{child.name}", depth + 1))


def extract_symbols(
    tree: ContainerTree, blacklist: frozenset[str] | None = None
) -> Counter[str]:
    """Count the field- and value-symbols of every field of every node.

    `blacklist` holds ``@``-prefixed field names whose value-symbols are
    dropped (default: `default_blacklist()`). Atom nodes themselves
    produce no standalone symbol; opaque nodes are reached through their
    `stuff`/`count` fields. Counts aggregate across sibling duplicates.
    """
    return _count_symbols(_tree_events(tree), _DEFAULT_BLACKLIST
                          if blacklist is None else blacklist)


@functools.lru_cache(maxsize=1)
def _decoded_boxes(only: frozenset[str]) -> frozenset[str]:
    """The box paths that `only`'s symbols name: a symbol's box path ends
    where its first field name starts. Kept for the last `only`, so a
    batch that passes one frozenset derives them once."""
    return frozenset(s.partition("/@")[0] for s in only)


def container_symbols(
    stream: BinaryIO, blacklist: frozenset[str] | None = None,
    only: Collection[str] | None = None,
) -> tuple[Counter[str], list[str]]:
    """The symbols and parse warnings of a seekable byte stream, as
    `extract_symbols` and `parse_container` give them, with no tree built.
    The walk is passed the blacklist as its `drop` set, so only the values
    that become symbols are rendered, and each symbol is the process's one
    string for it while the symbol caches have room.

    With `only`, the symbols are those of the full count that are in
    `only`. Only the boxes they name are decoded, and only those reach
    the count: the walk yields no event for any other box (see
    `walk_boxes`), though it still checks every header.
    """
    warnings: list[str] = []
    drop = _DEFAULT_BLACKLIST if blacklist is None else blacklist
    if only is None:
        return _count_symbols(walk_boxes(stream, warnings, None, drop)), warnings
    boxes = _decoded_boxes(frozenset(only))
    return (_count_symbols(walk_boxes(stream, warnings, boxes, drop),
                           only=only), warnings)


def file_symbols(
    path: str, only: Collection[str] | None = None,
) -> tuple[Counter[str], list[str]]:
    """Open `path` and return its symbols and parse warnings, as
    `container_symbols` gives them with the default blacklist."""
    with open_box_file(path) as handle:
        return container_symbols(handle, only=only)


def dump_symbols(symbols: Counter[str]) -> str:
    """One symbol per line: ``<count>\\t<kind>\\t<symbol>``, sorted by
    symbol."""
    return "".join(f"{symbols[s]}\t{symbol_kind(s)}\t{s}\n"
                   for s in sorted(symbols))
