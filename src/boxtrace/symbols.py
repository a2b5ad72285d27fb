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


def escape_value(value: str) -> str:
    """Escape a value for use as the final path segment."""
    return value.replace("\\", "\\\\").replace("/", "\\/")


def default_blacklist() -> frozenset[str]:
    """The ``@``-prefixed field names whose value-symbols are dropped by
    default: noisy per-file field values."""
    return _DEFAULT_BLACKLIST


def symbol_kind(symbol: str) -> str:
    """``"value"`` for a value-symbol, ``"field"`` for a field-symbol."""
    return "value" if "/" in symbol.partition("@")[2] else "field"


def _count_symbols(events: Iterable[tuple], blacklist: frozenset[str] | None
                   ) -> Counter[str]:
    """The symbols of `walk_boxes` events, counted in the order given."""
    if blacklist is None:
        blacklist = _DEFAULT_BLACKLIST
    symbols: list[str] = []
    for _, path, _, fields in events:
        for fname, fvalue in fields:
            field_symbol = f"{path}/@{fname}"
            symbols.append(field_symbol)
            if "@" + fname not in blacklist:
                symbols.append(f"{field_symbol}/{escape_value(fvalue)}")
    return Counter(symbols)


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
    return _count_symbols(_tree_events(tree), blacklist)


def container_symbols(
    stream: BinaryIO, blacklist: frozenset[str] | None = None,
    only: Collection[str] | None = None,
) -> tuple[Counter[str], list[str]]:
    """The symbols and parse warnings of a seekable byte stream, as
    `extract_symbols` and `parse_container` give them, with no tree built.

    With `only`, the symbols are those of the full count that are in
    `only`. Only the boxes they name are decoded, and only those reach
    the count: the walk yields no event for any other box (see
    `walk_boxes`), though it still checks every header.
    """
    warnings: list[str] = []
    if only is None:
        return _count_symbols(walk_boxes(stream, warnings), blacklist), warnings
    # A symbol's box path ends where its first field name starts.
    boxes = {s.partition("/@")[0] for s in only}
    counted = _count_symbols(walk_boxes(stream, warnings, boxes), blacklist)
    return Counter({s: n for s, n in counted.items() if s in only}), warnings


def file_symbols(
    path: str, blacklist: frozenset[str] | None = None,
    only: Collection[str] | None = None,
) -> tuple[Counter[str], list[str]]:
    """Open `path` and return its symbols and parse warnings. With `only`,
    the symbols are restricted to `only`, and the warnings cover only the
    box structure and the boxes those symbols name."""
    with open_box_file(path) as handle:
        return container_symbols(handle, blacklist, only)


def dump_symbols(symbols: Counter[str]) -> str:
    """One symbol per line: ``<count>\\t<kind>\\t<symbol>``, sorted by
    symbol."""
    return "".join(f"{symbols[s]}\t{symbol_kind(s)}\t{s}\n"
                   for s in sorted(symbols))
