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
import os
import sys
from array import array
from collections import Counter
from itertools import islice
from typing import BinaryIO, Collection, Iterable, Iterator

import numpy as np

from .bmff import (
    ContainerTree,
    box_fields,
    box_header,
    open_box_file,
    walk_boxes,
)
from .vectorize import _scatter_counts

# Value-symbols for these fields carry only intra-class variability
# (durations, dates, byte counts, ...) and are suppressed; their
# field-symbols are always kept.
_DEFAULT_BLACKLIST = frozenset(f"@{name}" for name in (
    "author", "count", "creationTime", "depth", "duration", "entryCount",
    "flags", "gpscoords", "matrix", "modelName", "modificationTime",
    "name", "sampleCount", "segmentDuration", "size", "stuff",
    "timescale", "version", "width", "height", "language",
))


# Files whose symbol occurrences `file_count_matrix` sums in one numpy
# call. 64 `lodo` files hold about 8k occurrences, so each summing array
# stays under glibc's 128 KiB mmap threshold; at 256 files they did not,
# and the `lodo` benchmark's peak RSS rose 0.2 MB at the same speed.
_CHUNK_FILES = 64

# Symbol occurrences whose columns the memo of one `file_count_matrix`
# call keeps, summed over its boxes, so the memo stays bounded when no box
# repeats. The seed-7 `lodo` corpus fills 55 entries with 237 of them.
_MEMO_COLUMNS = 1 << 16

# The symbols of each distinct box, in field order, by its
# (path, *fields), the values of blacklisted fields None. Only walks and
# trees under the default blacklist fill it. Like `bmff`'s
# box table it stops growing at its bound; any other box's symbols
# are built each time it is met, as are those of a box whose symbols
# together exceed `_CACHED_BOX_LEN` characters. The seed-7 fixture
# corpora hold 37 (`triage` training), 55 (`lodo`) and 2073 (`lodo-wide`)
# distinct boxes with fields; the largest, a `tkhd` with every value, has
# 646 characters of symbols. Filled with boxes of the most fields the cap
# allows, the cache takes 16.5 MB (tracemalloc, CPython 3.11). A cached
# symbol is interned, so each distinct one is one string, shared by every
# multiset that holds it; only cached ones are, since CPython 3.12 never
# frees an interned string. The multisets read it; `file_count_matrix`
# does not: it maps each distinct box to its columns in a memo of its own
# call, so training fills no cache that outlives it.
_BOX_SYMBOLS: dict[tuple, tuple[str, ...]] = {}
_BOX_CACHE_SIZE = 4096
_CACHED_BOX_LEN = 1024


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


def _box_symbols(path: str, fields: Iterable[tuple[str, str | None]]
                 ) -> list[str]:
    """The symbols of a box at `path`, in field order: each field's
    field-symbol, then its value-symbol unless its value is None."""
    box: list[str] = []
    for fname, fvalue in fields:
        box.append(f"{path}/@{fname}")
        if fvalue is not None:
            box.append(f"{box[-1]}/{escape_value(fvalue)}")
    return box


def _count_symbols(boxes: Iterable[tuple[str, list]], fill: bool,
                   only: Collection[str] | None = None) -> Counter[str]:
    """The symbols of ``(path, fields)`` boxes, counted in the order given:
    a field gives its field-symbol, and its value-symbol unless its value
    is None. A box with no fields, a container, gives none. With `fill`,
    the box cache takes the symbols of boxes it lacks. With `only`, only
    the symbols in `only` are counted."""
    cache = _BOX_SYMBOLS
    symbols: list[str] = []
    extend = symbols.extend
    for path, fields in boxes:
        if not fields:
            continue
        key = path, *fields
        box = cache.get(key)
        if box is None:
            box = _box_symbols(path, fields)
            if (fill and len(cache) < _BOX_CACHE_SIZE
                    and sum(map(len, box)) <= _CACHED_BOX_LEN):
                box = cache[key] = tuple(map(sys.intern, box))
        extend(box)
    return Counter(symbols if only is None
                   else filter(only.__contains__, symbols))


def _tree_events(tree: ContainerTree,
                 blacklist: Collection[str]) -> Iterator[tuple]:
    """The ``(depth, path, header, fields)`` of each box of a parsed or
    hand-built tree in preorder, a field whose ``@``-prefixed name is in
    `blacklist` with the value None, as `box_fields` gives it with the
    blacklist as its `drop`."""
    stack = [(child, child.name, 0) for child in reversed(tree.root.children)]
    while stack:
        node, path, depth = stack.pop()
        yield depth, path, node.header, [
            (f[0], None) if "@" + f[0] in blacklist else f for f in node.fields]
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
    drop = _DEFAULT_BLACKLIST if blacklist is None else blacklist
    return _count_symbols(((path, fields) for _, path, _, fields
                           in _tree_events(tree, drop)),
                          drop == _DEFAULT_BLACKLIST)


@functools.lru_cache(maxsize=1)
def _decoded_boxes(only: frozenset[str]) -> frozenset[str]:
    """The box paths that `only`'s symbols name: a symbol's box path ends
    where its first field name starts. Kept for the last `only`, so a
    batch that passes one frozenset derives them once."""
    return frozenset(s.partition("/@")[0] for s in only)


def container_symbols(
    stream: BinaryIO | int, blacklist: Collection[str] | None = None,
    only: Collection[str] | None = None,
) -> tuple[Counter[str], list[str]]:
    """The symbols and parse warnings of a seekable byte stream, or of the
    open descriptor of a regular file, as `extract_symbols` and
    `parse_container` give them, with no tree built. `box_fields` is
    passed the blacklist, as a frozenset, as its `drop` set, so only the
    values that become symbols are rendered. Under the default blacklist,
    each symbol is the process's one string for it while the box cache
    has room.

    With `only`, the symbols are those of the full count that are in
    `only`. Only the boxes they name are decoded, and only those reach
    the count: the walk yields no event for any other box (see
    `walk_boxes`), though it still checks every header.
    """
    warnings: list[str] = []
    # A frozenset finds the decoders' plans for its drop set.
    drop = _DEFAULT_BLACKLIST if blacklist is None else frozenset(blacklist)
    events = walk_boxes(stream, warnings, None if only is None
                        else _decoded_boxes(frozenset(only)))
    return _count_symbols(
        ((entry[0], box_fields(box_header(entry, offset, size, header),
                               payload, drop, warnings))
         for _, entry, offset, size, header, payload in events
         if payload is not None),
        drop == _DEFAULT_BLACKLIST, only), warnings


def file_symbols(
    path: str, only: Collection[str] | None = None,
) -> tuple[Counter[str], list[str]]:
    """Open `path` and return its symbols and parse warnings, as
    `container_symbols` gives them with the default blacklist."""
    fd = open_box_file(path)
    try:
        return container_symbols(fd, only=only)
    finally:
        os.close(fd)


def file_count_matrix(paths: Iterable[str]
                      ) -> tuple[tuple[str, ...], np.ndarray]:
    """The `count_matrix` of the files' `file_symbols` multisets, one row
    per path, counted straight into columns with no multiset built.

    Each box is looked up by its path and the identity of its payload
    that its box table entry gives (see `bmff._BOXES`), and decoded
    only on the first sight of that identity in the call, when its
    symbols' columns are noted. A box whose decode warns is decoded, and
    warns, at each sight. The files are read `_CHUNK_FILES` at a time,
    and only each row's distinct columns and counts are kept. A file that
    does not parse raises the `ParseError` that `file_symbols` raises for
    it.
    """
    column: dict[str, int] = {}  # symbol -> column, in first-seen order
    memo: dict[tuple, tuple[int, ...]] = {}  # (path, identity) -> columns
    room = _MEMO_COLUMNS
    seen, values, lengths = array("i"), array("i"), []  # entries, per row
    paths = iter(paths)
    while chunk := list(islice(paths, _CHUNK_FILES)):
        room = _count_chunk(chunk, column, memo, room, seen, values, lengths)
    return _scatter_counts(column, seen, values, lengths)


def _count_chunk(paths: list[str], column: dict[str, int],
                 memo: dict[tuple, tuple[int, ...]], room: int,
                 seen: array, values: array, lengths: list[int]) -> int:
    """Append the rows of the files at `paths` to the entry buffers, and
    return the memo's room left. The files' symbol occurrences are
    gathered as column numbers, file after file, and summed per row in
    numpy; they go when it returns. A box's payload identity keys its
    fields under the default blacklist, which drops an opaque box's
    count, so its payload length is not part of the key."""
    occurrences: list[int] = []
    sizes: list[int] = []  # occurrences per file
    drop = _DEFAULT_BLACKLIST
    for path in paths:
        before = len(occurrences)
        warnings: list[str] = []
        fd = open_box_file(path)
        try:
            for _, entry, offset, size, header, payload in walk_boxes(
                    fd, warnings):
                if payload is None:  # a container
                    continue
                key = entry[0], entry[4](payload, drop)
                columns = memo.get(key)
                if columns is None:
                    warned = len(warnings)
                    columns = tuple(
                        column.setdefault(s, len(column))
                        for s in _box_symbols(entry[0], box_fields(
                            box_header(entry, offset, size, header), payload,
                            drop, warnings)))
                    if len(warnings) == warned and len(columns) <= room:
                        memo[key] = columns
                        room -= len(columns)
                occurrences += columns
        finally:
            os.close(fd)
        sizes.append(len(occurrences) - before)
    width = max(len(column), 1)
    cells = (np.repeat(np.arange(len(paths), dtype=np.int64), sizes) * width
             + np.array(occurrences, dtype=np.int64))  # row * width + column
    cells, counts = np.unique(cells, return_counts=True)
    seen.frombytes((cells % width).astype(np.intc).tobytes())
    values.frombytes(counts.astype(np.intc).tobytes())
    lengths += np.bincount(cells // width, minlength=len(paths)).tolist()
    return room


def dump_symbols(symbols: Counter[str]) -> str:
    """One symbol per line: ``<count>\\t<kind>\\t<symbol>``, sorted by
    symbol."""
    return "".join(f"{symbols[s]}\t{symbol_kind(s)}\t{s}\n"
                   for s in sorted(symbols))
