"""Count rows over a symbol vocabulary, and the files x symbols count
matrix that training selects rows and columns from."""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, EmptyCorpus


@dataclass(frozen=True)
class Vocabulary:
    """Lexicographically ordered set of canonical symbol strings."""

    symbols: tuple[str, ...]
    index: dict[str, int] = field(init=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "index",
                           {s: i for i, s in enumerate(self.symbols)})

    @classmethod
    def from_strings(cls, strings: Iterable[str]) -> "Vocabulary":
        return cls(tuple(sorted(set(strings))))

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, canonical: str) -> bool:
        return canonical in self.index


def build_vocabulary(corpus: Sequence[Counter[str]]) -> Vocabulary:
    """Union of all symbols across the corpus, lexicographically ordered."""
    if not corpus:
        raise EmptyCorpus("cannot build a vocabulary from an empty corpus")
    strings: set[str] = set()
    for ms in corpus:
        strings.update(ms)
    return Vocabulary.from_strings(strings)


def vectorize(ms: Counter[str], vocab: Vocabulary) -> list[int]:
    """Count row of `ms` over `vocab`; out-of-vocabulary symbols drop.
    The row is filled from the items of `ms`, so its Python work tracks
    the file's symbols, not the size of the vocabulary."""
    row = [0] * len(vocab.symbols)
    index = vocab.index
    for s, count in ms.items():
        j = index.get(s)
        if j is not None:
            row[j] = count
    return row


def count_matrix(corpus: Iterable[Counter[str]]
                 ) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted union of the multisets' nonzero symbols, and their int32
    files x symbols counts. `corpus` is read once, and of each multiset
    only its column numbers and counts are kept, with one string per
    distinct symbol, so a generator's multisets can go row by row. A
    count that does not fit in int32 raises `DataError`, as
    `tree.encode_counts` does."""
    column: dict[str, int] = {}  # symbol -> column, in first-seen order
    seen, values, lengths = array("i"), array("i"), []  # entries, per row
    for ms in corpus:
        # A list append costs less than an array's: gather the row first.
        row_columns, row_counts = [], []
        for s, count in ms.items():
            if count:
                row_columns.append(column.setdefault(s, len(column)))
                row_counts.append(count)
        try:
            values.fromlist(row_counts)
        except OverflowError:
            s, count = next((s, c) for s, c in ms.items()
                            if not -2**31 <= c < 2**31)
            raise DataError(f"count {count} of {s!r} does not fit in "
                            f"int32") from None
        seen.fromlist(row_columns)
        lengths.append(len(row_columns))
    return _scatter_counts(column, seen, values, lengths)


def _scatter_counts(column: dict[str, int], seen: array, values: array,
                    lengths: Sequence[int]
                    ) -> tuple[tuple[str, ...], np.ndarray]:
    """The count matrix of entries gathered row by row: `column` numbers
    each symbol in first-seen order, and `seen` and `values` hold each
    row's distinct columns and their nonzero counts, `lengths` how many
    entries each row has. Columns are ranked by sorted symbol."""
    if not lengths:
        raise EmptyCorpus("cannot build a count matrix from an empty corpus")
    rank = {s: j for j, s in enumerate(sorted(column))}
    sorted_column = np.array([rank[s] for s in column], dtype=np.intc)
    counts = np.zeros((len(lengths), len(rank)), dtype=np.int32)
    rows = np.repeat(np.arange(len(lengths), dtype=np.intc), lengths)
    counts[rows, sorted_column[np.frombuffer(seen, dtype=np.intc)]] = \
        np.frombuffer(values, dtype=np.intc)
    return tuple(rank), counts
