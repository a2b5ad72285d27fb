"""Count rows over a symbol vocabulary, and the files x symbols count
matrix that training selects rows and columns from."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyCorpus


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


@dataclass(frozen=True, eq=False)
class CountMatrix:
    """Occurrence counts of every symbol in every file of a corpus.

    The columns are the symbols with a nonzero count in some row, in
    lexicographic order, so they are the corpus's vocabulary.
    """

    symbols: tuple[str, ...]
    counts: np.ndarray  # int32, files x symbols

    def take(self, rows: Sequence[int]) -> "CountMatrix":
        """The matrix of a subset of the files: the chosen rows, over the
        columns that have a nonzero count in them."""
        counts = self.counts[np.asarray(rows, dtype=np.intp)]
        used = np.flatnonzero(counts.any(axis=0))
        return CountMatrix(tuple(self.symbols[j] for j in used),
                           counts[:, used])


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


def count_matrix(corpus: Sequence[Counter[str]]) -> CountMatrix:
    """One row per symbol multiset, over the union of their symbols.
    Entries with a zero count are absent."""
    if not corpus:
        raise EmptyCorpus("cannot build a count matrix from an empty corpus")
    symbols = sorted({s for ms in corpus for s, count in ms.items() if count})
    column = {s: j for j, s in enumerate(symbols)}
    counts = np.zeros((len(corpus), len(symbols)), dtype=np.int32)
    for row, ms in zip(counts, corpus):
        for s, count in ms.items():
            if count:
                row[column[s]] = count
    return CountMatrix(tuple(symbols), counts)
