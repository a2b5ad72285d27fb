"""Fixed-length count vectors over a global symbol vocabulary, and the
files x symbols count matrix that training selects rows and columns from."""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyCorpus


@dataclass(frozen=True)
class Vocabulary:
    """Lexicographically ordered set of canonical symbol strings."""

    symbols: tuple[str, ...]
    index: dict[str, int] = field(compare=False, hash=False, default_factory=dict)

    @classmethod
    def from_strings(cls, strings: Iterable[str]) -> "Vocabulary":
        ordered = tuple(sorted(set(strings)))
        return cls(ordered, {s: i for i, s in enumerate(ordered)})

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, canonical: str) -> bool:
        return canonical in self.index


@dataclass
class FeatureVector:
    """Sparse count vector with dense semantics of length `size`."""

    size: int
    counts: dict[int, int] = field(default_factory=dict)

    def get(self, i: int) -> int:
        return self.counts.get(i, 0)

    def l1(self) -> int:
        return sum(self.counts.values())

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.size, dtype=np.int64)
        for i, c in self.counts.items():
            dense[i] = c
        return dense

    @classmethod
    def from_dense(cls, row: np.ndarray) -> "FeatureVector":
        """The vector holding the nonzero entries of a dense count row."""
        nonzero = np.flatnonzero(row)
        return cls(size=len(row),
                   counts=dict(zip(nonzero.tolist(), row[nonzero].tolist())))


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


def vectorize(ms: Counter[str], vocab: Vocabulary) -> FeatureVector:
    """Count vector of `ms` over `vocab`; out-of-vocabulary symbols drop."""
    index = vocab.index
    counts = {index[s]: count for s, count in ms.items() if s in index}
    return FeatureVector(size=len(vocab), counts=counts)


def count_matrix(
    corpus: Sequence[Counter[str]], vocab: Vocabulary | None = None
) -> CountMatrix:
    """One row per symbol multiset, over `vocab` (symbols outside it drop)
    or, by default, over the union of their symbols. Entries with a zero
    count are absent."""
    if not corpus:
        raise EmptyCorpus("cannot build a count matrix from an empty corpus")
    # Each distinct symbol string is kept once; entries refer to it by the
    # order in which it was first seen, or by its place in `vocab`.
    first_seen: dict[str, int] = {} if vocab is None else dict(vocab.index)
    rows, seen, values = array("i"), array("i"), array("i")
    for i, ms in enumerate(corpus):
        for s, count in ms.items():
            if not count:
                continue
            j = (first_seen.setdefault(s, len(first_seen))
                 if vocab is None else first_seen.get(s))
            if j is not None:
                rows.append(i)
                seen.append(j)
                values.append(count)
    symbols = sorted(first_seen)
    column = np.empty(len(symbols), dtype=np.intp)
    column[[first_seen[s] for s in symbols]] = np.arange(len(symbols))
    counts = np.zeros((len(corpus), len(symbols)), dtype=np.int32)
    np.add.at(counts, (np.frombuffer(rows, dtype=np.intc),
                       column[np.frombuffer(seen, dtype=np.intc)]),
              np.frombuffer(values, dtype=np.intc))
    return CountMatrix(tuple(symbols), counts)
