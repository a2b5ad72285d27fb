"""Pairwise log-likelihood-ratio filtering of the symbol vocabulary.

A symbol survives only if some ordered class pair gives it a
log-likelihood ratio above the threshold; everything else is treated as
intra-class noise and removed. Frequencies are per-container presence
rates with add-one smoothing on numerator and denominator, so every
ratio is finite.

The maximum over ordered pairs is taken in closed form, as the log of
the largest class frequency minus the log of the smallest.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import EmptyClass, SingleClass, UnknownClass
from .tree import _is_finite, encode_counts
from .vectorize import Vocabulary, vectorize

DEFAULT_TAU = 0.5


@dataclass(frozen=True)
class FilterConfig:
    """Threshold for the symbol filter (log base e) and the one statement
    of its range: `tau` is a number above 0, as `TreeParams` defines a
    number, stored as a plain `float`; any other raises `ValueError`."""

    tau: float = DEFAULT_TAU

    def __post_init__(self) -> None:
        if not (_is_finite(self.tau) and self.tau > 0):
            raise ValueError(
                f"tau must be a finite number above 0, got {self.tau!r}")
        object.__setattr__(self, "tau", float(self.tau))


@dataclass
class ClassFrequencyTable:
    """Per-class container counts and per-symbol presence counts."""

    classes: list[str]
    sizes: dict[str, int]
    present: dict[str, dict[str, int]]  # class -> canonical symbol -> count

    def frequency(self, canonical: str, cls: str) -> float:
        if cls not in self.sizes:
            raise UnknownClass(f"class {cls!r} not in frequency table")
        k = self.present[cls].get(canonical, 0)
        return (k + 1) / (self.sizes[cls] + 1)


@dataclass(frozen=True)
class LLRRecord:
    symbol: str
    best_pair: tuple[str, str]
    max_llr: float
    kept: bool


@dataclass
class LLRReport:
    tau: float
    records: list[LLRRecord] = field(default_factory=list)

    def kept_symbols(self) -> list[str]:
        return [r.symbol for r in self.records if r.kept]


def class_frequency(
    corpus: Sequence[tuple[Counter[str], str]],
    classes: Sequence[str] | None = None,
) -> ClassFrequencyTable:
    """Presence counts of every symbol per class, with class sizes."""
    seen_labels = {label for _, label in corpus}
    if classes is None:
        ordered = sorted(seen_labels)
    else:
        ordered = sorted(set(classes))
        missing = [c for c in ordered if c not in seen_labels]
        if missing:
            raise EmptyClass(f"classes without samples: {', '.join(missing)}")
    if len(ordered) < 2:
        raise SingleClass(f"need at least 2 classes, got {len(ordered)}")
    sizes = {c: 0 for c in ordered}
    present: dict[str, dict[str, int]] = {c: {} for c in ordered}
    for ms, label in corpus:
        if label not in sizes:
            raise UnknownClass(f"sample labeled {label!r} outside class set")
        sizes[label] += 1
        bucket = present[label]
        for s in ms:
            bucket[s] = bucket.get(s, 0) + 1
    return ClassFrequencyTable(classes=ordered, sizes=sizes, present=present)


def llr(canonical: str, cu: str, cv: str, table: ClassFrequencyTable) -> float:
    """ln of the smoothed presence-frequency ratio between two classes."""
    return math.log(table.frequency(canonical, cu)) - math.log(
        table.frequency(canonical, cv))


def class_presence(counts: np.ndarray, y: np.ndarray, n_classes: int,
                   multiplicity: np.ndarray | None = None) -> np.ndarray:
    """K x V table of how many files of each class contain each column:
    row i of `counts` is a file of class ``y[i]``, or ``multiplicity[i]``
    such files. ``onehot(y).T @ (counts > 0)``, weighted, summed class by
    class so that no int64 copy of the matrix is made: `np.einsum` casts
    the presence rows in buffered chunks."""
    present = counts > 0
    m = np.ones(len(y), dtype=np.intp) if multiplicity is None \
        else multiplicity
    return np.stack([np.einsum("i,ij->j", m[y == c], present[y == c])
                     for c in range(n_classes)])


def pairwise_llr(
    presence: np.ndarray, sizes: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximum LLR over ordered class pairs for every column of a K x V
    presence table (K >= 2), with the class indices of the pair achieving
    it.

    Each log frequency is ``math.log((k + 1) / (n + 1))``, as in `llr`.
    Float subtraction rounds monotonically, so ``log f_max - log f_min``
    has the same bits as the largest pairwise difference. The pair is the
    one the ordered enumeration ``(c_i, c_j), (c_j, c_i)`` for ``i < j``
    meets first: the first maximum over the first minimum, or ``(c0, c1)``
    when every class has the same frequency. Distinct smoothed
    frequencies differ in log by far more than one rounding step, so only
    exact ties can share the maximum.
    """
    logs = np.empty(presence.shape, dtype=np.float64)
    for c, n in enumerate(sizes):
        ks, inverse = np.unique(presence[c], return_inverse=True)
        logs[c] = np.array([math.log((int(k) + 1) / (int(n) + 1))
                            for k in ks])[inverse]
    hi, lo = logs.argmax(axis=0), logs.argmin(axis=0)
    columns = np.arange(logs.shape[1])
    best = logs[hi, columns] - logs[lo, columns]
    tied = best == 0
    hi[tied], lo[tied] = 0, 1
    return best, hi, lo


def llr_report(symbols: Sequence[str], counts: np.ndarray,
               labels: Sequence[str], cfg: FilterConfig) -> LLRReport:
    """Max pairwise LLR, best pair and keep decision of every column of a
    training count matrix: `counts` has one column per symbol of
    `symbols` and one row per label of `labels` (see `encode_counts`)."""
    counts, y, _, classes = encode_counts(counts, labels, len(symbols))
    if len(classes) < 2:
        raise SingleClass(f"need at least 2 classes, got {len(classes)}")
    best, hi, lo = pairwise_llr(class_presence(counts, y, len(classes)),
                                np.bincount(y, minlength=len(classes)))
    report = LLRReport(tau=cfg.tau)
    for canonical, value, i, j in zip(symbols, best.tolist(),
                                      hi.tolist(), lo.tolist()):
        report.records.append(LLRRecord(canonical, (classes[i], classes[j]),
                                        value, value > cfg.tau))
    return report


def filter_vocabulary(
    vocab: Vocabulary,
    corpus: Sequence[tuple[Counter[str], str]],
    cfg: FilterConfig | None = None,
) -> tuple[Vocabulary, LLRReport]:
    """Keep the symbols whose best pairwise LLR exceeds the threshold."""
    if cfg is None:
        cfg = FilterConfig()
    counts = np.array([vectorize(ms, vocab) for ms, _ in corpus],
                      dtype=np.int32).reshape(len(corpus), len(vocab))
    report = llr_report(vocab.symbols, counts,
                        [label for _, label in corpus], cfg)
    return Vocabulary.from_strings(report.kept_symbols()), report


def report_tsv(report: LLRReport) -> str:
    """TSV rows: symbol, best pair, LLR, tau, kept; sorted by descending LLR."""
    lines = ["symbol\tbest_pair\tllr\ttau\tkept\n"]
    ordered = sorted(report.records, key=lambda r: (-abs(r.max_llr), r.symbol))
    for rec in ordered:
        lines.append(
            f"{rec.symbol}\t{rec.best_pair[0]} vs {rec.best_pair[1]}\t"
            f"{rec.max_llr:.6f}\t{report.tau:g}\t{'yes' if rec.kept else 'no'}\n")
    return "".join(lines)
