"""Log-likelihood-ratio frequencies, filtering, and their invariants."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxtrace.errors import EmptyClass, SingleClass, UnknownClass
from boxtrace.llr import (
    ClassFrequencyTable,
    FilterConfig,
    LLRRecord,
    class_frequency,
    filter_vocabulary,
    llr,
    pairwise_llr,
    report_tsv,
)
from boxtrace.vectorize import Vocabulary, build_vocabulary


def ms_of(paths):
    return Counter(paths)


def corpus_with_presence(n_u: int, k_u: int, n_v: int, k_v: int, path="s"):
    """Class U: n_u containers, k_u containing `path`; likewise class V."""
    samples = []
    for i in range(n_u):
        samples.append((ms_of([path] if i < k_u else ["base"]), "U"))
    for i in range(n_v):
        samples.append((ms_of([path] if i < k_v else ["base"]), "V"))
    return samples


class TestClassFrequency:
    def test_smoothed_presence_fraction(self):
        table = class_frequency(corpus_with_presence(4, 3, 2, 0))
        assert table.frequency("s", "U") == pytest.approx(4 / 5)
        assert table.frequency("s", "V") == pytest.approx(1 / 3)

    def test_full_presence_is_one(self):
        table = class_frequency(corpus_with_presence(5, 5, 2, 1))
        assert table.frequency("s", "U") == pytest.approx(1.0)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            class_frequency([(ms_of(["s"]), "U"), (ms_of(["s"]), "U")])

    def test_explicit_empty_class_rejected(self):
        with pytest.raises(EmptyClass):
            class_frequency([(ms_of(["s"]), "U"), (ms_of(["s"]), "V")],
                            classes=["U", "V", "W"])

    def test_unknown_class_in_lookup(self):
        table = class_frequency(corpus_with_presence(2, 1, 2, 1))
        with pytest.raises(UnknownClass):
            table.frequency("s", "nope")


class TestLLR:
    def test_worked_value_ln_2_4(self):
        table = class_frequency(corpus_with_presence(4, 3, 2, 0))
        value = llr("s", "U", "V", table)
        assert value == pytest.approx(math.log(2.4), abs=1e-12)
        assert value == pytest.approx(0.875469, abs=1e-6)

    def test_identical_frequencies_give_zero(self):
        table = class_frequency(corpus_with_presence(3, 2, 3, 2))
        assert llr("s", "U", "V", table) == 0.0

    def test_antisymmetry_exact(self):
        table = class_frequency(corpus_with_presence(5, 4, 3, 1))
        assert llr("s", "U", "V", table) == -llr("s", "V", "U", table)

    @given(st.integers(1, 9), st.integers(0, 9), st.integers(1, 9),
           st.integers(0, 9))
    @settings(max_examples=80)
    def test_antisymmetry_property(self, n_u, k_u, n_v, k_v):
        k_u, k_v = min(k_u, n_u), min(k_v, n_v)
        table = class_frequency(corpus_with_presence(n_u, k_u, n_v, k_v))
        forward = llr("s", "U", "V", table)
        assert abs(forward + llr("s", "V", "U", table)) <= 1e-12
        assert math.isfinite(forward)

    def test_finite_for_class_exclusive_symbols(self):
        table = class_frequency(corpus_with_presence(6, 6, 6, 0))
        assert math.isfinite(llr("s", "U", "V", table))
        assert math.isfinite(llr("s", "V", "U", table))


def exiftool_like_corpus(n_per_class=4):
    """One class carries an extra metadata symbol; both share the rest."""
    shared = ["ftyp/@majorBrand", "free/@stuff"]
    native = [(ms_of(shared), "Native-iOS") for _ in range(n_per_class)]
    tampered = [(ms_of(shared + ["moov/udta/XMP_/@stuff"]),
                 "Exiftool-iOS") for _ in range(n_per_class)]
    return native + tampered


class TestFilterVocabulary:
    def test_exclusive_symbol_kept_with_large_llr(self):
        corpus = exiftool_like_corpus()
        vocab = build_vocabulary([ms for ms, _ in corpus])
        kept, report = filter_vocabulary(vocab, corpus, FilterConfig(0.5))
        assert "moov/udta/XMP_/@stuff" in kept.index
        record = next(r for r in report.records
                      if r.symbol == "moov/udta/XMP_/@stuff")
        assert record.max_llr == pytest.approx(math.log(5), abs=1e-12)
        assert record.kept

    def test_uniform_symbol_removed(self):
        corpus = exiftool_like_corpus()
        vocab = build_vocabulary([ms for ms, _ in corpus])
        kept, report = filter_vocabulary(vocab, corpus, FilterConfig(0.5))
        assert "free/@stuff" not in kept.index
        record = next(r for r in report.records if r.symbol == "free/@stuff")
        assert record.max_llr == pytest.approx(0.0, abs=1e-12)

    def test_report_covers_every_symbol(self):
        corpus = exiftool_like_corpus()
        vocab = build_vocabulary([ms for ms, _ in corpus])
        _, report = filter_vocabulary(vocab, corpus, FilterConfig(0.5))
        assert {r.symbol for r in report.records} == set(vocab.symbols)

    @pytest.mark.parametrize("tau_pair", [(0.1, 0.5), (0.5, 1.0), (1.0, 2.0)])
    def test_threshold_monotonicity(self, tau_pair):
        low, high = tau_pair
        corpus = exiftool_like_corpus()
        vocab = build_vocabulary([ms for ms, _ in corpus])
        kept_low, _ = filter_vocabulary(vocab, corpus, FilterConfig(low))
        kept_high, _ = filter_vocabulary(vocab, corpus, FilterConfig(high))
        assert set(kept_high.symbols) <= set(kept_low.symbols)

    def test_relabeling_leaves_kept_set_unchanged(self):
        corpus = exiftool_like_corpus()
        swapped = [(ms, {"Native-iOS": "B", "Exiftool-iOS": "A"}[label])
                   for ms, label in corpus]
        vocab = build_vocabulary([ms for ms, _ in corpus])
        kept_a, _ = filter_vocabulary(vocab, corpus, FilterConfig(0.5))
        kept_b, _ = filter_vocabulary(vocab, swapped, FilterConfig(0.5))
        assert kept_a.symbols == kept_b.symbols

    def test_field_and_value_judged_independently(self):
        # Field present everywhere, value differs per class: the value
        # symbols stay discriminative while the field symbol is noise.
        samples = []
        for brand, label in (("isom", "A"), ("qt  ", "B")):
            for _ in range(4):
                ms = Counter(["ftyp/@majorBrand", f"ftyp/@majorBrand/{brand}"])
                samples.append((ms, label))
        vocab = build_vocabulary([ms for ms, _ in samples])
        kept, _ = filter_vocabulary(vocab, samples, FilterConfig(0.5))
        assert "ftyp/@majorBrand" not in kept.index
        assert "ftyp/@majorBrand/isom" in kept.index
        assert "ftyp/@majorBrand/qt  " in kept.index

    def test_uniform_corpus_keeps_nothing(self):
        shared = ["ftyp/@majorBrand", "moov/mvhd/@timescale"]
        corpus = [(ms_of(shared), "U") for _ in range(3)] + \
                 [(ms_of(shared), "V") for _ in range(3)]
        vocab = build_vocabulary([ms for ms, _ in corpus])
        kept, report = filter_vocabulary(vocab, corpus, FilterConfig(0.5))
        assert len(kept) == 0
        assert all(r.max_llr == pytest.approx(0.0, abs=1e-12)
                   and not r.kept for r in report.records)

    @given(st.lists(st.tuples(st.dictionaries(st.sampled_from(["a", "b", "c", "d"]),
                                              st.integers(1, 5), max_size=4),
                              st.sampled_from(["U", "V"])),
                    min_size=2, max_size=6)
           .filter(lambda rows: {label for _, label in rows} == {"U", "V"}),
           st.sets(st.sampled_from(["a", "c", "e"])))
    @settings(max_examples=60)
    def test_fixed_vocabulary_gets_one_record_per_symbol(self, rows, words):
        # A vocabulary symbol absent from the corpus ("e") still gets one.
        corpus = [(Counter(counts), label) for counts, label in rows]
        vocab = Vocabulary.from_strings(words)
        kept, report = filter_vocabulary(vocab, corpus, FilterConfig(0.5))
        assert [r.symbol for r in report.records] == list(vocab.symbols)
        table = class_frequency(corpus)
        for record in report.records:
            best, pair = oracle_max_pairwise_llr(record.symbol, table)
            assert record == LLRRecord(record.symbol, pair, best, best > 0.5)
        assert kept.symbols == tuple(report.kept_symbols())

    def test_invalid_tau_rejected(self):
        with pytest.raises(ValueError):
            FilterConfig(0.0)
        with pytest.raises(ValueError):
            FilterConfig(-1.0)


class TestReportTsv:
    def test_sorted_by_descending_llr_with_tau_column(self):
        corpus = exiftool_like_corpus()
        vocab = build_vocabulary([ms for ms, _ in corpus])
        _, report = filter_vocabulary(vocab, corpus, FilterConfig(0.25))
        lines = report_tsv(report).splitlines()
        assert lines[0] == "symbol\tbest_pair\tllr\ttau\tkept"
        assert lines[1].startswith("moov/udta/XMP_/@stuff\t")
        assert "\t0.25\t" in lines[1]
        values = [abs(float(line.split("\t")[2])) for line in lines[1:]]
        assert values == sorted(values, reverse=True)


class TestPairScan:
    def test_max_is_over_ordered_pairs(self):
        # Symbol much rarer in U than V: the max must come from (V, U).
        table = class_frequency(corpus_with_presence(9, 0, 9, 9))
        best, pair = max_pairwise_llr("s", table)
        assert best == pytest.approx(math.log(10), abs=1e-12)
        assert pair == ("V", "U")

    def test_examines_all_pairs_three_classes(self):
        samples = (corpus_with_presence(3, 3, 3, 0)
                   + [(ms_of(["base"]), "W") for _ in range(3)])
        table = class_frequency(samples)
        best, pair = max_pairwise_llr("s", table)
        assert best == pytest.approx(math.log(4), abs=1e-12)
        assert pair[0] == "U"


def max_pairwise_llr(canonical, table):
    """`pairwise_llr` for one symbol of a `ClassFrequencyTable`: the
    maximum LLR over ordered class pairs and the pair achieving it, the
    contract of the enumeration oracle below."""
    presence = np.array([[table.present[c].get(canonical, 0)]
                         for c in table.classes])
    best, hi, lo = pairwise_llr(presence,
                                [table.sizes[c] for c in table.classes])
    return float(best[0]), (table.classes[hi[0]], table.classes[lo[0]])


def oracle_max_pairwise_llr(canonical, table):
    """Enumeration of every ordered class pair.

    Same contract as max_pairwise_llr, built from the definition: each
    unordered pair's LLR is computed once with `llr` and tried in both
    orientations, and only a strictly larger value replaces the best.
    """
    best = -math.inf
    best_pair = (table.classes[0], table.classes[1])
    for i, cu in enumerate(table.classes):
        for cv in table.classes[i + 1:]:
            value = llr(canonical, cu, cv, table)
            for v, pair in ((value, (cu, cv)), (-value, (cv, cu))):
                if v > best:
                    best, best_pair = v, pair
    return best, best_pair


@st.composite
def presence_rows(draw, n_classes):
    """(size, presence) per class; `shape` forces the tie cases: every
    frequency equal, the maximum shared, or the minimum shared. Equal
    frequencies come from different sizes, as (k+1)/(n+1) = m(k'+1)/m(n'+1)."""
    shape = draw(st.sampled_from(["random", "all_equal", "tied_max",
                                  "tied_min"]))
    rows = []
    for _ in range(n_classes):
        n = draw(st.integers(1, 9))
        rows.append((n, draw(st.integers(0, n))))
    if shape == "all_equal":
        n, k = rows[0]
        scale = [draw(st.integers(1, 3)) for _ in rows]
        rows = [(m * (n + 1) - 1, m * (k + 1) - 1) for m in scale]
    elif shape != "random":
        ratio = [(k + 1) / (n + 1) for n, k in rows]
        extreme = ratio.index(max(ratio) if shape == "tied_max" else min(ratio))
        others = [i for i in range(n_classes) if i != extreme]
        twin = draw(st.sampled_from(others))
        m = draw(st.integers(1, 3))
        n, k = rows[extreme]
        rows[twin] = (m * (n + 1) - 1, m * (k + 1) - 1)
    return rows


def table_of(rows, symbol="s"):
    classes = [f"C{i}" for i in range(len(rows))]
    return ClassFrequencyTable(
        classes=classes,
        sizes={c: n for c, (n, _) in zip(classes, rows)},
        present={c: {symbol: k} for c, (_, k) in zip(classes, rows)})


class TestClosedFormAgainstOracle:
    @given(st.integers(2, 6).flatmap(presence_rows))
    @settings(max_examples=300)
    def test_same_bits_and_pair_as_enumeration(self, rows):
        table = table_of(rows)
        best, pair = max_pairwise_llr("s", table)
        expected_best, expected_pair = oracle_max_pairwise_llr("s", table)
        assert best.hex() == expected_best.hex()
        assert pair == expected_pair

    def test_every_log_frequency_is_math_log(self):
        # Against a class of frequency 1 the maximum is -ln f of the other
        # class; np.log differs from math.log on 13 of these 7380 fractions.
        for n in range(1, 121):
            for k in range(n + 1):
                table = table_of([(n, k), (1, 1)])
                best, _ = max_pairwise_llr("s", table)
                assert best.hex() == oracle_max_pairwise_llr("s", table)[0].hex()

    def test_all_equal_gives_first_two_classes(self):
        table = table_of([(3, 1), (7, 3), (1, 0)])
        assert max_pairwise_llr("s", table) == (0.0, ("C0", "C1"))
        assert oracle_max_pairwise_llr("s", table) == (0.0, ("C0", "C1"))

    def test_ties_go_to_first_maximum_over_first_minimum(self):
        # C1 and C3 share the maximum 2/3, C0 and C2 the minimum 1/3.
        table = table_of([(2, 0), (2, 1), (5, 1), (5, 3)])
        assert max_pairwise_llr("s", table)[1] == ("C1", "C0")
        assert oracle_max_pairwise_llr("s", table)[1] == ("C1", "C0")

    @given(st.integers(2, 4).flatmap(
        lambda k: st.lists(presence_rows(k), min_size=1, max_size=6)))
    @settings(max_examples=100, deadline=None)
    def test_filter_records_match_oracle(self, columns):
        # Column v puts symbol s<v> in the first k files of each class;
        # every class keeps the size drawn for the first column.
        sizes = [n for n, _ in columns[0]]
        symbols = [f"s{v}" for v in range(len(columns))]
        corpus = []
        for c, n in enumerate(sizes):
            for f in range(n):
                paths = [s for s, rows in zip(symbols, columns)
                         if f < min(rows[c][1], n)]
                corpus.append((ms_of(paths + ["base"]), f"C{c}"))
        table = class_frequency(corpus)
        vocab = build_vocabulary([ms for ms, _ in corpus])
        _, report = filter_vocabulary(vocab, corpus, FilterConfig(0.5))
        for record in report.records:
            best, pair = oracle_max_pairwise_llr(record.symbol, table)
            assert record == LLRRecord(record.symbol, pair, best, best > 0.5)
            assert record.max_llr.hex() == best.hex()
