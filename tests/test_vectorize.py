"""Vocabulary construction and count vectorization."""

from array import array
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxtrace.errors import EmptyCorpus
from boxtrace.vectorize import (
    CountMatrix,
    Vocabulary,
    build_vocabulary,
    count_matrix,
    vectorize,
)


def ms_of(counts: dict[str, int]) -> Counter[str]:
    return Counter(counts)


class TestBuildVocabulary:
    def test_union_is_sorted(self):
        vocab = build_vocabulary([ms_of({"b/@x": 1, "a/@y": 1}),
                                  ms_of({"a/@y": 2, "c/@z": 1})])
        assert list(vocab.symbols) == ["a/@y", "b/@x", "c/@z"]

    def test_single_multiset(self):
        vocab = build_vocabulary([ms_of({"s/@f": 5})])
        assert list(vocab.symbols) == ["s/@f"]

    def test_order_independent(self):
        a, b = ms_of({"p/@1": 1}), ms_of({"q/@2": 1})
        assert build_vocabulary([a, b]) == build_vocabulary([b, a])

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            build_vocabulary([])


class TestVectorize:
    def test_counts_land_at_indices(self):
        vocab = Vocabulary.from_strings(["s1", "s2", "s3"])
        assert vectorize(ms_of({"s2": 2}), vocab) == [0, 2, 0]

    def test_out_of_vocabulary_dropped(self):
        vocab = Vocabulary.from_strings(["s1"])
        assert vectorize(ms_of({"zz": 3, "yy": 1}), vocab) == [0]

    def test_all_ones_when_ms_equals_vocabulary(self):
        ms = ms_of({"a": 1, "b": 1, "c": 1})
        vocab = build_vocabulary([ms])
        assert vectorize(ms, vocab) == [1, 1, 1]

    @given(st.dictionaries(st.sampled_from(["a", "b", "c", "d"]),
                           st.integers(1, 5), max_size=4))
    @settings(max_examples=60)
    def test_lossless_on_in_vocabulary_mass(self, counts):
        ms = ms_of(counts)
        vocab = build_vocabulary([ms_of({k: 1 for k in "abcd"})])
        row = vectorize(ms, vocab)
        for path, count in counts.items():
            assert row[vocab.index[path]] == count
        assert sum(row) == ms.total()

    @given(st.dictionaries(st.sampled_from(["a", "b", "x", "y"]),
                           st.integers(1, 5), max_size=4))
    @settings(max_examples=60)
    def test_l1_bounded_by_multiset_size(self, counts):
        ms = ms_of(counts)
        vocab = Vocabulary.from_strings(["a", "b"])
        row = vectorize(ms, vocab)
        assert len(row) == len(vocab)
        assert sum(row) <= ms.total()
        in_vocab = all(k in vocab.index for k in counts)
        assert (sum(row) == ms.total()) == in_vocab

    def test_vocabulary_always_carries_its_index(self):
        # Built directly, not through `from_strings`, the index still
        # follows the symbols, so the row is not silently all zeros.
        vocab = Vocabulary(("a", "b"))
        assert vocab.index == {"a": 0, "b": 1}
        assert vectorize(ms_of({"b": 3, "z": 1}), vocab) == [0, 3]
        assert vocab == Vocabulary.from_strings(["b", "a"])

    @given(st.sets(st.text(max_size=3), max_size=8),
           st.dictionaries(st.text(max_size=3), st.integers(-2, 5),
                           max_size=8))
    @settings(max_examples=300)
    def test_equals_the_lookup_over_every_symbol(self, symbols, counts):
        # Out-of-vocabulary symbols, zero and negative counts included.
        vocab = Vocabulary.from_strings(symbols)
        ms = ms_of(counts)
        assert vectorize(ms, vocab) == [ms.get(s, 0) for s in vocab.symbols]


class TestCountMatrix:
    def test_columns_are_the_sorted_vocabulary(self):
        corpus = [ms_of({"b/@x": 1, "a/@y": 2}), ms_of({"a/@y": 1, "c/@z": 4})]
        matrix = count_matrix(corpus)
        assert matrix.symbols == build_vocabulary(corpus).symbols
        assert matrix.counts.tolist() == [[2, 1, 0], [1, 0, 4]]

    def test_value_and_field_symbols_get_their_own_columns(self):
        ms = Counter({"ftyp/@majorBrand": 2, "ftyp/@majorBrand/a\\/b": 1})
        matrix = count_matrix([ms])
        assert matrix.symbols == ("ftyp/@majorBrand", "ftyp/@majorBrand/a\\/b")
        assert matrix.counts.tolist() == [[2, 1]]

    def test_take_keeps_the_columns_its_rows_use(self):
        matrix = count_matrix([ms_of({"a": 1}), ms_of({"b": 2}), ms_of({"c": 3})])
        part = matrix.take([2, 0])
        assert part.symbols == ("a", "c")
        assert part.counts.tolist() == [[0, 3], [1, 0]]

    def test_zero_counts_are_absent(self):
        ms = ms_of({"a": 1})
        ms["b"] = 0
        assert count_matrix([ms]).symbols == ("a",)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            count_matrix([])

    @given(st.lists(st.dictionaries(st.sampled_from(["a", "b", "c", "d"]),
                                    st.integers(1, 5), max_size=4),
                    min_size=1, max_size=5))
    @settings(max_examples=60)
    def test_rows_equal_vectorize_over_the_columns(self, rows):
        corpus = [ms_of(counts) for counts in rows]
        matrix = count_matrix(corpus)
        vocab = Vocabulary.from_strings(matrix.symbols)
        for ms, row in zip(corpus, matrix.counts.tolist()):
            assert row == vectorize(ms, vocab)

    @given(st.lists(st.dictionaries(st.sampled_from(["a", "b", "c", "d", "e"]),
                                    st.integers(0, 5), max_size=5),
                    min_size=1, max_size=6))
    @settings(max_examples=200)
    def test_equals_reference(self, rows):
        # Zero counts are drawn, so some symbols are zero in every row.
        corpus = [ms_of(counts) for counts in rows]
        matrix = count_matrix(corpus)
        expected = reference_count_matrix(corpus)
        assert matrix.symbols == expected.symbols
        assert matrix.counts.dtype == expected.counts.dtype
        assert np.array_equal(matrix.counts, expected.counts)


def reference_count_matrix(corpus):
    """The earlier `count_matrix`: entries gathered into int buffers by
    first-seen column, then scattered with ``np.add.at`` into the sorted
    columns."""
    first_seen: dict[str, int] = {}
    rows, seen, values = array("i"), array("i"), array("i")
    for i, ms in enumerate(corpus):
        for s, count in ms.items():
            if not count:
                continue
            rows.append(i)
            seen.append(first_seen.setdefault(s, len(first_seen)))
            values.append(count)
    symbols = sorted(first_seen)
    column = np.empty(len(symbols), dtype=np.intp)
    column[[first_seen[s] for s in symbols]] = np.arange(len(symbols))
    counts = np.zeros((len(corpus), len(symbols)), dtype=np.int32)
    np.add.at(counts, (np.frombuffer(rows, dtype=np.intc),
                       column[np.frombuffer(seen, dtype=np.intc)]),
              np.frombuffer(values, dtype=np.intc))
    return CountMatrix(tuple(symbols), counts)
