"""Vocabulary construction and count vectorization."""

import gc
import weakref
from array import array
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxtrace.errors import DataError, EmptyCorpus
from boxtrace.modelfile import train_matrix, train_model
from boxtrace.vectorize import (
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
        symbols, counts = count_matrix(corpus)
        assert symbols == build_vocabulary(corpus).symbols
        assert counts.tolist() == [[2, 1, 0], [1, 0, 4]]

    def test_value_and_field_symbols_get_their_own_columns(self):
        ms = Counter({"ftyp/@majorBrand": 2, "ftyp/@majorBrand/a\\/b": 1})
        symbols, counts = count_matrix([ms])
        assert symbols == ("ftyp/@majorBrand", "ftyp/@majorBrand/a\\/b")
        assert counts.tolist() == [[2, 1]]

    def test_zero_counts_are_absent(self):
        ms = ms_of({"a": 1})
        ms["b"] = 0
        assert count_matrix([ms])[0] == ("a",)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            count_matrix([])
        with pytest.raises(EmptyCorpus):
            count_matrix(iter([]))

    @given(st.lists(st.dictionaries(st.sampled_from(["a", "b", "c", "d"]),
                                    st.integers(1, 5), max_size=4),
                    min_size=1, max_size=5))
    @settings(max_examples=60)
    def test_rows_equal_vectorize_over_the_columns(self, rows):
        corpus = [ms_of(counts) for counts in rows]
        symbols, counts = count_matrix(corpus)
        vocab = Vocabulary.from_strings(symbols)
        for ms, row in zip(corpus, counts.tolist()):
            assert row == vectorize(ms, vocab)

    @given(st.lists(st.dictionaries(st.sampled_from(["a", "b", "c", "d", "e"]),
                                    st.integers(0, 5), max_size=5),
                    min_size=1, max_size=6))
    @settings(max_examples=200)
    def test_equals_reference(self, rows):
        # Zero counts are drawn, so some symbols are zero in every row.
        corpus = [ms_of(counts) for counts in rows]
        assert_same_matrix(count_matrix(corpus),
                           reference_count_matrix(corpus))

    @given(st.lists(st.dictionaries(st.text(max_size=3), st.integers(-3, 5),
                                    max_size=6), min_size=1, max_size=8),
           st.integers(0, 3))
    @example([{}], 2)  # no symbol at all: rows without columns
    @settings(max_examples=300)
    def test_one_pass_over_a_generator_equals_two_passes(self, rows,
                                                         trailing_empty):
        # Zero and negative counts, and empty multisets at the end, whose
        # rows are all zeros.
        corpus = [ms_of(counts) for counts in rows] + [Counter()] * trailing_empty
        assert_same_matrix(count_matrix(ms for ms in corpus),
                           two_pass_count_matrix(corpus))

    @pytest.mark.parametrize("count", [2**31, 2**40, -2**31 - 1, 2**70])
    def test_count_outside_int32_is_a_data_error(self, count):
        # The error train_matrix raises for the same counts; an
        # OverflowError once escaped here.
        corpus = [Counter({"a": 1}), Counter({"b": 2, "c": count})]
        with pytest.raises(DataError, match=f"^count {count} of 'c' does "
                                            "not fit in int32$"):
            count_matrix(corpus)
        with pytest.raises(DataError):
            train_matrix(("a", "b", "c"), [[1, 0, 0], [0, 2, count]],
                         ["x", "y"])

    def test_train_model_with_a_count_outside_int32(self):
        with pytest.raises(DataError, match="does not fit in int32"):
            train_model([Counter({"a": 2**40}), Counter({"b": 1})],
                        ["x", "y"])

    def test_no_multiset_outlives_its_row(self):
        # When the next multiset is made, at most the one before it (the
        # one whose row was just read) may still be alive.
        alive = []

        def corpus():
            for i in range(6):
                gc.collect()
                assert sum(ref() is not None for ref in alive) <= 1
                ms = Counter({f"s{i}": 1, "shared": i + 1})
                alive.append(weakref.ref(ms))
                yield ms
                del ms

        symbols, counts = count_matrix(corpus())
        gc.collect()
        assert all(ref() is None for ref in alive)
        assert symbols == ("s0", "s1", "s2", "s3", "s4", "s5", "shared")
        assert counts[:, -1].tolist() == [1, 2, 3, 4, 5, 6]


def assert_same_matrix(matrix, expected):
    (symbols, counts), (expected_symbols, expected_counts) = matrix, expected
    assert symbols == expected_symbols
    assert counts.dtype == expected_counts.dtype
    assert np.array_equal(counts, expected_counts)


def two_pass_count_matrix(corpus):
    """The earlier `count_matrix`: the sorted union of the nonzero symbols
    gives the columns, then each multiset fills its row."""
    symbols = sorted({s for ms in corpus for s, count in ms.items() if count})
    column = {s: j for j, s in enumerate(symbols)}
    counts = np.zeros((len(corpus), len(symbols)), dtype=np.int32)
    for row, ms in zip(counts, corpus):
        for s, count in ms.items():
            if count:
                row[column[s]] = count
    return tuple(symbols), counts


def reference_count_matrix(corpus):
    """An earlier `count_matrix`: entries gathered into int buffers by
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
    return tuple(symbols), counts
