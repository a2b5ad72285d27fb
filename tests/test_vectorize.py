"""Vocabulary construction and count vectorization."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxtrace.errors import EmptyCorpus
from boxtrace.vectorize import (
    FeatureVector,
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
        v = vectorize(ms_of({"s2": 2}), vocab)
        assert v.to_dense().tolist() == [0, 2, 0]

    def test_out_of_vocabulary_dropped(self):
        vocab = Vocabulary.from_strings(["s1"])
        v = vectorize(ms_of({"zz": 3, "yy": 1}), vocab)
        assert v.to_dense().tolist() == [0]
        assert v.l1() == 0

    def test_all_ones_when_ms_equals_vocabulary(self):
        ms = ms_of({"a": 1, "b": 1, "c": 1})
        vocab = build_vocabulary([ms])
        assert vectorize(ms, vocab).to_dense().tolist() == [1, 1, 1]

    @given(st.dictionaries(st.sampled_from(["a", "b", "c", "d"]),
                           st.integers(1, 5), max_size=4))
    @settings(max_examples=60)
    def test_lossless_on_in_vocabulary_mass(self, counts):
        ms = ms_of(counts)
        vocab = build_vocabulary([ms_of({k: 1 for k in "abcd"})])
        v = vectorize(ms, vocab)
        for path, count in counts.items():
            assert v.get(vocab.index[path]) == count
        assert v.l1() == ms.total()

    @given(st.dictionaries(st.sampled_from(["a", "b", "x", "y"]),
                           st.integers(1, 5), max_size=4))
    @settings(max_examples=60)
    def test_l1_bounded_by_multiset_size(self, counts):
        ms = ms_of(counts)
        vocab = Vocabulary.from_strings(["a", "b"])
        v = vectorize(ms, vocab)
        assert v.l1() <= ms.total()
        in_vocab = all(k in vocab.index for k in counts)
        assert (v.l1() == ms.total()) == in_vocab


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
        for ms, row in zip(corpus, matrix.counts):
            expected = vectorize(ms, vocab)
            got = FeatureVector.from_dense(row)
            assert (got.size, got.counts) == (expected.size, expected.counts)

    @given(st.lists(st.dictionaries(st.sampled_from(["a", "b", "c", "d"]),
                                    st.integers(1, 5), max_size=4),
                    min_size=1, max_size=5),
           st.sets(st.sampled_from(["a", "c", "e"])))
    @settings(max_examples=60)
    def test_fixed_vocabulary_columns_equal_vectorize(self, rows, words):
        corpus = [ms_of(counts) for counts in rows]
        vocab = Vocabulary.from_strings(words)
        matrix = count_matrix(corpus, vocab)
        assert matrix.symbols == vocab.symbols
        assert matrix.counts.shape == (len(corpus), len(vocab))
        for ms, row in zip(corpus, matrix.counts):
            assert row.tolist() == vectorize(ms, vocab).to_dense().tolist()
