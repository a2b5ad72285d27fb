"""Canonical serialization and the train/classify pipeline."""

import gc
import hashlib
import io
import json
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import boxtrace.tree
from boxtrace.bmff import parse_container
from boxtrace.errors import (
    DataError,
    DimensionMismatch,
    EmptyCorpus,
    ModelFormatError,
)
from boxtrace.llr import FilterConfig, llr_report
from boxtrace.modelfile import (
    ModelFile,
    canonical_dumps,
    classify_symbols,
    dumps_model,
    load_model,
    loads_model,
    model_digest,
    resolve_timestamp,
    save_model,
    train_matrix,
    train_model,
)
from boxtrace.symbols import extract_symbols
from boxtrace.tree import (
    DecisionTreeModel,
    PathStep,
    SplitCandidate,
    TreeNode,
    TreeParams,
    decision_path,
    predict,
    replay_path,
)
from boxtrace.vectorize import Vocabulary, count_matrix, vectorize

from conftest import FTYP_MIN, mkbox


def ms_of(paths):
    return Counter(paths)


def fig_style_corpus(n=3):
    shared = ["ftyp/@majorBrand", "moov/mvhd/@timescale"]
    multisets, labels = [], []
    for _ in range(n):
        multisets.append(ms_of(shared))
        labels.append("Native-iOS")
        multisets.append(ms_of(shared + ["moov/udta/XMP_/@stuff"]))
        labels.append("Exiftool-iOS")
    return multisets, labels


# The fig-style model at tau 0.5, as `save_model` writes it.
FIG_MODEL_TEXT = dumps_model(train_model(*fig_style_corpus(), tau=0.5,
                                         trained_at=""))


def json_dumps_canonical(obj) -> str:
    """`canonical_dumps` as it was written with every string and key
    through ``json.dumps(..., ensure_ascii=True)``: the reference for its
    string encoding."""
    def emit(value, indent):
        pad = "  " * indent
        if value is None or isinstance(value, bool):
            return json.dumps(value)
        if isinstance(value, int):
            return str(value)
        if isinstance(value, float):
            return format(value, ".12g")
        if isinstance(value, str):
            return json.dumps(value, ensure_ascii=True)
        if isinstance(value, list):
            items = [pad + "  " + emit(item, indent + 1) for item in value]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]" if value \
                else "[]"
        items = [pad + "  " + json.dumps(key, ensure_ascii=True) + ": "
                 + emit(value[key], indent + 1) for key in sorted(value)]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}" if value else "{}"

    return emit(obj, 0) + "\n"


# Text with lone surrogates, control characters, quotes, backslashes and
# characters past ASCII and past the Basic Multilingual Plane.
JSON_TEXT = st.text(st.characters(codec=None) | st.sampled_from(
    ["\ud800", "\udfff", "\x00", "\x1f", "\x7f", '"', "\\", "\u00e9",
     "\u2028", "\U0001f600"]))
JSON_VALUES = st.recursive(
    JSON_TEXT | st.none() | st.booleans() | st.integers(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(JSON_TEXT, inner, max_size=4), max_leaves=20)


class TestCanonicalDumps:
    @given(JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_strings_and_keys_as_json_dumps_writes_them(self, obj):
        assert canonical_dumps(obj) == json_dumps_canonical(obj)

    def test_sorted_keys_and_newline(self):
        text = canonical_dumps({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_float_formatting(self):
        assert canonical_dumps(0.5).strip() == "0.5"
        assert canonical_dumps(1.0).strip() == "1"
        assert canonical_dumps(0.8754687373538999).strip() == "0.875468737354"

    def test_non_finite_rejected(self):
        with pytest.raises(ModelFormatError):
            canonical_dumps(float("inf"))

    def test_parses_as_json(self):
        obj = {"x": [1, 2.5, "s", None, True], "y": {"k": 0.125}}
        assert json.loads(canonical_dumps(obj)) == obj

    def test_idempotent_through_reload(self):
        obj = {"w": [1 / 3, 2 / 7, 1e-13, 12345.678]}
        first = canonical_dumps(obj)
        second = canonical_dumps(json.loads(first))
        assert first == second

    def test_leaves_no_garbage_cycle(self):
        # A cycle would keep the serialized pieces of every model dumped
        # alive until the cyclic collector ran.
        obj = {"x": [[1, {"y": "z"}], 0.5], "w": {}}
        gc.collect()
        gc.disable()
        try:
            canonical_dumps(obj)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestModelRoundTrip:
    def test_save_load_save_byte_identity(self, tmp_path):
        multisets, labels = fig_style_corpus()
        mf = train_model(multisets, labels, trained_at="2026-01-01T00:00:00+00:00")
        path = tmp_path / "model.json"
        save_model(mf, str(path))
        first = path.read_bytes()
        reloaded = load_model(str(path))
        save_model(reloaded, str(path))
        assert path.read_bytes() == first

    def test_loaded_model_predicts_identically(self):
        multisets, labels = fig_style_corpus()
        mf = train_model(multisets, labels, trained_at="")
        clone = loads_model(dumps_model(mf))
        for ms in multisets:
            v = vectorize(ms, mf.model.vocabulary)
            v2 = vectorize(ms, clone.model.vocabulary)
            assert predict(mf.model, v) == predict(clone.model, v2)

    def test_metadata_preserved(self):
        multisets, labels = fig_style_corpus()
        mf = train_model(multisets, labels, scenario="integrity",
                         manifest_digest="abc123", trained_at="T0")
        clone = loads_model(dumps_model(mf))
        assert clone.scenario == "integrity"
        assert clone.manifest_digest == "abc123"
        assert clone.trained_at == "T0"

    def test_digest_stable(self):
        multisets, labels = fig_style_corpus()
        a = train_model(multisets, labels, trained_at="T")
        b = train_model(multisets, labels, trained_at="T")
        assert model_digest(a) == model_digest(b)

    def test_bad_version_rejected(self):
        multisets, labels = fig_style_corpus()
        obj = json.loads(dumps_model(train_model(multisets, labels,
                                                 trained_at="")))
        obj["format_version"] = 99
        with pytest.raises(ModelFormatError):
            loads_model(json.dumps(obj))

    def test_truncated_tree_rejected(self):
        multisets, labels = fig_style_corpus()
        obj = json.loads(dumps_model(train_model(multisets, labels,
                                                 trained_at="")))
        obj["tree"] = obj["tree"][:-1]
        with pytest.raises(ModelFormatError):
            loads_model(json.dumps(obj))

    def test_not_json_rejected(self):
        with pytest.raises(ModelFormatError):
            loads_model("definitely not json")

    def test_json_nested_past_the_python_stack_rejected(self):
        with pytest.raises(ModelFormatError):
            loads_model("[" * 100000 + "]" * 100000)

    def test_load_names_the_file_bytes(self, tmp_path):
        multisets, labels = fig_style_corpus()
        mf = train_model(multisets, labels, trained_at="")
        path = tmp_path / "model.json"
        save_model(mf, str(path))
        loaded = load_model(str(path))
        assert loaded.file_digest == \
            hashlib.sha256(path.read_bytes()).hexdigest()
        assert loaded.file_digest == model_digest(mf)


# An integer that no float can hold, and a literal longer than Python's
# integer string conversion limit (4300 digits), which JSON text can hold
# but `json.dumps` cannot write: a value set to the string "LONG-DIGITS"
# is written as it.
HUGE = 10**400
LONG_DIGITS = "1" + "0" * 5000


def _json_text(obj) -> str:
    return json.dumps(obj).replace('"LONG-DIGITS"', LONG_DIGITS)


def _json_edit(change):
    """An edit of a model file's JSON object, returning the file's bytes."""
    def edit(obj):
        change(obj)
        return _json_text(obj).encode("ascii")
    return edit


def _append_vocabulary_duplicate(obj):
    obj["vocabulary"].append(obj["vocabulary"][-1])
    obj["filter"]["kept"].append(0)


# The fig-style model at tau 0.5: tree[0] splits on its one kept symbol,
# tree[1] and tree[2] are the Native-iOS and Exiftool-iOS leaves.
MALFORMED_MODELS = [
    pytest.param(_json_edit(lambda o: o.update(tree=[5])),
                 id="tree-node-not-an-object"),
    pytest.param(_json_edit(lambda o: o["tree"][0].update(feature="abc")),
                 id="feature-not-an-integer"),
    pytest.param(_json_edit(lambda o: o["tree"][0].update(
        threshold=float("nan"))), id="nan-threshold"),
    pytest.param(_json_edit(lambda o: o["tree"][1].update(label="Nobody")),
                 id="leaf-label-not-a-class"),
    pytest.param(_json_edit(lambda o: o["tree"][1].update(
        distribution={"Nobody": 1.0})), id="distribution-key-not-a-class"),
    pytest.param(_json_edit(lambda o: o["classes"].reverse()),
                 id="classes-unsorted"),
    pytest.param(_json_edit(_append_vocabulary_duplicate),
                 id="vocabulary-duplicate"),
    pytest.param(_json_edit(lambda o: o["filter"].update(
        kept=[2] * len(o["filter"]["kept"]))), id="kept-not-0-or-1"),
    pytest.param(_json_edit(lambda o: o.update(class_weights=[1.0])),
                 id="class-weights-not-an-object"),
    pytest.param(lambda o: json.dumps(o).replace("Native", "N\u00e4tive")
                 .encode("utf-8"), id="not-ascii"),
    pytest.param(_json_edit(lambda o: o["tree"][0].update(threshold=HUGE)),
                 id="threshold-too-large-for-a-float"),
    pytest.param(_json_edit(lambda o: o["filter"].update(tau=-HUGE)),
                 id="tau-too-large-for-a-float"),
    pytest.param(_json_edit(lambda o: o["params"].update(ccp_alpha=HUGE)),
                 id="ccp-alpha-too-large-for-a-float"),
    pytest.param(_json_edit(lambda o: o["class_weights"].update(
        {"Native-iOS": HUGE})), id="class-weight-too-large-for-a-float"),
    pytest.param(_json_edit(lambda o: o["tree"][1]["distribution"].update(
        {"Native-iOS": HUGE})), id="leaf-mass-too-large-for-a-float"),
    pytest.param(_json_edit(lambda o: o["filter"].update(
        tau="LONG-DIGITS")), id="integer-literal-past-the-digit-limit"),
    pytest.param(_json_edit(lambda o: o["class_weights"].update(Nobody=1.0)),
                 id="class-weight-for-an-unknown-class"),
    pytest.param(_json_edit(lambda o: o["class_weights"].pop("Native-iOS")),
                 id="class-without-a-weight"),
    pytest.param(_json_edit(lambda o: o["metadata"].update(scenario=[1])),
                 id="metadata-not-a-string"),
    pytest.param(_json_edit(lambda o: o["params"].update(max_depth=-2)),
                 id="max-depth-negative"),
    pytest.param(_json_edit(lambda o: o["params"].update(min_samples_leaf=0)),
                 id="min-samples-leaf-zero"),
    pytest.param(_json_edit(lambda o: o["params"].update(min_samples_leaf=-3)),
                 id="min-samples-leaf-negative"),
    pytest.param(_json_edit(lambda o: o["params"].update(ccp_alpha=-1)),
                 id="ccp-alpha-negative"),
    pytest.param(_json_edit(lambda o: o["filter"].update(tau=-1)),
                 id="tau-negative"),
    pytest.param(_json_edit(lambda o: o["filter"].update(tau=0)),
                 id="tau-zero"),
    pytest.param(_json_edit(lambda o: o["params"].update(max_depth="3")),
                 id="max-depth-string"),
    pytest.param(_json_edit(lambda o: o["params"].update(ccp_alpha=True)),
                 id="ccp-alpha-true"),
    pytest.param(_json_edit(lambda o: o["params"].update(
        min_samples_leaf=2.0)), id="min-samples-leaf-float"),
    pytest.param(_json_edit(lambda o: o["params"].pop("min_samples_leaf")),
                 id="min-samples-leaf-missing"),
    pytest.param(_json_edit(lambda o: o["filter"].update(tau=HUGE)),
                 id="tau-integer-too-large-for-a-float"),
    pytest.param(lambda o: json.dumps(o).replace(
        '"tau": 0.5', '"tau": 1e999').encode("ascii"), id="tau-overflows"),
    pytest.param(_json_edit(lambda o: o.update(format_version=1.0)),
                 id="format-version-float"),
    pytest.param(_json_edit(lambda o: o.update(format_version=True)),
                 id="format-version-true"),
]


@pytest.mark.parametrize("edit", MALFORMED_MODELS)
def test_malformed_model_file_rejected(tmp_path, edit):
    multisets, labels = fig_style_corpus()
    obj = json.loads(dumps_model(train_model(multisets, labels, tau=0.5,
                                             trained_at="")))
    path = tmp_path / "model.json"
    path.write_bytes(edit(obj))
    with pytest.raises(ModelFormatError):
        load_model(str(path))


@pytest.mark.parametrize("params,tau", [
    ({"max_depth": 0, "min_samples_leaf": 1, "ccp_alpha": 0}, 1e-300),
    ({"max_depth": None, "min_samples_leaf": 7, "ccp_alpha": 0.5}, 3),
], ids=["lowest-values", "null-depth-and-integer-tau"])
def test_boundary_params_load(params, tau):
    obj = json.loads(FIG_MODEL_TEXT)
    obj["params"].update(params)
    obj["filter"]["tau"] = tau
    mf = loads_model(_json_text(obj))
    assert mf.model.params == TreeParams(**params)
    assert mf.tau == tau


def _value_paths(obj, prefix=()):
    """The key or index path of every value nested in `obj`."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _value_paths(value, prefix + (key,))


DELETE = object()
REPLACEMENTS = st.one_of(
    st.sampled_from([HUGE, -HUGE, "LONG-DIGITS", DELETE, None, True]),
    st.integers(-2**70, 2**70),
    st.floats(),
    st.sampled_from(["Native-iOS", "Exiftool-iOS", "moov/udta/XMP_/@stuff"]),
    st.text(max_size=8),
    st.lists(st.integers(-1, 2) | st.text(max_size=2), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers() | st.floats(),
                    max_size=2),
)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_model_file_loads_or_is_rejected(data):
    obj = json.loads(FIG_MODEL_TEXT)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_value_paths(obj))))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        value = data.draw(REPLACEMENTS)
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        if not obj:
            break
    try:
        mf = loads_model(_json_text(obj))
    except ModelFormatError:
        return
    # A model that loads can be written, read back and used.
    text = dumps_model(mf)
    assert dumps_model(loads_model(text)) == text
    classify_symbols(mf, Counter(mf.model.vocabulary.symbols))


class TestTimestamp:
    def test_explicit_wins(self):
        assert resolve_timestamp("X") == "X"

    def test_source_date_epoch(self, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        assert resolve_timestamp() == "1970-01-01T00:00:00+00:00"

    def test_now_is_isoformat(self, monkeypatch):
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        stamp = resolve_timestamp()
        assert "T" in stamp and stamp.endswith("+00:00")


class TestTrainModel:
    def test_filter_threshold_respected(self):
        multisets, labels = fig_style_corpus()
        mf = train_model(multisets, labels, tau=0.5)
        assert list(mf.model.vocabulary.symbols) == ["moov/udta/XMP_/@stuff"]
        assert sum(mf.kept) == 1

    def test_extreme_tau_gives_majority_leaf(self):
        multisets, labels = fig_style_corpus()
        mf = train_model(multisets, labels, tau=1e9)
        assert len(mf.model.vocabulary) == 0
        assert mf.model.root.is_leaf

    def test_single_class_skips_filter(self):
        multisets, _ = fig_style_corpus()
        mf = train_model(multisets, ["A"] * len(multisets))
        assert mf.model.root.is_leaf
        assert all(mf.kept)

    def test_params_recorded(self):
        multisets, labels = fig_style_corpus()
        params = TreeParams(max_depth=3, min_samples_leaf=2, ccp_alpha=0.01)
        mf = train_model(multisets, labels, params=params)
        assert loads_model(dumps_model(mf)).model.params == params

    @pytest.mark.parametrize("tau", [float("inf"), float("nan"), "1", 0,
                                     10**400],
                             ids=["inf", "nan", "string", "zero", "huge"])
    def test_tau_out_of_range_rejected_before_training(self, tau):
        multisets, labels = fig_style_corpus()
        with pytest.raises(ValueError):
            train_model(multisets, labels, tau=tau)

    def test_numpy_hyperparameters_serialize(self):
        multisets, labels = fig_style_corpus()
        params = TreeParams(max_depth=np.int64(3),
                            min_samples_leaf=np.int32(1),
                            ccp_alpha=np.float64(0.0))
        mf = train_model(multisets, labels, tau=np.float64(0.5),
                         params=params, trained_at="")
        assert dumps_model(mf) == dumps_model(train_model(
            multisets, labels, tau=0.5, params=TreeParams(max_depth=3),
            trained_at=""))


@st.composite
def matrix_rows(draw):
    """Sorted columns, an int32 count matrix with many zeros, labels, and
    distinct rows in any order: often of one class, and often leaving
    some columns all zero."""
    n_rows, n_columns = draw(st.integers(1, 9)), draw(st.integers(1, 6))
    counts = np.array(draw(st.lists(
        st.lists(st.sampled_from([0, 0, 0, 1, 2, 3, -1]),
                 min_size=n_columns, max_size=n_columns),
        min_size=n_rows, max_size=n_rows)), dtype=np.int32)
    labels = draw(st.lists(st.sampled_from(["A", "B", "C"]),
                           min_size=n_rows, max_size=n_rows))
    rows = draw(st.lists(st.integers(0, n_rows - 1), min_size=1,
                         max_size=n_rows, unique=True))
    return tuple(f"s{j}" for j in range(n_columns)), counts, labels, rows


COUNT_DTYPES = st.sampled_from([np.int8, np.int32, np.int64, np.uint64,
                                np.float64, np.bool_])


@st.composite
def malformed_training_data(draw):
    """Symbols, counts, labels and multiplicities, often of one number of
    rows and of one column per symbol: counts of any shape, numeric dtype
    and range (0-d, 1-D and 3-D too) or nested lists, ragged or not, of
    numbers and strings, labels that are not always strings, and
    multiplicities of any length, dtype and range, or None."""
    symbols = draw(st.lists(st.text(max_size=2), max_size=3))
    if draw(st.booleans()):
        symbols = sorted(set(symbols))
    labels = draw(st.lists(st.sampled_from(["A", "B", "A", "B", 0, None]),
                           max_size=4))
    n_rows = draw(st.just(len(labels)) | st.integers(0, 4))
    width = draw(st.just(len(symbols)) | st.integers(0, 4))
    counts = draw(st.one_of(
        hnp.arrays(COUNT_DTYPES, (n_rows, width)),
        hnp.arrays(COUNT_DTYPES, hnp.array_shapes(
            min_dims=0, max_dims=3, min_side=0, max_side=3)),
        st.lists(st.lists(st.integers(-2**40, 2**40) | st.floats()
                          | st.text(max_size=1), max_size=4),
                 min_size=n_rows, max_size=n_rows)))
    multiplicity = draw(st.one_of(
        st.none(),
        hnp.arrays(COUNT_DTYPES, st.just(n_rows) | st.integers(0, 4)),
        st.lists(st.integers(-1, 2**63 - 1) | st.sampled_from([2**62]),
                 min_size=n_rows, max_size=n_rows)))
    return symbols, counts, labels, multiplicity


class TestTrainMatrix:
    def test_vocabulary_is_the_columns_its_rows_use(self):
        symbols, counts = count_matrix([ms_of({"a": 1}), ms_of({"b": 2}),
                                        ms_of({"c": 3})])
        mf = train_matrix(symbols, counts[[2, 0]], ["X", "Y"], tau=0.1)
        assert mf.full_vocabulary == ["a", "c"]
        assert classify_symbols(mf, ms_of({"c": 3}))[0] == "X"
        assert classify_symbols(mf, ms_of({"a": 1}))[0] == "Y"

    @pytest.mark.parametrize("symbols,counts", [
        (("a",), np.array([[1, 0], [0, 2]])),
        (("a", "b"), np.array([[1], [3]])),
        (("a", "b"), [[1, 0], [3]]),
    ], ids=["more-columns", "fewer-columns", "ragged-rows"])
    def test_columns_must_be_the_symbols(self, symbols, counts):
        with pytest.raises(DimensionMismatch):
            train_matrix(symbols, counts, ["X", "Y"])
        with pytest.raises(DimensionMismatch):
            llr_report(symbols, counts, ["X", "Y"], FilterConfig())

    def test_symbols_must_be_sorted_and_distinct(self):
        # The model's vocabulary is sorted: unsorted symbols would name
        # the wrong columns.
        counts = np.array([[1, 0], [1, 0], [0, 1], [0, 1]])
        for symbols in (("b", "a"), ("a", "a")):
            with pytest.raises(DataError):
                train_matrix(symbols, counts, ["X", "X", "Y", "Y"], tau=0.1)

    @given(malformed_training_data())
    @settings(max_examples=400, deadline=None)
    def test_malformed_data_raises_data_errors(self, data):
        # Well-formed draws may train; nothing but a DataError may come out.
        for train in (train_matrix, lambda symbols, counts, labels, _:
                      llr_report(symbols, counts, labels, FilterConfig())):
            try:
                train(*data)
            except DataError:
                pass

    def test_files_past_the_bound_raise_data_error(self):
        # 2**62 + 2**62 wraps to -2**63 in int64.
        with pytest.raises(DataError):
            train_matrix(("a",), np.array([[1], [0]]), ["X", "Y"],
                         np.array([2**62, 2**62]))
        with pytest.raises(DataError):
            train_matrix(("a",), np.array([[1], [0]]), ["X", "Y"],
                         [boxtrace.tree._MAX_FILES, 1])
        mf = train_matrix(("a",), np.array([[1], [0]]), ["X", "Y"],
                          [boxtrace.tree._MAX_FILES - 1, 1])
        assert not mf.model.root.is_leaf

    def test_no_rows_or_one_label_per_row(self):
        symbols, counts = count_matrix([ms_of({"a": 1}), ms_of({"b": 2})])
        with pytest.raises(EmptyCorpus):
            train_matrix(symbols, counts[[]], [])
        with pytest.raises(DimensionMismatch):
            train_matrix(symbols, counts, ["X", "Y", "X"])

    @given(matrix_rows())
    @example((("s0", "s1"), np.array([[1, 0], [2, 0], [0, 3]], np.int32),
              ["A", "A", "B"], [1, 0]))  # one class, a column all zero
    @example((("s0", "s1", "s2"),
              np.array([[1, 0, 0], [0, 0, 2], [0, 1, 2]], np.int32),
              ["A", "B", "B"], [1, 0]))  # two classes, a column all zero
    @settings(max_examples=200, deadline=None)
    def test_rows_of_a_matrix_train_as_their_multisets(self, drawn):
        symbols, counts, labels, rows = drawn
        subset = [labels[i] for i in rows]
        multisets = [Counter({s: int(c) for s, c in zip(symbols, counts[i])
                              if c}) for i in rows]
        for tau in (0.1, 0.5):
            assert dumps_model(train_matrix(symbols, counts[rows], subset,
                                            tau=tau, trained_at="")) \
                == dumps_model(train_model(multisets, subset, tau=tau,
                                           trained_at=""))


def reference_walk(model, row):
    """The leaf label and the decision path of a count row, walked here
    without the library's traversal."""
    steps, node = [], model.root
    while not node.is_leaf:
        j, threshold = node.split.feature_index, node.split.threshold
        branch = "left" if row[j] <= threshold else "right"
        steps.append(PathStep(f"root/{model.vocabulary.symbols[j]}",
                              threshold, row[j], branch))
        node = node.left if branch == "left" else node.right
    return node.label, steps


def model_file(root, vocabulary, classes=("A", "B", "C")):
    model = DecisionTreeModel(root=root, vocabulary=vocabulary,
                              classes=list(classes),
                              class_weights={c: 1.0 for c in classes},
                              params=TreeParams())
    return ModelFile(full_vocabulary=list(vocabulary.symbols),
                     kept=[True] * len(vocabulary), tau=0.5, model=model)


@st.composite
def walk_cases(draw):
    """A random tree over a small vocabulary, and a file's symbols: some
    in the vocabulary, some outside it, some with a count of 0."""
    vocabulary = Vocabulary.from_strings(
        f"moov/trak/s{j}/@f" for j in range(draw(st.integers(1, 6))))
    thresholds = st.one_of(st.sampled_from([-0.5, 0.5, 1.5, 2.5, 1e16]),
                           st.floats(-2, 5, allow_nan=False))
    root = TreeNode(distribution={}, label="")
    open_leaves = [(root, 0)]
    while open_leaves:
        node, depth = open_leaves.pop()
        if depth >= 8 or draw(st.integers(0, 2)) == 0:
            node.label = draw(st.sampled_from(["A", "B", "C"]))
            node.distribution = {node.label: 1.0}
            continue
        node.split = SplitCandidate(
            draw(st.integers(0, len(vocabulary) - 1)), draw(thresholds), 0.0)
        node.left = TreeNode(distribution={}, label="")
        node.right = TreeNode(distribution={}, label="")
        open_leaves += [(node.right, depth + 1), (node.left, depth + 1)]
    names = st.one_of(st.sampled_from(vocabulary.symbols),
                      st.sampled_from(["moov/trak/zz/@f", "free/@count/1"]))
    symbols = Counter(draw(st.dictionaries(
        names, st.one_of(st.just(0), st.integers(0, 2**31 - 1)))))
    return model_file(root, vocabulary), symbols


class TestClassifyWalk:
    """`classify_symbols` walks the tree once over the file's counts; it
    agrees with `predict` and `decision_path` over the vectorized row."""

    @given(walk_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_predict_and_decision_path(self, case):
        mf, symbols = case
        row = vectorize(symbols, mf.model.vocabulary)
        verdict, steps = classify_symbols(mf, symbols)
        assert (verdict, steps) == reference_walk(mf.model, row)
        assert verdict == predict(mf.model, row)
        assert steps == decision_path(mf.model, row)
        assert replay_path(mf.model, steps) == verdict
        assert all(type(step.count) is int for step in steps)

    def test_chain_deeper_than_the_recursion_limit(self):
        # Split k tests symbol k % 3 against k % 4 - 0.5: a file whose
        # counts are all 5 goes right down the whole chain.
        vocabulary = Vocabulary.from_strings(["a/@f", "b/@f", "c/@f"])
        depth = sys.getrecursionlimit() + 500
        leaf = TreeNode(distribution={"B": 1.0}, label="B")
        root = node = TreeNode(distribution={}, label="")
        for k in range(depth):
            node.split = SplitCandidate(k % 3, k % 4 - 0.5, 0.0)
            node.left = TreeNode(distribution={"A": 1.0}, label="A")
            node.right = TreeNode(distribution={}, label="") \
                if k < depth - 1 else leaf
            node = node.right
        mf = model_file(root, vocabulary)
        for symbols in (Counter({"a/@f": 5, "b/@f": 5, "c/@f": 5}),
                        Counter({"a/@f": 5, "b/@f": 0, "zz/@f": 9})):
            row = vectorize(symbols, vocabulary)
            verdict, steps = classify_symbols(mf, symbols)
            assert (verdict, steps) == reference_walk(mf.model, row)
            assert steps == decision_path(mf.model, row)
        assert len(classify_symbols(mf, Counter(
            {"a/@f": 5, "b/@f": 5, "c/@f": 5}))[1]) == depth


class TestClassifyTree:
    def test_classify_matches_predict(self):
        multisets, labels = fig_style_corpus()
        mf = train_model(multisets, labels)
        tree = parse_container(io.BytesIO(FTYP_MIN + mkbox(b"moov", b"")),
                               source_id="probe")
        verdict, steps = classify_symbols(mf, extract_symbols(tree))
        # No XMP_ symbol in the probe: the native branch must win.
        assert verdict == "Native-iOS"
        assert steps[0].branch == "left"

    def test_all_unseen_symbols_hit_zero_vector_leaf(self):
        multisets, labels = fig_style_corpus()
        mf = train_model(multisets, labels)
        zero = vectorize(ms_of(["completely/@novel"]),
                         mf.model.vocabulary)
        assert zero == [0] * len(mf.model.vocabulary)
        expected = predict(mf.model, zero)
        probe = parse_container(io.BytesIO(FTYP_MIN), source_id="probe")
        for _ in range(3):
            verdict, _ = classify_symbols(mf, extract_symbols(probe))
            assert verdict == expected
