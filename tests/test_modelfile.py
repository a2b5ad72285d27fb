"""Canonical serialization and the train/classify pipeline."""

import io
import json
from collections import Counter

import pytest

from boxtrace.bmff import parse_container
from boxtrace.errors import ModelFormatError
from boxtrace.modelfile import (
    canonical_dumps,
    classify_tree,
    dumps_model,
    load_model,
    loads_model,
    model_digest,
    resolve_timestamp,
    save_model,
    train_model,
)
from boxtrace.tree import TreeParams, predict
from boxtrace.vectorize import vectorize

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


class TestCanonicalDumps:
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


class TestClassifyTree:
    def test_classify_matches_predict(self):
        multisets, labels = fig_style_corpus()
        mf = train_model(multisets, labels)
        tree = parse_container(io.BytesIO(FTYP_MIN + mkbox(b"moov", b"")),
                               source_id="probe")
        verdict, steps = classify_tree(mf, tree)
        # No XMP_ symbol in the probe: the native branch must win.
        assert verdict == "Native-iOS"
        assert steps[0].branch == "left"

    def test_all_unseen_symbols_hit_zero_vector_leaf(self):
        multisets, labels = fig_style_corpus()
        mf = train_model(multisets, labels)
        zero = vectorize(ms_of(["completely/@novel"]),
                         mf.model.vocabulary)
        assert zero.l1() == 0
        expected = predict(mf.model, zero)
        probe = parse_container(io.BytesIO(FTYP_MIN), source_id="probe")
        for _ in range(3):
            verdict, _ = classify_tree(mf, probe)
            assert verdict == expected
