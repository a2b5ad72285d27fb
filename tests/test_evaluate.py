"""Manifest handling, scenarios, folds, and the evaluation harness."""

import csv
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import boxtrace.evaluate
import boxtrace.modelfile
import boxtrace.symbols
from boxtrace.errors import (
    DataError,
    EmptyMatrix,
    EmptyScenario,
    MalformedRow,
    SingleDevice,
    UnknownEnum,
)
from boxtrace.evaluate import (
    ConfusionMatrix,
    DatasetManifest,
    ManifestRow,
    balanced_accuracy,
    derive_labels,
    digest_rows,
    format_report_text,
    get_scenario,
    labeled_matrix,
    load_manifest,
    lodo_folds,
    report_to_obj,
    run_scenario,
    scenario_names,
)
from boxtrace.fixtures import FixtureSpec, generate_corpus
from boxtrace.llr import FilterConfig, class_presence, pairwise_keep
from boxtrace.modelfile import dumps_model, train_matrix, train_model
from boxtrace.symbols import default_blacklist, extract_symbols, file_symbols
from boxtrace.bmff import open_box_file, parse_file
from boxtrace.tree import predict
from boxtrace.vectorize import count_matrix

from conftest import FTYP_MIN, mkbox


def row(device="D01", os="iOS", software="none", platform="none",
        file="v.mp4") -> ManifestRow:
    return ManifestRow(file=file, device=device, os=os, software=software,
                       platform=platform, path=Path(f"/nonexistent/{file}"))


def manifest_of(rows) -> DatasetManifest:
    return DatasetManifest(path=Path("manifest.csv"), rows=list(rows))


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    spec = FixtureSpec(seed=11, classes=("native", "exiftool"),
                       videos_per_cell=2)
    return generate_corpus(spec, out)


class TestLoadManifest:
    def write(self, tmp_path, lines):
        path = tmp_path / "manifest.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_valid_rows(self, tmp_path):
        (tmp_path / "v1.mp4").write_bytes(b"x")
        (tmp_path / "v2.mp4").write_bytes(b"x")
        path = self.write(tmp_path, [
            "file,device,os,software,platform",
            "v1.mp4,D05,iOS,none,none",
            "v2.mp4,D20,Android,ffmpeg,youtube",
        ])
        manifest = load_manifest(path)
        assert len(manifest.rows) == 2
        assert manifest.rows[0].software == "none"
        assert manifest.rows[1].platform == "youtube"

    def test_unknown_os_rejected(self, tmp_path):
        (tmp_path / "v.mp4").write_bytes(b"x")
        path = self.write(tmp_path, [
            "file,device,os,software,platform",
            "v.mp4,D17,Windows,none,none",
        ])
        with pytest.raises(UnknownEnum, match="^line 2: "):
            load_manifest(path)

    def test_wrong_column_count_rejected(self, tmp_path):
        path = self.write(tmp_path, [
            "file,device,os,software,platform",
            "v.mp4,D01,iOS,none",
        ])
        with pytest.raises(MalformedRow, match="^line 2: "):
            load_manifest(path)

    def test_bad_header_rejected(self, tmp_path):
        path = self.write(tmp_path, ["path,dev,os,sw,pl"])
        with pytest.raises(MalformedRow):
            load_manifest(path)

    def test_missing_file_warns_and_skips(self, tmp_path):
        (tmp_path / "here.mp4").write_bytes(b"x")
        path = self.write(tmp_path, [
            "file,device,os,software,platform",
            "here.mp4,D01,iOS,none,none",
            "gone.mp4,D02,iOS,none,none",
        ])
        manifest = load_manifest(path)
        assert len(manifest.rows) == 1
        assert manifest.skipped_missing == 1
        assert any("gone.mp4" in w for w in manifest.warnings)

    def test_messages_name_physical_lines(self, tmp_path):
        # Row 2 quotes a file name that holds a newline, so the next
        # record is on line 4, and a blank line puts the one after on 6.
        for name in ("a\nb.mp4", "v.mp4"):
            (tmp_path / name).write_bytes(b"x")
        path = self.write(tmp_path, [
            "file,device,os,software,platform",
            '"a', 'b.mp4",D01,iOS,none,none',
            "gone.mp4,D01,iOS,none,none",
            "",
            "v.mp4,D01,Windows,none,none",
        ])
        with pytest.raises(UnknownEnum, match="^line 6: unknown os"):
            load_manifest(path)
        path.write_text(path.read_text(encoding="utf-8").replace(
            "Windows", "iOS"), encoding="utf-8")
        manifest = load_manifest(path)
        assert [r.file for r in manifest.rows] == ["a\nb.mp4", "v.mp4"]
        assert manifest.warnings == ["line 4: missing file gone.mp4, skipped"]

    def test_field_over_csv_limit_is_malformed_row(self, tmp_path):
        (tmp_path / "v.mp4").write_bytes(b"x")
        path = self.write(tmp_path, [
            "file,device,os,software,platform",
            "v.mp4,D01,iOS,none,none",
            "v.mp4,D01,iOS,none," + "x" * (csv.field_size_limit() + 1),
        ])
        with pytest.raises(MalformedRow, match=r"^line 3: field larger "
                                               r"than field limit"):
            load_manifest(path)

    def test_nul_byte_path_is_data_error(self):
        with pytest.raises(DataError, match="unusable manifest path: "
                                            "embedded null byte"):
            load_manifest("manifest\0.csv")


class TestLabeledMatrix:
    def test_file_listed_twice_is_symbolized_once(self, small_corpus,
                                                  monkeypatch):
        twice = small_corpus.rows[1]
        manifest = manifest_of(small_corpus.rows + [twice])
        calls = []

        def counted(path):
            calls.append(path)
            return open_box_file(path)

        monkeypatch.setattr(boxtrace.symbols, "open_box_file", counted)
        rows, symbols, counts, labels = labeled_matrix(
            manifest, get_scenario("integrity"))
        assert sorted(calls) == sorted({str(r.path) for r in manifest.rows})
        assert rows == manifest.rows
        assert labels == [get_scenario("integrity").label(r) for r in rows]
        expected_symbols, expected_counts = count_matrix(
            [file_symbols(str(r.path))[0] for r in rows])
        assert symbols == expected_symbols
        assert np.array_equal(counts, expected_counts)
        assert np.array_equal(counts[-1], counts[1])

    def test_no_multiset_outlives_its_row(self, small_corpus, monkeypatch):
        # The files' boxes are counted straight into columns: no multiset
        # is built, so none can outlive its row.
        built = []

        class Watched(Counter):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(boxtrace.symbols, "Counter", Watched)
        file_symbols(str(small_corpus.rows[0].path))
        assert built  # the patch sees the multisets `file_symbols` builds
        built.clear()
        rows, _, counts, _ = labeled_matrix(small_corpus,
                                            get_scenario("integrity"))
        assert len(rows) == len(counts) > 2
        assert not built


class TestScenarios:
    def test_software_os_label(self):
        scenario = get_scenario("software_os")
        assert scenario.label(row(software="exiftool", os="iOS")) == \
            "iOS-exiftool"
        assert scenario.label(row(software="none", os="Android")) == \
            "Android-native"

    def test_blind_platform_absorbs_history(self):
        scenario = get_scenario("blind")
        assert scenario.label(row(software="ffmpeg", platform="youtube")) == \
            "YouTube"
        assert scenario.label(row(software="ffmpeg", platform="none")) == \
            "iOS-ffmpeg"

    def test_integrity_labels(self):
        scenario = get_scenario("integrity")
        assert scenario.label(row(software="none")) == "Pristine"
        assert scenario.label(row(software="premiere")) == "Tampered"
        assert not scenario.matches(row(platform="tiktok"))

    def test_software_excludes_platform_rows(self):
        scenario = get_scenario("software")
        assert scenario.matches(row(platform="none"))
        assert not scenario.matches(row(platform="weibo"))
        assert scenario.label(row(software="kdenlive")) == "Kdenlive"

    def test_social_integrity_filters_platform(self):
        scenario = get_scenario("social_integrity:facebook")
        assert scenario.matches(row(platform="facebook"))
        assert not scenario.matches(row(platform="none"))
        assert scenario.label(row(platform="facebook", software="ffmpeg")) == \
            "Tampered"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(UnknownEnum):
            get_scenario("nope")
        with pytest.raises(UnknownEnum):
            get_scenario("social_integrity:myspace")

    def test_every_scenario_on_every_row_kind(self):
        """Each scenario's filter and label on all 60 (os, software,
        platform) combinations, against README's scenario table: None
        where the scenario drops the row."""
        software_class = {"none": "Native", "avidemux": "Avidemux",
                          "exiftool": "Exiftool", "ffmpeg": "ffmpeg",
                          "kdenlive": "Kdenlive", "premiere": "Premiere"}
        platform_class = {"facebook": "Facebook", "tiktok": "TikTok",
                          "weibo": "Weibo", "youtube": "YouTube"}

        def software_os(os, software):
            return f"{os}-{'native' if software == 'none' else software}"

        def integrity(software):
            return "Pristine" if software == "none" else "Tampered"

        expected = {
            "integrity": lambda os, sw, pf:
                integrity(sw) if pf == "none" else None,
            "software": lambda os, sw, pf:
                software_class[sw] if pf == "none" else None,
            "software_os": lambda os, sw, pf:
                software_os(os, sw) if pf == "none" else None,
            "blind": lambda os, sw, pf:
                software_os(os, sw) if pf == "none" else platform_class[pf],
        }
        for platform in platform_class:
            expected[f"social_integrity:{platform}"] = \
                lambda os, sw, pf, p=platform: integrity(sw) if pf == p else None
        assert scenario_names() == list(expected)
        combos = [(os, sw, pf) for os in ("Android", "iOS")
                  for sw in software_class
                  for pf in ("none", *platform_class)]
        assert len(combos) == 60
        for name, label_of in expected.items():
            scenario = get_scenario(name)
            assert scenario.name == name
            for os, sw, pf in combos:
                r = row(os=os, software=sw, platform=pf)
                want = label_of(os, sw, pf)
                assert scenario.matches(r) == (want is not None), (name, r)
                if want is not None:
                    assert scenario.label(r) == want, (name, r)

    def test_empty_scenario_raises(self):
        manifest = manifest_of([row(platform="none")])
        with pytest.raises(EmptyScenario):
            derive_labels(manifest, get_scenario("social_integrity:facebook"))


class TestFolds:
    def test_one_fold_per_device(self):
        rows = [row(device=f"D{i:02d}", file=f"f{i}_{j}.mp4")
                for i in range(5) for j in range(3)]
        folds = lodo_folds(manifest_of(rows))
        assert len(folds) == 5
        for fold in folds:
            train_devices = {r.device for r in fold.train_rows}
            test_devices = {r.device for r in fold.test_rows}
            assert test_devices == {fold.device}
            assert fold.device not in train_devices
            assert len(fold.train_rows) + len(fold.test_rows) == len(rows)

    def test_two_devices_three_rows_each(self):
        rows = [row(device=d, file=f"{d}_{j}.mp4")
                for d in ("DA", "DB") for j in range(3)]
        folds = lodo_folds(manifest_of(rows))
        assert [(len(f.test_rows), len(f.train_rows)) for f in folds] == \
            [(3, 3), (3, 3)]

    def test_single_device_rejected(self):
        with pytest.raises(SingleDevice):
            lodo_folds(manifest_of([row(), row(file="w.mp4")]))

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 3)),
                    min_size=2, max_size=8))
    @settings(max_examples=40)
    def test_fold_count_equals_device_count(self, shape):
        rows = [row(device=f"D{dev:02d}", file=f"f{i}_{j}")
                for i, (dev, k) in enumerate(shape) for j in range(k)]
        manifest = manifest_of(rows)
        if len(manifest.devices()) < 2:
            with pytest.raises(SingleDevice):
                lodo_folds(manifest)
        else:
            assert len(lodo_folds(manifest)) == len(manifest.devices())


class TestBalancedAccuracy:
    def cm(self, counts, classes=("A", "B")):
        matrix = ConfusionMatrix.empty(classes)
        matrix.counts = np.array(counts, dtype=np.int64)
        return matrix

    def test_mean_of_recalls(self):
        assert balanced_accuracy(self.cm([[10, 0], [5, 5]])) == \
            pytest.approx(0.75)

    def test_perfect_diagonal(self):
        assert balanced_accuracy(self.cm([[7, 0], [0, 3]])) == 1.0

    def test_always_one_side(self):
        assert balanced_accuracy(self.cm([[10, 0], [10, 0]])) == \
            pytest.approx(0.5)

    def test_absent_class_excluded(self):
        cm = self.cm([[4, 0, 0], [0, 0, 0], [1, 0, 3]], classes=("A", "B", "C"))
        assert balanced_accuracy(cm) == pytest.approx((1.0 + 0.75) / 2)

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyMatrix):
            balanced_accuracy(self.cm([[0, 0], [0, 0]]))

    @given(st.integers(2, 5), st.integers(1, 4))
    @settings(max_examples=30)
    def test_duplication_invariance(self, size, k):
        rng = np.random.default_rng(size * 10 + k)
        counts = rng.integers(0, 9, size=(size, size))
        counts[0, 0] += 1  # ensure at least one populated row
        base = ConfusionMatrix.empty([f"C{i}" for i in range(size)])
        base.counts = counts.copy()
        duplicated = ConfusionMatrix.empty([f"C{i}" for i in range(size)])
        duplicated.counts = counts.copy()
        duplicated.counts[0] *= k
        assert balanced_accuracy(duplicated) == \
            pytest.approx(balanced_accuracy(base), abs=1e-12)


class TestRunScenario:
    def test_separable_corpus_perfect_accuracy(self, small_corpus):
        report = run_scenario(small_corpus, get_scenario("integrity"))
        assert report.global_balanced_accuracy == 1.0
        assert len(report.folds) == len(small_corpus.devices())
        assert all(f.balanced_accuracy == 1.0 for f in report.folds)

    def test_two_class_rate_identity(self, small_corpus):
        report = run_scenario(small_corpus, get_scenario("integrity"))
        assert report.positive_class == "Tampered"
        assert report.global_balanced_accuracy == \
            pytest.approx((report.tpr + report.tnr) / 2, abs=1e-12)

    def test_confusion_rows_sum_to_one(self, small_corpus):
        report = run_scenario(small_corpus, get_scenario("integrity"))
        sums = report.mean_confusion.sum(axis=1)
        assert np.allclose(sums, 1.0)

    def test_leakage_freedom(self, small_corpus, tmp_path):
        """Deleting the held-out device from the manifest up front must
        reproduce each fold's model byte for byte."""
        scenario = get_scenario("integrity")
        report = run_scenario(small_corpus, scenario)
        labeled = derive_labels(small_corpus, scenario)
        manifest_text = small_corpus.path.read_text(encoding="utf-8")
        for fold in report.folds[:2]:
            kept_lines = [line for line in manifest_text.splitlines()
                          if not line.split(",")[1] == fold.device]
            reduced_path = small_corpus.path.parent / f"no_{fold.device}.csv"
            reduced_path.write_text("\n".join(kept_lines) + "\n",
                                    encoding="utf-8")
            reduced = load_manifest(reduced_path)
            pairs = derive_labels(reduced, scenario)
            multisets = [extract_symbols(parse_file(str(r.path)),
                                         default_blacklist())
                         for r, _ in pairs]
            retrained = train_model(
                multisets, [label for _, label in pairs],
                scenario=scenario.name,
                manifest_digest=digest_rows([r for r, _ in pairs]),
                trained_at="")
            assert dumps_model(retrained) == dumps_model(fold.model)
        assert labeled  # the scenario covered rows in the first place

    def test_report_serializes(self, small_corpus):
        report = run_scenario(small_corpus, get_scenario("software_os"),
                              filter_cfg=FilterConfig(0.5))
        obj = report_to_obj(report)
        assert obj["scenario"] == "software_os"
        assert len(obj["folds"]) == len(small_corpus.devices())
        text = format_report_text(report)
        assert "Global balanced accuracy" in text
        for device in small_corpus.devices():
            assert device in text

    def test_fold_timings_recorded(self, small_corpus):
        report = run_scenario(small_corpus, get_scenario("integrity"))
        assert all(f.train_seconds >= 0 and f.test_seconds >= 0
                   for f in report.folds)
        # The folds train together; each fold's time is its even share.
        obj = report_to_obj(report)
        assert obj["train_seconds"] == report.train_seconds > 0
        assert len({f.train_seconds for f in report.folds}) == 1
        assert sum(f["train_seconds"] for f in obj["folds"]) == \
            pytest.approx(obj["train_seconds"], rel=1e-9)


class TestFoldsThatPartWays:
    """Holding out one device changes the root split, so the folds' trees
    part ways at the root; each is still the tree retrained without the
    device."""

    @pytest.fixture(scope="class")
    def parted(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("parted")
        # mk0a marks the tampered files of D01 and D02 but also D03's
        # pristine ones; mk1b marks every tampered file.
        tampered = (b"mk0a", b"mk1b")
        cells = [("D01", "none", ()), ("D01", "exiftool", tampered),
                 ("D02", "none", ()), ("D02", "exiftool", tampered),
                 ("D03", "none", (b"mk0a",)), ("D03", "exiftool", tampered)]
        lines = [",".join(("file", "device", "os", "software", "platform"))]
        for device, software, boxes in cells:
            for k in range(2):
                name = f"{device}_{software}_{k}.mp4"
                (out / name).write_bytes(
                    FTYP_MIN + b"".join(mkbox(box) for box in boxes))
                lines.append(f"{name},{device},iOS,{software},none")
        (out / "manifest.csv").write_text("\n".join(lines) + "\n",
                                          encoding="utf-8")
        return load_manifest(out / "manifest.csv")

    def test_fold_trees_differ_and_match_retraining(self, parted):
        scenario = get_scenario("integrity")
        report = run_scenario(parted, scenario)
        roots = {}
        for fold in report.folds:
            model = fold.model.model
            roots[fold.device] = \
                model.vocabulary.symbols[model.root.split.feature_index]
            kept = [(r, label) for r, label in derive_labels(parted, scenario)
                    if r.device != fold.device]
            retrained = train_model(
                [file_symbols(str(r.path))[0] for r, _ in kept],
                [label for _, label in kept], scenario=scenario.name,
                manifest_digest=digest_rows([r for r, _ in kept]),
                trained_at="")
            assert dumps_model(retrained) == dumps_model(fold.model)
        assert roots["D03"].startswith("mk0a/")
        assert roots["D01"].startswith("mk1b/")
        assert roots["D02"].startswith("mk1b/")


class TestScenarioFolds:
    """Folds come from the devices with a row in the scenario, not from
    every device of the manifest."""

    @pytest.fixture(scope="class")
    def uploads(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("uploads")
        spec = FixtureSpec(seed=5, classes=("native", "youtube"),
                           videos_per_cell=2)
        return generate_corpus(spec, out)

    def without_uploads_of(self, corpus, devices, name):
        lines = corpus.path.read_text(encoding="utf-8").splitlines()
        kept = [line for line in lines
                if not (line.split(",")[1] in devices
                        and line.split(",")[4] == "youtube")]
        path = corpus.path.parent / name
        path.write_text("\n".join(kept) + "\n", encoding="utf-8")
        return load_manifest(path)

    def test_devices_without_scenario_rows_get_no_fold(self, uploads):
        manifest = self.without_uploads_of(uploads, {"D01", "D02", "D03"},
                                           "partial.csv")
        assert manifest.devices() == uploads.devices()
        report = run_scenario(manifest, get_scenario("social_integrity:youtube"))
        assert [f.device for f in report.folds] == ["D04", "D05", "D06"]
        assert [(f.n_train, f.n_test) for f in report.folds] == [(4, 2)] * 3
        assert all(f.balanced_accuracy == 1.0 for f in report.folds)

    def test_scenario_rows_from_one_device_rejected(self, uploads):
        manifest = self.without_uploads_of(
            uploads, {"D02", "D03", "D04", "D05", "D06"}, "one_device.csv")
        with pytest.raises(SingleDevice):
            run_scenario(manifest, get_scenario("social_integrity:youtube"))


@st.composite
def scenario_matrices(draw):
    """A scenario's rows, symbols, count matrix and labels, as
    `labeled_matrix` gives them: rows of one device and label are often
    equal, so they collapse into entries of uneven multiplicity."""
    n_devices = draw(st.integers(2, 4))
    n_columns = draw(st.integers(1, 5))
    patterns = draw(st.lists(st.lists(st.sampled_from([0, 0, 1, 2, 5]),
                                      min_size=n_columns,
                                      max_size=n_columns),
                             min_size=1, max_size=4))
    n_rows = draw(st.integers(2, 16))
    devices = [0, 1] + draw(st.lists(st.integers(0, n_devices - 1),
                                     min_size=n_rows - 2,
                                     max_size=n_rows - 2))
    labels = draw(st.lists(st.sampled_from("ABC"), min_size=n_rows,
                           max_size=n_rows))
    counts = np.array(draw(st.lists(st.sampled_from(patterns),
                                    min_size=n_rows, max_size=n_rows)),
                      dtype=np.int32).reshape(n_rows, n_columns)
    rows = [row(device=f"D{d}", file=f"f{i}.mp4")
            for i, d in enumerate(devices)]
    symbols = tuple(f"s{j}" for j in range(n_columns))
    tau = draw(st.sampled_from([0.1, 0.5]))
    return rows, symbols, counts, labels, tau


def reference_folds(rows, symbols, counts, labels, tau):
    """The fold loop before rows became weighted entries: each fold trains
    on a copy of its own rows and tests every held-out row."""
    column = {s: j for j, s in enumerate(symbols)}
    classes = sorted(set(labels))
    for device in sorted({r.device for r in rows}):
        train = [i for i, r in enumerate(rows) if r.device != device]
        mf = train_matrix(symbols, counts[train], [labels[i] for i in train],
                          tau=tau, scenario="blind",
                          manifest_digest=digest_rows([rows[i] for i in train]),
                          trained_at="")
        kept = [column[s] for s in mf.model.vocabulary.symbols]
        cm = ConfusionMatrix.empty(classes)
        for i, r in enumerate(rows):
            if r.device == device:
                cm.add(labels[i], predict(mf.model, counts[i, kept].tolist()))
        yield device, len(train), mf, cm


class TestFoldsFromEntries:
    """Folds trained on distinct weighted entries, the held-out device's
    at multiplicity 0, are the folds trained on each fold's own rows, and
    their presence tables those of the fold's rows."""

    @given(scenario_matrices())
    @example(([row(device="D0", file="a"), row(device="D0", file="b"),
               row(device="D1", file="c"), row(device="D1", file="d")],
              ("s0", "s1"), np.array([[1, 0], [1, 0], [0, 1], [0, 2]],
                                     dtype=np.int32),
              ["A", "A", "A", "B"], 0.5))  # D1's fold has one class
    @example(([row(device="D0", file="a"), row(device="D1", file="b"),
               row(device="D1", file="c"), row(device="D2", file="d")],
              ("s0", "s1"), np.array([[1, 0], [1, 1], [1, 1], [0, 2]],
                                     dtype=np.int32),
              ["C", "A", "A", "B"], 0.1))  # D0's fold lacks class C
    @settings(max_examples=150, deadline=None)
    def test_match_folds_trained_on_their_rows(self, drawn):
        rows, symbols, counts, labels, tau = drawn
        classes = sorted(set(labels))
        y = np.array([classes.index(label) for label in labels])
        filters = []

        def spy(presence, sizes, tau):
            filters.append((presence, sizes))
            return pairwise_keep(presence, sizes, tau)

        with mock.patch.object(boxtrace.evaluate, "labeled_matrix",
                               lambda *_: (rows, symbols, counts.copy(),
                                           labels)), \
                mock.patch.object(boxtrace.modelfile, "pairwise_keep", spy):
            report = run_scenario(manifest_of(rows), get_scenario("blind"),
                                  filter_cfg=FilterConfig(tau))
        expected = list(reference_folds(rows, symbols, counts, labels, tau))
        assert [f.device for f in report.folds] == [d for d, *_ in expected]
        (presence, sizes), = filters  # one filter pass serves every fold
        for f, (fold, (device, n_train, mf, cm)) in enumerate(zip(
                report.folds, expected)):
            train = [i for i, r in enumerate(rows) if r.device != device]
            assert np.array_equal(presence[f], class_presence(
                counts[train], y[train], len(classes)))
            assert sizes[f].tolist() == np.bincount(
                y[train], minlength=len(classes)).tolist()
            assert dumps_model(fold.model) == dumps_model(mf)
            assert (fold.n_train, fold.n_test) == (n_train,
                                                   len(rows) - n_train)
            assert fold.confusion.counts.tolist() == cm.counts.tolist()
