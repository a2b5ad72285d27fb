"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. The
final criterion needs the external full-scale dataset and is skipped
unless BOXTRACE_FULL_MANIFEST points at its manifest CSV.
"""

import io
import math
import os
import random
import struct
import time
from collections import Counter

import numpy as np
import pytest

from boxtrace.bmff import parse_container, parse_file
from boxtrace.cli import main
from boxtrace.errors import NotBmff, TruncatedBox, ZeroSizeNonFinal
from boxtrace.evaluate import (
    ConfusionMatrix,
    DatasetManifest,
    ManifestRow,
    balanced_accuracy,
    derive_labels,
    digest_rows,
    get_scenario,
    load_manifest,
    lodo_folds,
    run_scenario,
)
from boxtrace.fixtures import FixtureSpec, generate_corpus
from boxtrace.llr import FilterConfig, class_frequency, filter_vocabulary, llr
from boxtrace.modelfile import dumps_model, loads_model, train_model
from boxtrace.symbols import default_blacklist, extract_symbols
from boxtrace.tree import best_split, decision_path, predict, replay_path
from boxtrace.vectorize import build_vocabulary, vectorize

from conftest import FTYP_MIN, mkbox, mkfull, mkmvhd
from test_tree import fv, oracle_best_split, random_corpus


def parse_bytes(data: bytes):
    return parse_container(io.BytesIO(data), source_id="acceptance")


def ms_of(paths):
    return Counter(paths)


@pytest.fixture(scope="module")
def desk_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk_corpus")
    return generate_corpus(FixtureSpec(seed=7), out)


def test_criterion_1_parser_fixtures():
    started = time.perf_counter()

    # 1: worked ftyp-only example, exact expected tree
    tree = parse_bytes(FTYP_MIN)
    assert tree.root.children[0].fields == [
        ("majorBrand", "isom"), ("minorVersion", "0"),
        ("compatibleBrand_1", "isom")]

    # 2: nested moov with sibling traks
    trak = mkbox(b"trak", mkbox(b"tref", bytes(4)))
    tree = parse_bytes(FTYP_MIN + mkbox(b"moov", mkmvhd() + trak + trak))
    assert [c.name for c in tree.root.children[1].children] == \
        ["mvhd", "trak", "trak"]

    # 3: 64-bit large size
    data = FTYP_MIN + struct.pack(">I4sQ", 1, b"blob", 16 + 6) + bytes(6)
    node = parse_bytes(data).root.children[1]
    assert node.header.large_size == 22 and node.fields[1] == ("count", "6")

    # 4: size-0 final top-level box
    node = parse_bytes(FTYP_MIN + struct.pack(">I4s", 0, b"mdat")
                       + bytes(64)).root.children[1]
    assert node.fields == [("stuff", "opaque"), ("count", "64")]

    # 5: uuid box with userType
    data = FTYP_MIN + struct.pack(">I4s", 28, b"uuid") + bytes(range(16)) + bytes(4)
    node = parse_bytes(data).root.children[1]
    assert node.fields == [("userType", "00010203-0405-0607-0809-0a0b0c0d0e0f")]

    # 6: truncated box errors with its offset
    with pytest.raises(TruncatedBox) as err:
        parse_bytes(struct.pack(">I4s", 100, b"ftyp") + bytes(32))
    assert err.value.offset == 0

    # 7: unknown box becomes opaque
    node = parse_bytes(FTYP_MIN + mkbox(b"zzzz", bytes(3))).root.children[1]
    assert node.fields == [("stuff", "opaque"), ("count", "3")]

    # 8: empty file
    with pytest.raises(NotBmff):
        parse_bytes(b"")

    # 9: arbitrary text
    with pytest.raises(NotBmff):
        parse_bytes(b"Lorem ipsum dolor sit amet, consectetur adipiscing.")

    # 10: nested size-0 box
    with pytest.raises(ZeroSizeNonFinal):
        parse_bytes(FTYP_MIN + mkbox(b"moov",
                                     struct.pack(">I4s", 0, b"free") + bytes(4)))

    # 11: short known box downgrades with a warning
    tree = parse_bytes(FTYP_MIN + mkfull(b"hdlr", 0, 0, bytes(4)))
    assert tree.root.children[1].fields[0] == ("stuff", "opaque")
    assert len(tree.warnings) == 1

    # 12: non-printable type code is hex-escaped
    assert parse_bytes(FTYP_MIN + mkbox(b"\xa9nam", b"x")).root.children[1] \
        .name == "\\xa9nam"

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: 12 hand-crafted parser fixtures "
          f"in {elapsed:.3f}s")


def _fig_corpus():
    """Two classes over four devices differing solely in one symbol."""
    base = ["ftyp/@majorBrand", "moov/mvhd/@timescale", "mdat/@stuff"]
    samples = []
    for d in range(1, 5):
        samples.append((ms_of(base), "Native-iOS", f"dev{d}"))
        samples.append((ms_of(base + ["moov/udta/XMP_/@stuff"]),
                        "Exiftool-iOS", f"dev{d}"))
    return samples


def test_criterion_2_fig_tree_reproduction():
    samples = _fig_corpus()
    multisets = [ms for ms, _, _ in samples]
    labels = [label for _, label, _ in samples]
    mf = train_model(multisets, labels, tau=0.5, trained_at="")
    root = mf.model.root

    # Exact tree-shape match: depth 1, split on the one symbol at 0.5.
    assert not root.is_leaf
    assert mf.model.vocabulary.symbols[root.split.feature_index] == \
        "moov/udta/XMP_/@stuff"
    assert root.split.threshold == 0.5
    assert root.left.is_leaf and root.left.label == "Native-iOS"
    assert root.right.is_leaf and root.right.label == "Exiftool-iOS"

    # 100% training accuracy.
    for ms, label, _ in samples:
        assert predict(mf.model, vectorize(ms, mf.model.vocabulary)) == label

    # 100% leave-one-device-out accuracy.
    devices = sorted({device for _, _, device in samples})
    for held_out in devices:
        train = [(ms, l) for ms, l, d in samples if d != held_out]
        test = [(ms, l) for ms, l, d in samples if d == held_out]
        fold_model = train_model([ms for ms, _ in train],
                                 [l for _, l in train], tau=0.5, trained_at="")
        for ms, label in test:
            vector = vectorize(ms, fold_model.model.vocabulary)
            assert predict(fold_model.model, vector) == label
    print(f"\nACCEPTANCE 2 PASS: depth-1 tree splits "
          f"moov/udta/XMP_/@stuff at 0.5; train and LODO accuracy 100%")


def test_criterion_3_split_oracle_agreement():
    rng = random.Random(20260810)
    agreements = 0
    for _ in range(200):
        rows, labels, weights = random_corpus(rng)
        vectors = [fv(*row) for row in rows]
        got = best_split(vectors, labels, weights)
        expected = oracle_best_split(rows, labels, weights)
        got_key = None if got is None else (got.feature_index, got.threshold)
        assert got_key == expected, (rows, labels, weights)
        agreements += 1
    assert agreements == 200
    print("\nACCEPTANCE 3 PASS: best_split matches the exhaustive oracle "
          "on 200/200 randomized corpora")


def test_criterion_4_llr_suite():
    # Finiteness with class-exclusive symbols.
    exclusive = ([(ms_of(["only/in/@u"]), "U") for _ in range(5)]
                 + [(ms_of(["only/in/@v"]), "V") for _ in range(5)])
    table = class_frequency(exclusive)
    for symbol in ("only/in/@u", "only/in/@v"):
        for cu, cv in (("U", "V"), ("V", "U")):
            assert math.isfinite(llr(symbol, cu, cv, table))

    # Kept-set monotonicity over tau.
    mixed = ([(ms_of(["shared/@a", "rare/@b"] if i % 2 else ["shared/@a"]), "U")
              for i in range(6)]
             + [(ms_of(["shared/@a", "only/@c"]), "V")
                for _ in range(6)])
    vocab = build_vocabulary([ms for ms, _ in mixed])
    previous = None
    for tau in (0.1, 0.5, 1.0, 2.0):
        kept, _ = filter_vocabulary(vocab, mixed, FilterConfig(tau))
        if previous is not None:
            assert set(kept.symbols) <= previous
        previous = set(kept.symbols)

    # Antisymmetry to 1e-12 over random presence tables.
    rng = random.Random(44)
    for _ in range(100):
        n_u, n_v = rng.randint(1, 12), rng.randint(1, 12)
        k_u, k_v = rng.randint(0, n_u), rng.randint(0, n_v)
        corpus = ([(ms_of(["s/@x"] if i < k_u else ["o/@y"]), "U")
                   for i in range(n_u)]
                  + [(ms_of(["s/@x"] if i < k_v else ["o/@y"]), "V")
                     for i in range(n_v)])
        table = class_frequency(corpus)
        assert abs(llr("s/@x", "U", "V", table)
                   + llr("s/@x", "V", "U", table)) <= 1e-12

    # Worked value: presence 3 of 4 vs 0 of 2 gives ln 2.4.
    corpus = ([(ms_of(["s/@x"] if i < 3 else ["o/@y"]), "U")
               for i in range(4)]
              + [(ms_of(["o/@y"]), "V") for _ in range(2)])
    value = llr("s/@x", "U", "V", class_frequency(corpus))
    assert abs(value - 0.875469) < 1e-6
    print("\nACCEPTANCE 4 PASS: LLRs finite, kept-set monotone over tau, "
          f"antisymmetric to 1e-12, ln 2.4 = {value:.6f}")


def _random_manifest(rng: random.Random) -> DatasetManifest:
    n_devices = rng.randint(2, 9)
    rows = []
    for d in range(n_devices):
        for j in range(rng.randint(1, 4)):
            rows.append(ManifestRow(
                file=f"f{d}_{j}.mp4", device=f"D{d:02d}",
                os=rng.choice(("Android", "iOS")),
                software=rng.choice(("none", "ffmpeg")),
                platform="none", path=None))
    return DatasetManifest(path=None, rows=rows)


def test_criterion_5_evaluation_invariants(tmp_path):
    # Fold count equals device count on randomized manifests.
    rng = random.Random(515)
    for _ in range(25):
        manifest = _random_manifest(rng)
        folds = lodo_folds(manifest)
        assert len(folds) == len(manifest.devices())
        for fold in folds:
            assert {r.device for r in fold.test_rows} == {fold.device}

    # Leakage freedom: deleting the held-out device's rows beforehand
    # yields a byte-identical model file for every fold.
    corpus = generate_corpus(
        FixtureSpec(seed=21, classes=("native", "ffmpeg"), videos_per_cell=2),
        tmp_path / "leak")
    scenario = get_scenario("integrity")
    report = run_scenario(corpus, scenario)
    manifest_lines = corpus.path.read_text(encoding="utf-8").splitlines()
    for fold in report.folds:
        kept = [line for line in manifest_lines
                if line.split(",")[1] != fold.device]
        reduced_path = corpus.path.parent / f"reduced_{fold.device}.csv"
        reduced_path.write_text("\n".join(kept) + "\n", encoding="utf-8")
        pairs = derive_labels(load_manifest(reduced_path), scenario)
        multisets = [extract_symbols(parse_file(str(r.path)),
                                     default_blacklist()) for r, _ in pairs]
        retrained = train_model(multisets, [l for _, l in pairs],
                                scenario=scenario.name,
                                manifest_digest=digest_rows(
                                    [r for r, _ in pairs]),
                                trained_at="")
        assert dumps_model(retrained) == dumps_model(fold.model)

    # Two-class identity to 1e-12.
    assert report.positive_class == "Tampered"
    assert abs(report.global_balanced_accuracy
               - (report.tpr + report.tnr) / 2) <= 1e-12

    # Duplication invariance of balanced accuracy.
    rng = np.random.default_rng(99)
    for _ in range(25):
        size = rng.integers(2, 6)
        counts = rng.integers(0, 8, size=(size, size))
        counts[0, 0] += 1
        base = ConfusionMatrix.empty([f"C{i}" for i in range(size)])
        base.counts = counts.copy()
        dup = ConfusionMatrix.empty([f"C{i}" for i in range(size)])
        dup.counts = counts.copy()
        dup.counts[0] *= int(rng.integers(2, 5))
        assert abs(balanced_accuracy(base) - balanced_accuracy(dup)) <= 1e-12
    print("\nACCEPTANCE 5 PASS: fold counts, per-fold leakage-free "
          "byte-identity, bacc == (TPR+TNR)/2, duplication invariance")


def test_criterion_6_explanation_self_verification(desk_corpus):
    scenario = get_scenario("blind")
    report = run_scenario(desk_corpus, scenario)
    labeled = derive_labels(desk_corpus, scenario)
    checked = 0
    for fold in report.folds:
        test_rows = [(r, l) for r, l in labeled if r.device == fold.device]
        for manifest_row, _ in test_rows:
            tree = parse_file(str(manifest_row.path))
            ms = extract_symbols(tree, default_blacklist())
            vector = vectorize(ms, fold.model.model.vocabulary)
            verdict = predict(fold.model.model, vector)
            steps = decision_path(fold.model.model, vector)
            assert replay_path(fold.model.model, steps) == verdict
            checked += 1
    assert checked == len(labeled)
    print(f"\nACCEPTANCE 6 PASS: decision-path replay reproduced predict "
          f"for {checked}/{checked} test predictions")


def test_criterion_7_end_to_end_desk_scale(desk_corpus, capsys):
    started = time.perf_counter()
    code = main(["evaluate", str(desk_corpus.path), "--scenario", "blind"])
    elapsed = time.perf_counter() - started
    assert code == 0
    out = capsys.readouterr().out
    assert "Global balanced accuracy: 1.0000" in out
    device_lines = [line for line in out.splitlines()
                    if line.startswith(tuple(desk_corpus.devices()))]
    assert len(device_lines) == len(desk_corpus.devices()) == 6
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 7 PASS: blind scenario on 6x4x4 corpus reached "
          f"balanced accuracy 1.00 in {elapsed:.2f}s")


def test_criterion_8_model_round_trip(desk_corpus, tmp_path):
    checked = 0
    samples = _fig_corpus()
    fig_model = train_model([ms for ms, _, _ in samples],
                            [l for _, l, _ in samples], trained_at="")
    report = run_scenario(desk_corpus, get_scenario("blind"))
    for mf in [fig_model] + [fold.model for fold in report.folds]:
        first = dumps_model(mf)
        second = dumps_model(loads_model(first))
        assert first == second
        path = tmp_path / f"model_{checked}.json"
        path.write_text(first, encoding="ascii")
        assert dumps_model(loads_model(path.read_text(encoding="ascii"))) == first
        checked += 1
    print(f"\nACCEPTANCE 8 PASS: save/load/save byte-identity on "
          f"{checked} models")


def test_criterion_9_full_dataset_optional():
    manifest_path = os.environ.get("BOXTRACE_FULL_MANIFEST")
    if not manifest_path:
        print("\nACCEPTANCE 9 SKIP (optional): set BOXTRACE_FULL_MANIFEST to the "
              "full-scale dataset manifest to run")
        pytest.skip("BOXTRACE_FULL_MANIFEST not set; full-scale dataset not present")
    manifest = load_manifest(manifest_path)
    integrity = run_scenario(manifest, get_scenario("integrity"))
    assert integrity.global_balanced_accuracy >= 0.95
    software = run_scenario(manifest, get_scenario("software"))
    assert software.global_balanced_accuracy >= 0.93
    mean_train = np.mean([f.train_seconds for f in integrity.folds])
    assert mean_train < 310.0  # same order as the reference fold time
    print(f"\nACCEPTANCE 9 PASS: integrity "
          f"{integrity.global_balanced_accuracy:.3f}, software "
          f"{software.global_balanced_accuracy:.3f}, "
          f"{mean_train:.1f}s mean fold training")
