"""Command-line behavior: outputs, exit codes, error records."""

import contextlib
import hashlib
import io
import json
import os
import random
import struct
import subprocess
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxtrace
from boxtrace import cli as cli_module
from boxtrace import symbols as symbols_module
from boxtrace.bmff import parse_file, walk_boxes
from boxtrace.cli import _error_line, _verdict_line, main
from boxtrace.errors import ParseError
from boxtrace.evaluate import derive_labels, digest_rows, get_scenario
from boxtrace.fixtures import FixtureSpec, generate_corpus
from boxtrace.llr import FilterConfig
from boxtrace.modelfile import (
    canonical_dumps,
    classify_symbols,
    dumps_model,
    load_model,
    save_model,
    train_model,
)
from boxtrace.symbols import _decoded_boxes, file_symbols
from boxtrace.tree import PathStep, TreeParams, preorder, replay_path
from boxtrace.vectorize import vectorize
from conftest import box_spans, grown, hostile, mkbox, unique_keys


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_corpus")
    generate_corpus(FixtureSpec(seed=3, classes=("native", "exiftool"),
                                videos_per_cell=2), out)
    return out


@pytest.fixture()
def trained_model(corpus_dir, tmp_path):
    model_path = tmp_path / "model.json"
    code = main(["train", str(corpus_dir / "manifest.csv"),
                 "--scenario", "integrity", "--out", str(model_path)])
    assert code == 0
    return model_path


def chain_model_text(model_path, depth):
    """The model file at `model_path` with its tree replaced by a chain of
    `depth` splits on feature 0, each sending a count of 0 or more right."""
    obj = json.loads(model_path.read_text(encoding="ascii"))
    assert any(obj["filter"]["kept"])
    label = obj["classes"][0]
    leaf = {"label": label, "distribution": {label: 1.0}}
    obj["tree"] = [{"feature": 0, "threshold": -0.5}, leaf] * depth + [leaf]
    return canonical_dumps(obj)


class TestParseCommand:
    def test_tree_dump(self, tiny_ftyp_file, capsys):
        assert main(["parse", str(tiny_ftyp_file)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "ftyp"
        assert "  @majorBrand: isom" in out

    def test_symbol_dump_pairs(self, tiny_ftyp_file, capsys):
        assert main(["parse", str(tiny_ftyp_file), "--symbols"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # Three decoded fields, each with its field- and value-symbol line.
        assert len(lines) == 6
        kinds = [line.split("\t")[1] for line in lines]
        assert kinds.count("field") == 3 and kinds.count("value") == 3

    def test_symbol_dump_minimal_ftyp(self, tmp_path, capsys):
        # A 12-byte ftyp is too short for its schema, so it downgrades to
        # an opaque node whose two field-symbols are the whole dump (the
        # stuff/count values are blacklisted).
        minimal = tmp_path / "minimal.mp4"
        minimal.write_bytes(bytes.fromhex("0000000c") + b"ftyp" + b"isom")
        assert main(["parse", str(minimal), "--symbols"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 2
        assert lines[0] == "1\tfield\tftyp/@count"
        assert lines[1] == "1\tfield\tftyp/@stuff"
        assert captured.err.startswith("warning: box 'ftyp' at offset 0: ")

    def test_json_dump_ordered(self, tiny_ftyp_file, capsys):
        assert main(["parse", str(tiny_ftyp_file), "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj[0]["name"] == "ftyp"

    def test_non_bmff_exits_2_with_error_name(self, tmp_path, capsys):
        bad = tmp_path / "not_video.txt"
        bad.write_text("hello world, definitely text\n")
        assert main(["parse", str(bad)]) == 2
        assert "NotBmff" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--symbols"]],
                             ids=["tree", "symbols"])
    def test_nul_byte_path_exits_2(self, capsys, flags):
        assert main(["parse", "a\0b", *flags]) == 2
        assert capsys.readouterr().err == \
            "NotBmff: unusable path: embedded null byte\n"


class TestTrainCommand:
    def test_writes_model(self, trained_model):
        mf = load_model(str(trained_model))
        assert mf.scenario == "integrity"
        assert set(mf.model.classes) == {"Pristine", "Tampered"}

    def test_extreme_tau_warns(self, corpus_dir, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        code = main(["train", str(corpus_dir / "manifest.csv"),
                     "--scenario", "integrity", "--tau", "1e9",
                     "--out", str(model_path)])
        assert code == 0
        assert "filtered out every symbol" in capsys.readouterr().err
        assert load_model(str(model_path)).model.root.is_leaf

    @pytest.mark.parametrize("epoch", ["abc", "1e3", "-99999999999999",
                                       "99999999999999999999"])
    def test_malformed_source_date_epoch_is_data_error(
            self, corpus_dir, tmp_path, monkeypatch, capsys, epoch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        model_path = tmp_path / "m.json"
        code = main(["train", str(corpus_dir / "manifest.csv"),
                     "--scenario", "integrity", "--out", str(model_path)])
        assert code == 65
        err = capsys.readouterr().err
        assert err.startswith(f"DataError: SOURCE_DATE_EPOCH={epoch!r} ")
        assert err.count("\n") == 1
        assert not model_path.exists()

    @pytest.mark.parametrize("listed", ["corpus", "missing files"])
    def test_malformed_source_date_epoch_reads_no_file(
            self, corpus_dir, tmp_path, monkeypatch, capsys, listed):
        # The timestamp is resolved before the manifest is loaded: no file
        # is counted, and no missing file is reported.
        manifest = corpus_dir / "manifest.csv"
        if listed == "missing files":
            manifest = tmp_path / "missing.csv"
            manifest.write_text("file,device,os,software,platform\n"
                                "gone.mp4,D01,iOS,none,none\n"
                                "lost.mp4,D02,iOS,exiftool,none\n",
                                encoding="utf-8")

        def never(paths):
            raise AssertionError("file_count_matrix was called")

        monkeypatch.setattr(boxtrace.evaluate, "file_count_matrix", never)
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "abc")
        model_path = tmp_path / "m.json"
        assert main(["train", str(manifest), "--scenario", "integrity",
                     "--out", str(model_path)]) == 65
        err = capsys.readouterr().err
        assert err.startswith("DataError: SOURCE_DATE_EPOCH='abc' ")
        assert err.count("\n") == 1
        assert not model_path.exists()

    @pytest.mark.parametrize("epoch, stamp", [
        (" 12 ", "1970-01-01T00:00:12+00:00"),
        ("-1", "1969-12-31T23:59:59+00:00")])
    def test_source_date_epoch_forms_that_train(self, corpus_dir, tmp_path,
                                                monkeypatch, epoch, stamp):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        model_path = tmp_path / "m.json"
        assert main(["train", str(corpus_dir / "manifest.csv"),
                     "--scenario", "integrity", "--out", str(model_path)]) == 0
        assert load_model(str(model_path)).trained_at == stamp

    def test_unknown_scenario_usage_error(self, corpus_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", str(corpus_dir / "manifest.csv"),
                  "--scenario", "bogus", "--out", str(tmp_path / "m.json")])
        assert exc.value.code == 64

    def test_dot_export(self, corpus_dir, tmp_path):
        dot_path = tmp_path / "tree.dot"
        code = main(["train", str(corpus_dir / "manifest.csv"),
                     "--scenario", "integrity",
                     "--out", str(tmp_path / "m.json"),
                     "--dot", str(dot_path)])
        assert code == 0
        text = dot_path.read_text()
        assert text.startswith("digraph")
        assert "count(root/" in text


class TestTrainFrontEnds:
    """`train` counts each file's boxes straight into matrix columns; its
    model file is the one trained on the files' multisets."""

    @pytest.fixture(scope="class")
    def seed7_manifest(self, tmp_path_factory):
        return generate_corpus(FixtureSpec(seed=7),
                               tmp_path_factory.mktemp("seed7"))

    @pytest.mark.parametrize("scenario", ["integrity", "blind"])
    def test_model_file_equals_multiset_training(self, seed7_manifest,
                                                 tmp_path, monkeypatch,
                                                 scenario):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        written = tmp_path / "train.json"
        assert main(["train", str(seed7_manifest.path), "--scenario",
                     scenario, "--out", str(written)]) == 0
        labeled = derive_labels(seed7_manifest, get_scenario(scenario))
        rows = [row for row, _ in labeled]
        expected = tmp_path / "expected.json"
        save_model(train_model([file_symbols(str(row.path))[0]
                                for row in rows],
                               [label for _, label in labeled],
                               scenario=scenario,
                               manifest_digest=digest_rows(rows)),
                   str(expected))
        assert written.read_bytes() == expected.read_bytes()


class TestClassifyCommand:
    def test_verdicts_and_explanations(self, corpus_dir, trained_model,
                                       capsys):
        files = sorted(str(p) for p in corpus_dir.glob("D01_*.mp4"))
        code = main(["classify", str(trained_model), *files, "--explain"])
        assert code == 0
        records = [json.loads(line)
                   for line in capsys.readouterr().out.splitlines()]
        assert [r["file"] for r in records] == files
        mf = load_model(str(trained_model))
        for record in records:
            expected = "Tampered" if "exiftool" in record["file"] \
                else "Pristine"
            assert record["prediction"] == expected
            steps = [PathStep(s["symbol"], s["threshold"], s["count"],
                              s["branch"]) for s in record["path"]]
            assert replay_path(mf.model, steps) == record["prediction"]

    def test_corrupted_file_yields_error_record(self, trained_model, tmp_path,
                                                capsys, tiny_ftyp_file):
        bad = tmp_path / "broken.mp4"
        bad.write_bytes(b"\x00\x00\x00\xffftyp")
        code = main(["classify", str(trained_model), str(tiny_ftyp_file),
                     str(bad)])
        assert code == 0
        records = [json.loads(line)
                   for line in capsys.readouterr().out.splitlines()]
        assert "prediction" in records[0]
        assert "error" in records[1]
        assert "TruncatedBox" in records[1]["error"]

    def test_nul_byte_path_yields_one_error_record(self, trained_model,
                                                   capsys, tiny_ftyp_file):
        code = main(["classify", str(trained_model), "a\0b",
                     str(tiny_ftyp_file)])
        assert code == 0
        records = [json.loads(line)
                   for line in capsys.readouterr().out.splitlines()]
        assert [r.get("error") for r in records] == [
            "NotBmff: unusable path: embedded null byte", None]
        assert "prediction" in records[1]

    def test_nul_byte_model_path_is_data_error(self, capsys, tiny_ftyp_file):
        assert main(["classify", "model\0.json", str(tiny_ftyp_file)]) == 65
        assert capsys.readouterr().err == \
            "ModelFormatError: unusable model path: embedded null byte\n"

    def test_deep_nesting_yields_one_error_record(self, trained_model,
                                                  tmp_path, capsys,
                                                  tiny_ftyp_file):
        deep = tmp_path / "deep.mp4"
        deep.write_bytes(b"".join(struct.pack(">I4s", 8 * (5000 - d), b"moov")
                                  for d in range(5000)))
        code = main(["classify", str(trained_model), str(deep),
                     str(tiny_ftyp_file)])
        assert code == 0
        records = [json.loads(line)
                   for line in capsys.readouterr().out.splitlines()]
        assert len(records) == 2
        assert records[0]["error"].startswith("NestingTooDeep: ")
        assert "prediction" not in records[0]
        assert "prediction" in records[1]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_named_pipe_yields_one_error_record(self, trained_model, tmp_path,
                                                capsys, tiny_ftyp_file):
        fifo = tmp_path / "pipe.mp4"
        os.mkfifo(fifo)
        argv = ["classify", str(trained_model), str(fifo), str(tmp_path),
                str(tiny_ftyp_file)]
        worker = threading.Thread(target=main, args=(argv,), daemon=True)
        worker.start()
        worker.join(timeout=30)
        finished = not worker.is_alive()
        if not finished:
            # Release a reader blocked on the pipe before failing.
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            worker.join(timeout=30)
        assert finished, "opening the pipe blocked until a writer came"
        records = [json.loads(line)
                   for line in capsys.readouterr().out.splitlines()]
        assert [r.get("error") for r in records] == [
            "NotBmff: not a regular file", "NotBmff: not a regular file", None]
        assert "prediction" in records[2]

    def test_records_name_the_model_file_bytes(self, trained_model, tmp_path,
                                               capsys, tiny_ftyp_file):
        # A valid model file that is not in canonical form.
        compact = tmp_path / "compact.json"
        compact.write_text(json.dumps(json.loads(trained_model.read_text())))
        for path in (trained_model, compact):
            code = main(["classify", str(path), str(tiny_ftyp_file)])
            assert code == 0
            record = json.loads(capsys.readouterr().out)
            assert record["model"] == \
                hashlib.sha256(path.read_bytes()).hexdigest()

    def test_non_ascii_model_is_data_error(self, trained_model, tmp_path,
                                           capsys, tiny_ftyp_file):
        bad = tmp_path / "model.json"
        bad.write_bytes(trained_model.read_bytes().replace(
            b"Pristine", "Pr\u00efstine".encode("utf-8")))
        code = main(["classify", str(bad), str(tiny_ftyp_file)])
        assert code == 65
        assert capsys.readouterr().err.startswith("ModelFormatError: ")

    def test_model_deeper_than_the_python_stack(self, trained_model,
                                                tmp_path, capsys,
                                                tiny_ftyp_file):
        text = chain_model_text(trained_model, 5000)
        deep = tmp_path / "deep.json"
        deep.write_text(text, encoding="ascii")
        assert dumps_model(load_model(str(deep))) == text
        code = main(["classify", str(deep), str(tiny_ftyp_file), "--explain"])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert len(record["path"]) == 5000

    def test_deeply_nested_json_model_is_data_error(self, tmp_path, capsys,
                                                    tiny_ftyp_file):
        bad = tmp_path / "model.json"
        bad.write_text("[" * 100000 + "]" * 100000, encoding="ascii")
        code = main(["classify", str(bad), str(tiny_ftyp_file)])
        assert code == 65
        err = capsys.readouterr().err
        assert err.startswith("ModelFormatError: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("number", ["1" + "0" * 400, "1" + "0" * 5000],
                             ids=["too-large-for-a-float",
                                  "past-the-digit-limit"])
    def test_huge_integer_threshold_is_data_error(self, trained_model,
                                                  tmp_path, capsys,
                                                  tiny_ftyp_file, number):
        obj = json.loads(trained_model.read_text(encoding="ascii"))
        obj["tree"][0]["threshold"] = "NUMBER"
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(obj).replace('"NUMBER"', number),
                       encoding="ascii")
        code = main(["classify", str(bad), str(tiny_ftyp_file)])
        assert code == 65
        assert capsys.readouterr().err.startswith("ModelFormatError: ")

    def test_deterministic_across_runs(self, corpus_dir, trained_model,
                                       capsys):
        files = sorted(str(p) for p in corpus_dir.glob("D02_*.mp4"))
        main(["classify", str(trained_model), *files])
        first = capsys.readouterr().out
        main(["classify", str(trained_model), *files])
        assert capsys.readouterr().out == first


# Strings a record can hold: file names and messages with quotes,
# backslashes, control characters, non-ASCII text and lone surrogates (an
# undecodable byte of a file name, as `os.fsdecode` gives it).
RECORD_TEXT = st.one_of(
    st.text(st.one_of(
        st.characters(exclude_categories=()),
        st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028'),
        st.characters(min_codepoint=0xDC80, max_codepoint=0xDCFF))),
    st.sampled_from(['a"b.mp4', "a\\b.mp4", "\x00\x1f\x7f\n\t",
                     "caf\u00e9 \u2028 \U0001f3a5", os.fsdecode(b"\xff\xfe.mp4"),
                     "FileNotFoundError: [Errno 2] No such file: 'x\"y'"]))
THRESHOLDS = st.one_of(st.sampled_from([0.5, 1e-07, 1e16, -0.0, 2.5e-308]),
                       st.floats(allow_nan=False, allow_infinity=False))
PATH_STEPS = st.lists(st.builds(
    PathStep, RECORD_TEXT, THRESHOLDS,
    st.one_of(st.sampled_from([0, 2**31 - 1]), st.integers(0, 2**31 - 1)),
    st.sampled_from(["left", "right"])), max_size=6)


class TestRecordLines:
    """Each line is `json.dumps(record, sort_keys=True)` and a newline."""

    @given(RECORD_TEXT, RECORD_TEXT, RECORD_TEXT, PATH_STEPS, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_verdict_line(self, file_name, digest, verdict, steps, explain):
        record = {"file": file_name, "model": digest, "prediction": verdict}
        if explain:
            record["path"] = [
                {"symbol": s.symbol, "threshold": s.threshold,
                 "count": s.count, "branch": s.branch} for s in steps]
        assert _verdict_line(file_name, digest, verdict,
                             steps if explain else None) \
            == json.dumps(record, sort_keys=True) + "\n"

    @given(RECORD_TEXT, RECORD_TEXT, RECORD_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_error_line(self, file_name, digest, error):
        record = {"file": file_name, "model": digest, "error": error}
        assert _error_line(file_name, digest, error) \
            == json.dumps(record, sort_keys=True) + "\n"


def test_classify_never_vectorizes(corpus_dir, trained_model, monkeypatch,
                                   capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("classify built a vocabulary-sized row")

    for name, module in list(sys.modules.items()):
        if name.startswith("boxtrace.") \
                and getattr(module, "vectorize", None) is vectorize:
            monkeypatch.setattr(module, "vectorize", refuse)
    files = sorted(str(p) for p in corpus_dir.glob("D01_*.mp4"))
    for explain in ([], ["--explain"]):
        assert main(["classify", str(trained_model), *files, *explain]) == 0
        records = [json.loads(line)
                   for line in capsys.readouterr().out.splitlines()]
        assert len(records) == len(files)
        assert all("prediction" in r for r in records)


@pytest.mark.parametrize("copies,buffered", [(1, True), (400, True),
                                             (1, False)],
                         ids=["at-exit", "mid-batch", "unbuffered"])
def test_closed_output_pipe_exits_1_quietly(trained_model, tiny_ftyp_file,
                                            copies, buffered):
    # The reader has gone before the first write, as after `| head -n 1`.
    # Buffered, one record fails at the final flush, and 400 fill the
    # buffer, so a write in the middle of the batch fails; unbuffered,
    # the first write fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(boxtrace.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    try:
        proc = subprocess.run(
            [sys.executable, *([] if buffered else ["-u"]), "-m",
             "boxtrace.cli", "classify", "--explain", str(trained_model),
             *[str(tiny_ftyp_file)] * copies],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


class TestSuccessiveCalls:
    """`main` builds its parser once per process; calls share no state."""

    def test_flags_do_not_carry_over(self, trained_model, capsys,
                                     tiny_ftyp_file):
        argv = ["classify", str(trained_model), str(tiny_ftyp_file)]
        assert main([*argv, "--explain"]) == 0
        assert "path" in json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        assert "path" not in json.loads(capsys.readouterr().out)

    def test_usage_error_after_a_call_exits_64(self, trained_model, capsys,
                                               tiny_ftyp_file):
        assert main(["classify", str(trained_model),
                     str(tiny_ftyp_file)]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["classify", str(trained_model)])
        assert exc.value.code == 64
        assert "error: the following arguments are required: files" \
            in capsys.readouterr().err

    def test_train_after_classify(self, corpus_dir, trained_model, tmp_path,
                                  tiny_ftyp_file):
        assert main(["classify", str(trained_model),
                     str(tiny_ftyp_file)]) == 0
        again = tmp_path / "again.json"
        assert main(["train", str(corpus_dir / "manifest.csv"),
                     "--scenario", "integrity", "--out", str(again)]) == 0
        first, second = load_model(str(trained_model)), load_model(str(again))
        first.trained_at = second.trained_at = ""
        assert dumps_model(second) == dumps_model(first)


def hostile_variants(files, out_dir, per_file=12, seed=0):
    """Truncated, bit-flipped, size-rewritten and version-rewritten copies
    of `files`, written under `out_dir`."""
    rng = random.Random(seed)
    variants = []
    for path in files:
        data = path.read_bytes()
        stack = list(parse_file(str(path)).root.children)
        offsets = []
        while stack:
            node = stack.pop()
            offsets.append(node.header.offset)
            stack.extend(node.children)
        for i in range(per_file):
            out = bytearray(data)
            kind = i % 4
            if kind == 0:
                out = out[:rng.randrange(len(out))]
            elif kind == 1:
                for _ in range(rng.randint(1, 4)):
                    bit = rng.randrange(len(out) * 8)
                    out[bit // 8] ^= 1 << (bit % 8)
            elif kind == 2:
                size = rng.choice((0, 1, 7, 8, 9, len(data), 2**32 - 1))
                struct.pack_into(">I", out, rng.choice(offsets), size)
            else:
                # A full box's version byte: decoders fail, the box is
                # counted as opaque, and a warning is given.
                out[rng.choice(offsets) + 8] = rng.randrange(2, 256)
            variant = out_dir / f"{path.stem}_{i:02d}.mp4"
            variant.write_bytes(bytes(out))
            variants.append(str(variant))
    return variants


def full_symbol_records(model_path, files):
    """`classify --explain` records built from every symbol of each file."""
    mf = load_model(str(model_path))
    records = []
    for name in files:
        record = {"file": name, "model": mf.file_digest}
        try:
            verdict, steps = classify_symbols(mf, file_symbols(name)[0])
        except (ParseError, OSError) as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
        else:
            record["prediction"] = verdict
            record["path"] = [{"symbol": s.symbol, "threshold": s.threshold,
                               "count": s.count, "branch": s.branch}
                              for s in steps]
        records.append(record)
    return records


# Symbols under moov/trak and the threshold each split of the chain model
# tests; clean files pass every split to its left. The @stuff symbols
# count boxes whose decoder failed on a rewritten version byte.
TRAK_SPLITS = [
    ("moov/trak/mdia/hdlr/@handlerType/vide", 1.5),
    ("moov/trak/tkhd/@stuff", 0.5),
    ("moov/trak/mdia/mdhd/@version", 2.5),
    ("moov/trak/mdia/mdhd/@stuff", 0.5),
    ("moov/trak/mdia/minf/stbl/stsd/@format_1/hvc1", 1.5),
    ("moov/trak/mdia/minf/stbl/stsz/@sampleSize/0", 2.5),
    ("moov/trak/mdia/minf/stbl/stsz/@stuff", 0.5),
    ("ftyp/@majorBrand", 1.5),
]


def trak_model_text(model_path):
    """The model at `model_path` with every symbol kept, the `TRAK_SPLITS`
    symbols added, and a tree that is a chain of those splits."""
    obj = json.loads(model_path.read_text(encoding="ascii"))
    vocabulary = sorted(set(obj["vocabulary"]) | {s for s, _ in TRAK_SPLITS})
    obj["vocabulary"] = vocabulary
    obj["filter"]["kept"] = [1] * len(vocabulary)
    labels = obj["classes"]
    splits = [{"feature": vocabulary.index(s), "threshold": t}
              for s, t in TRAK_SPLITS]
    leaves = [{"label": labels[i % 2], "distribution": {labels[i % 2]: 1.0}}
              for i in range(len(splits) + 1)]
    obj["tree"] = splits + leaves
    return canonical_dumps(obj)


@pytest.fixture(scope="module")
def model_paths(corpus_dir, tmp_path_factory):
    """The paths of three model files by name: "trained" on the corpus,
    "trak", its `trak_model_text`, and "leaf", a single leaf that tests no
    symbol."""
    out = tmp_path_factory.mktemp("models")
    trained = out / "trained.json"
    assert main(["train", str(corpus_dir / "manifest.csv"),
                 "--scenario", "integrity", "--out", str(trained)]) == 0
    obj = json.loads(trained.read_text(encoding="ascii"))
    label = obj["classes"][0]
    obj["tree"] = [{"label": label, "distribution": {label: 1.0}}]
    paths = {"trained": trained}
    for name, text in [("trak", trak_model_text(trained)),
                       ("leaf", canonical_dumps(obj))]:
        paths[name] = out / f"{name}.json"
        paths[name].write_text(text, encoding="ascii")
    return paths


class TestClassifyDecodesTestedBoxes:
    """Records from the tested boxes alone equal records from every
    symbol, for clean and hostile files."""

    @pytest.fixture(scope="class")
    def files(self, corpus_dir, tmp_path_factory):
        clean = sorted(corpus_dir.glob("D0[12]_*.mp4"))
        out = tmp_path_factory.mktemp("hostile")
        return ([str(p) for p in clean] + hostile_variants(clean, out)
                + [str(out)])

    @pytest.mark.parametrize("name", ["trained", "trak", "leaf"])
    def test_records_equal_full_symbol_records(self, model_paths, files,
                                               capsys, name):
        model_path = model_paths[name]
        assert main(["classify", "--explain", str(model_path), *files]) == 0
        records = [json.loads(line)
                   for line in capsys.readouterr().out.splitlines()]
        assert records == full_symbol_records(model_path, files)
        assert any("prediction" in r for r in records)
        assert any("error" in r for r in records)

    @pytest.mark.parametrize("explain", [False, True])
    def test_lines_are_json_dumps_of_the_records(self, model_paths, files,
                                                 capsys, explain):
        model_path = model_paths["trak"]
        argv = ["classify", str(model_path), *files, "/no/such/file.mp4"]
        assert main(argv + ["--explain"] * explain) == 0
        records = full_symbol_records(model_path,
                                      files + ["/no/such/file.mp4"])
        if not explain:
            for record in records:
                record.pop("path", None)
        assert capsys.readouterr().out == "".join(
            json.dumps(r, sort_keys=True) + "\n" for r in records)

    def test_trak_model_reads_hostile_counts(self, model_paths, files):
        model_path = model_paths["trak"]
        assert split_symbols(load_model(str(model_path))) \
            == {s for s, _ in TRAK_SPLITS}
        # The hostile variants reach the opaque counts the chain tests.
        steps = [step for r in full_symbol_records(model_path, files)
                 for step in r.get("path", [])]
        assert any(s["symbol"].endswith("/@stuff") and s["count"] > 0
                   for s in steps)
        assert len({r["symbol"] for r in steps}) == len(TRAK_SPLITS)


def split_symbols(mf):
    """The symbols the model's tree tests."""
    names = mf.model.vocabulary.symbols
    return frozenset(names[node.split.feature_index]
                     for node in preorder(mf.model.root) if not node.is_leaf)


def reference_lines(model_path, files, explain):
    """The record line of each of `files`, each built on its own from its
    tested symbols, as `classify` built it before any memo."""
    mf = load_model(str(model_path))
    tested = split_symbols(mf)
    lines = []
    for name in files:
        try:
            verdict, steps = classify_symbols(
                mf, file_symbols(name, only=tested)[0])
        except (ParseError, OSError) as exc:
            lines.append(_error_line(name, mf.file_digest,
                                     f"{type(exc).__name__}: {exc}"))
        else:
            lines.append(_verdict_line(name, mf.file_digest, verdict,
                                       steps if explain else None))
    return lines


def batch_lines(model_path, files, explain):
    """The record lines of one `classify` call over `files`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["classify", str(model_path), *files,
                     *["--explain"] * explain]) == 0
    return out.getvalue().splitlines(keepends=True)


@contextlib.contextmanager
def watched_memos():
    """A list that takes, after each record line of a `classify` call in
    the context, the columns the box memo holds and its room left, and
    the box numbers and characters the tail memo holds and its room left,
    read from the locals of `cli._record_lines`' frame. The box memo's
    numbers must count up from 0."""
    sizes = []
    real = cli_module._record_lines

    def record_lines(*args):
        lines = real(*args)
        for line in lines:
            state = lines.gi_frame.f_locals
            boxes, tails = state["boxes"], state["tails"]
            assert sorted(state["memo"].values()) == list(range(len(boxes)))
            sizes.append((sum(map(len, boxes)) // 4, state["room"],
                          sum(len(k) + len(t) for k, t in tails.items()),
                          state["tail_room"]))
            yield line

    with mock.patch.object(cli_module, "_record_lines", record_lines):
        yield sizes


def assert_bounded(sizes, room, tail_room):
    """Each of `watched_memos`' entries has spent of each memo's room
    exactly what the memo holds, and no more than the room."""
    for columns, left, held, tail_left in sizes:
        assert columns + left == room and left >= 0
        assert held + tail_left == tail_room and tail_left >= 0


def decoded_spans(data, decode):
    """The `box_spans` of `data`, a well-formed file, whose paths are in
    `decode`."""
    spans = box_spans(data)
    types = {span[0]: span[1].decode("latin-1") for span in spans}
    return [span for span in spans if "/".join(
        [types[offset] for offset in span[4]] + [types[span[0]]]) in decode]


def memo_variant(draw, data, decode):
    """`data`, a well-formed fixture file, mutated as drawn: cut short,
    bit-flipped, with a size or version byte rewritten (`hostile`), with a
    tested box put in twice, so its structure has the same set of boxes
    but not the same tuple, or with its ftyp cut to a 4-byte payload,
    whose key is refused."""
    spans = box_spans(data)
    kind = draw(st.sampled_from(["hostile", "twice", "short-ftyp"]),
                label="kind")
    if kind == "hostile":
        return hostile(draw, data, [span[0] for span in spans])
    if kind == "short-ftyp":
        assert spans[0][1] == b"ftyp"
        return mkbox(b"ftyp", data[8:12]) + data[spans[0][3]:]
    box = draw(st.sampled_from(decoded_spans(data, decode) or spans[1:]))
    return grown(data, box[3], data[box[0]:box[3]], box[4])


class TestClassifyMemo:
    """One `classify` call decodes each distinct tested box once and
    decides each distinct tested structure once; its lines equal those of
    each file classified on its own, and its memos stay bounded."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_batch_lines_equal_reference_lines(self, corpus_dir, model_paths,
                                               tmp_path_factory, data):
        name = data.draw(st.sampled_from(sorted(model_paths)), label="model")
        model_path = model_paths[name]
        decode = _decoded_boxes(split_symbols(load_model(str(model_path))))
        corpus = sorted(str(p) for p in corpus_dir.glob("*.mp4"))
        files = data.draw(st.lists(st.sampled_from(corpus), min_size=1,
                                   max_size=12), label="files")
        out = tmp_path_factory.getbasetemp() / "classify_memo"
        out.mkdir(exist_ok=True)
        for i in range(data.draw(st.integers(0, 4), label="variants")):
            base = data.draw(st.sampled_from(corpus), label="base")
            path = out / f"variant_{i}.mp4"
            with open(base, "rb") as handle:
                path.write_bytes(memo_variant(data.draw, handle.read(),
                                              decode))
            for copy in [base] + [str(path)] * data.draw(
                    st.integers(1, 2), label="copies"):
                files.insert(data.draw(st.integers(0, len(files))), copy)
        explain = data.draw(st.booleans(), label="explain")
        # The defaults are drawn as often as no room or almost none.
        room = data.draw(st.sampled_from(
            [symbols_module._MEMO_COLUMNS] * 2 + [0, 1]), label="room")
        tail_room = data.draw(st.sampled_from(
            [cli_module._MEMO_TAILS] * 2 + [0, 1]), label="tail room")
        with mock.patch.object(cli_module, "_MEMO_COLUMNS", room), \
                mock.patch.object(cli_module, "_MEMO_TAILS", tail_room), \
                watched_memos() as sizes:
            lines = batch_lines(model_path, files, explain)
        assert lines == reference_lines(model_path, files, explain)
        assert len(sizes) == len(files)
        assert_bounded(sizes, room, tail_room)

    @pytest.mark.parametrize("name", ["trained", "trak"])
    def test_a_hit_never_skips_the_walk(self, corpus_dir, model_paths,
                                        tmp_path, name):
        # The copy is cut inside its final mdat, after every tested box:
        # its tested boxes are the whole file's, so its key is a hit, but
        # the walk still reaches the cut.
        model_path = model_paths[name]
        decode = _decoded_boxes(split_symbols(load_model(str(model_path))))
        whole = corpus_dir / "D01_exiftool_00.mp4"
        data = whole.read_bytes()
        mdat = box_spans(data)[-1]
        assert mdat[1] == b"mdat"
        cut = tmp_path / "cut.mp4"
        cut.write_bytes(data[:mdat[0] + 9])

        def decoded_boxes(path):
            boxes = []
            with open(path, "rb") as handle:
                with contextlib.suppress(ParseError):
                    for _, entry, *_, payload in walk_boxes(handle, [],
                                                            decode):
                        boxes.append((entry[0], payload))
            return boxes

        assert decoded_boxes(cut) == decoded_boxes(whole) != []
        # First in the batch, the cut copy's boxes are new to the memo,
        # which spends their room though the copy gets no verdict.
        files = [str(cut), str(whole), str(cut)]
        with watched_memos() as sizes:
            lines = batch_lines(model_path, files, True)
        assert lines == reference_lines(model_path, files, True)
        assert [json.loads(line).get("error", "")[:14] for line in lines] \
            == ["TruncatedBox: ", "", "TruncatedBox: "]
        assert sizes[0][0] > 0
        assert_bounded(sizes, symbols_module._MEMO_COLUMNS,
                       cli_module._MEMO_TAILS)

    @pytest.mark.parametrize("room,tail_room", [(0, 0), (7, 300), (300, 2500)])
    def test_memos_bounded_when_no_structure_repeats(
            self, corpus_dir, model_paths, monkeypatch, room, tail_room):
        # Every box gets a key of its own, so every file a structure of its
        # own; each memo takes entries only while they fit in its room.
        model_path = model_paths["trak"]
        files = sorted(str(p) for p in corpus_dir.glob("*.mp4"))
        expected = reference_lines(model_path, files, True)
        monkeypatch.setattr(symbols_module, "walk_boxes",
                            unique_keys(symbols_module.walk_boxes))
        monkeypatch.setattr(cli_module, "_MEMO_COLUMNS", room)
        monkeypatch.setattr(cli_module, "_MEMO_TAILS", tail_room)
        with watched_memos() as sizes:
            assert batch_lines(model_path, files, True) == expected
        assert len(sizes) == len(files)
        assert_bounded(sizes, room, tail_room)
        # Each bound was reached well before the last file.
        assert sizes[len(files) // 2][:3] == sizes[-1][:3]


class TestEvaluateCommand:
    def test_prints_table_and_writes_report(self, corpus_dir, tmp_path,
                                            capsys):
        report_path = tmp_path / "report.json"
        code = main(["evaluate", str(corpus_dir / "manifest.csv"),
                     "--scenario", "integrity",
                     "--report", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Global balanced accuracy: 1.0000" in out
        assert "TPR" in out and "TNR" in out
        obj = json.loads(report_path.read_text())
        assert obj["global_balanced_accuracy"] == 1.0

    def test_single_device_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "single"
        single = generate_corpus(
            FixtureSpec(seed=9, profiles=(FixtureSpec().profiles[0],),
                        classes=("native", "exiftool"), videos_per_cell=2),
            out)
        assert len(single.devices()) == 1
        code = main(["evaluate", str(out / "manifest.csv"),
                     "--scenario", "integrity"])
        assert code == 65
        assert "SingleDevice" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["train", "--scenario", "integrity", "--out", "m.json"],
    ["evaluate", "--scenario", "integrity"],
    ["llr-report", "--scenario", "integrity"],
], ids=lambda argv: argv[0])
def test_missing_file_warns(corpus_dir, tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    text = (corpus_dir / "manifest.csv").read_text(encoding="utf-8")
    rows = text.splitlines()
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "\n".join([rows[0], "gone.mp4,D01,iOS,none,none"]
                  + [f"{corpus_dir}/{row}" for row in rows[1:]]) + "\n",
        encoding="utf-8")
    assert main([argv[0], str(manifest), *argv[1:]]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "warning: line 2: missing file gone.mp4, skipped"
    assert sum("missing file" in line for line in err) == 1


class TestLlrReportCommand:
    def test_xmp_tops_native_vs_exiftool(self, corpus_dir, capsys):
        code = main(["llr-report", str(corpus_dir / "manifest.csv"),
                     "--scenario", "integrity", "--tau", "0.5"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "symbol\tbest_pair\tllr\ttau\tkept"
        top_symbols = [line.split("\t")[0] for line in lines[1:6]]
        assert any("XMP_" in s for s in top_symbols)
        assert all(line.split("\t")[3] == "0.5" for line in lines[1:])


@pytest.mark.parametrize("argv", [
    ["train", "manifest.csv", "--scenario", "integrity", "--out", "m.json"],
    ["evaluate", "manifest.csv", "--scenario", "integrity"],
    ["llr-report", "manifest.csv", "--scenario", "integrity"],
], ids=lambda argv: argv[0])
def test_manifest_not_utf8_is_data_error(tmp_path, monkeypatch, capsys,
                                         argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "\u00e9t\u00e9.mp4").write_bytes(b"x")
    (tmp_path / "manifest.csv").write_bytes(
        "file,device,os,software,platform\n"
        "\u00e9t\u00e9.mp4,D01,iOS,none,none\n".encode("latin-1"))
    assert main(argv) == 65
    assert capsys.readouterr().err.startswith(
        "MalformedRow: line 2: manifest is not UTF-8 text")


@pytest.mark.parametrize("argv", [
    ["train", "manifest.csv", "--scenario", "integrity", "--out", "m.json"],
    ["evaluate", "manifest.csv", "--scenario", "integrity"],
    ["llr-report", "manifest.csv", "--scenario", "integrity"],
], ids=lambda argv: argv[0])
def test_field_over_csv_limit_is_data_error(tmp_path, monkeypatch, capsys,
                                            argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "manifest.csv").write_text(
        "file,device,os,software,platform\n"
        + "v" * 200_000 + ".mp4,D01,iOS,none,none\n", encoding="utf-8")
    assert main(argv) == 65
    assert capsys.readouterr().err == ("MalformedRow: line 2: field larger "
                                       "than field limit (131072)\n")
    assert not (tmp_path / "m.json").exists()


HUGE_INTEGER = "1" + "0" * 400  # no float holds it
OUT_OF_RANGE_FLAGS = (
    [("--tau", v) for v in ("0", "-1", "nan", "inf", "1e999", "-inf")]
    + [("--max-depth", "-2"), ("--max-depth", "1.5"),
       ("--max-depth", HUGE_INTEGER), ("--max-depth", "3.0"),
       ("--min-samples-leaf", "0"), ("--min-samples-leaf", "-3"),
       ("--min-samples-leaf", HUGE_INTEGER), ("--min-samples-leaf", "1e999"),
       ("--ccp-alpha", "-1"), ("--ccp-alpha", "nan"), ("--ccp-alpha", "inf"),
       ("--ccp-alpha", "1e999")])


def flag_value_id(value):
    """A test id part: pytest's own, but a name for the huge integer."""
    return "HUGE_INTEGER" if value == HUGE_INTEGER else None


def library_config(flag: str, text: str):
    """The `FilterConfig` or `TreeParams` of a training flag's value, read
    as an int when it is one and as a float otherwise."""
    try:
        value = int(text)
    except ValueError:
        value = float(text)
    if flag == "--tau":
        return FilterConfig(value)
    return TreeParams(**{flag[2:].replace("-", "_"): value})


@pytest.mark.parametrize("command,flag,value", [
    (command, flag, value) for command in ("train", "evaluate", "llr-report")
    for flag, value in OUT_OF_RANGE_FLAGS
    if command != "llr-report" or flag == "--tau"], ids=flag_value_id)
def test_out_of_range_flag_is_usage_error(command, flag, value, corpus_dir,
                                          tmp_path, capsys):
    argv = [command, str(corpus_dir / "manifest.csv"),
            "--scenario", "integrity", flag, value]
    if command == "train":
        argv += ["--out", str(tmp_path / "m.json")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert f"error: argument {flag}: " in err


@pytest.mark.parametrize("flag,value", OUT_OF_RANGE_FLAGS, ids=flag_value_id)
def test_out_of_range_flag_is_out_of_the_library_range(flag, value):
    # The flags and the classes that the model loader also applies state
    # one range.
    with pytest.raises(ValueError):
        library_config(flag, value)


LOWEST_TREE_FLAGS = [("--max-depth", "0"), ("--min-samples-leaf", "1"),
                     ("--ccp-alpha", "0")]


def test_lowest_tree_flags_train(corpus_dir, tmp_path):
    model_path = tmp_path / "m.json"
    code = main(["train", str(corpus_dir / "manifest.csv"),
                 "--scenario", "integrity", "--out", str(model_path),
                 *(part for flag in LOWEST_TREE_FLAGS for part in flag)])
    assert code == 0
    mf = load_model(str(model_path))
    assert mf.model.root.is_leaf
    for flag, value in LOWEST_TREE_FLAGS:
        library_config(flag, value)  # in the library's range too
    assert mf.model.params == TreeParams(max_depth=0, min_samples_leaf=1,
                                         ccp_alpha=0)


class TestMakeFixturesCommand:
    def test_generates_and_reports(self, tmp_path, capsys):
        code = main(["make-fixtures", str(tmp_path / "corp"),
                     "--videos-per-cell", "1"])
        assert code == 0
        assert "24 files" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_videos_per_cell_below_one_is_usage_error(self, value, tmp_path,
                                                      capsys):
        with pytest.raises(SystemExit) as exc:
            main(["make-fixtures", str(tmp_path / "corp"),
                  "--videos-per-cell", value])
        assert exc.value.code == 64
        assert "error: argument --videos-per-cell: " in capsys.readouterr().err
        assert not (tmp_path / "corp").exists()


class TestNulBytePaths:
    """A path holding a NUL byte, which no file can have, is a data error
    when it names an input and a usage error when it names an output."""

    @pytest.mark.parametrize("command", [
        ["train", "m\0.csv", "--scenario", "integrity", "--out", "m.json"],
        ["evaluate", "m\0.csv", "--scenario", "integrity"],
        ["llr-report", "m\0.csv", "--scenario", "integrity"],
    ], ids=["train", "evaluate", "llr-report"])
    def test_manifest_is_data_error(self, command, tmp_path, monkeypatch,
                                    capsys):
        monkeypatch.chdir(tmp_path)
        assert main(command) == 65
        assert capsys.readouterr().err == \
            "DataError: unusable manifest path: embedded null byte\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flags", [
        ["train", "MANIFEST", "--scenario", "integrity", "--out", "m\0.json"],
        ["train", "MANIFEST", "--scenario", "integrity", "--out", "m.json",
         "--dot", "t\0.dot"],
        ["evaluate", "MANIFEST", "--scenario", "integrity",
         "--report", "r\0.json"],
        ["make-fixtures", "o\0ut"],
    ], ids=["train-out", "train-dot", "evaluate-report", "make-fixtures"])
    def test_output_is_usage_error(self, flags, corpus_dir, tmp_path,
                                   monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        manifest = str(corpus_dir / "manifest.csv")
        with pytest.raises(SystemExit) as exc:
            main([manifest if f == "MANIFEST" else f for f in flags])
        assert exc.value.code == 64
        assert "holds a NUL byte" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())
