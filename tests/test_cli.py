"""Command-line behavior: outputs, exit codes, error records."""

import hashlib
import json
import struct

import pytest

from boxtrace.cli import main
from boxtrace.fixtures import FixtureSpec, generate_corpus
from boxtrace.modelfile import canonical_dumps, dumps_model, load_model
from boxtrace.tree import PathStep, replay_path


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

    def test_json_dump_ordered(self, tiny_ftyp_file, capsys):
        assert main(["parse", str(tiny_ftyp_file), "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj[0]["name"] == "ftyp"

    def test_non_bmff_exits_2_with_error_name(self, tmp_path, capsys):
        bad = tmp_path / "not_video.txt"
        bad.write_text("hello world, definitely text\n")
        assert main(["parse", str(bad)]) == 2
        assert "NotBmff" in capsys.readouterr().err


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

    def test_deterministic_across_runs(self, corpus_dir, trained_model,
                                       capsys):
        files = sorted(str(p) for p in corpus_dir.glob("D02_*.mp4"))
        main(["classify", str(trained_model), *files])
        first = capsys.readouterr().out
        main(["classify", str(trained_model), *files])
        assert capsys.readouterr().out == first


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


class TestMakeFixturesCommand:
    def test_generates_and_reports(self, tmp_path, capsys):
        code = main(["make-fixtures", str(tmp_path / "corp"),
                     "--videos-per-cell", "1"])
        assert code == 0
        assert "24 files" in capsys.readouterr().out
