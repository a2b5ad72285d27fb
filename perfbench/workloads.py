"""The benchmark's workloads: inputs built from a seed, one timed pass
through the program's public entry points, and the checks on its outputs.

- `triage` classifies a folder of files the way an analyst does: in-process
  ``boxtrace classify --explain`` over fixed-size batches, so every batch pays
  `load_model`. Parse and symbolize dominate; no training runs.
- `lodo` is the paper's leave-one-device-out evaluation at a VISION-like
  device count over a narrow vocabulary, so per-file overhead in the
  per-fold training dominates.
- `lodo-wide` runs the same layers over thousands of kept symbols, so the
  per-symbol cost of the LLR filter and the split search dominates.

Each workload also has a complement, run only in the traced run: `triage`
evaluates its training corpus leave-one-device-out, and the LODO workloads
classify their corpus with a fold model, so every layer is measured on
every workload.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import random
import resource
import statistics
import struct
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from boxtrace import cli
from boxtrace.bmff import (
    CONTAINER_TYPES,
    TOP_LEVEL_TYPES,
    has_schema,
    parse_container,
    parse_file,
)
from boxtrace.errors import ParseError
from boxtrace.evaluate import derive_labels, get_scenario, run_scenario
from boxtrace.fixtures import DEFAULT_PROFILES, FixtureSpec, generate_corpus
from boxtrace.modelfile import dumps_model, load_model, model_digest, save_model, train_model
from boxtrace.symbols import extract_symbols

SCENARIO = "blind"
TWIN_BYTES = 4 << 30
BATCH = 64              # files per `classify` call
DERIVE_EVERY = 16       # one sparse twin and one mutant per this many files
LODO_DEVICES = 24
WIDE_EXTRA_BOXES = 16   # opaque top-level boxes appended per lodo-wide file
WIDE_POOL = 2048        # distinct type codes they are drawn from
PROBE_DEPTH = 5000      # nested `moov` boxes in the deep-nesting probe


@dataclass(frozen=True)
class Sizes:
    triage_videos_per_cell: int  # x 6 devices x 4 classes, train and test each
    lodo_videos_per_cell: int    # x 24 devices x 4 classes
    wide_videos_per_cell: int    # x 6 devices x 4 classes
    probe_boxes: int             # empty `free` boxes in the many-boxes probe


FULL = Sizes(triage_videos_per_cell=64, lodo_videos_per_cell=16,
             wide_videos_per_cell=32, probe_boxes=200_000)
# 96 files per workload; used by the benchmark's smoke test.
SMOKE = Sizes(triage_videos_per_cell=4, lodo_videos_per_cell=1,
              wide_videos_per_cell=4, probe_boxes=2000)


@dataclass
class PassResult:
    files: int
    seconds: float
    balanced_accuracy: float
    outputs: dict[str, str]          # operation -> its normalized output
    attempted: int = 0               # set by drop_outputs
    batch_s: list[float] = field(default_factory=list)  # triage only
    failed: set[str] = field(default_factory=set)
    checked: set[str] = field(default_factory=set)
    notes: list[str] = field(default_factory=list)

    def expect(self, ok: bool, check: str, op: str, why: str) -> bool:
        """Record that `check` ran; a failed check fails operation `op`."""
        self.checked.add(check)
        if not ok:
            self.failed.add(op)
            if len(self.notes) < 20:
                self.notes.append(f"{check} {Path(op).name}: {why}")
        return ok

    def drop_outputs(self) -> None:
        """Count the operations attempted, then free their outputs."""
        self.attempted = len(self.outputs) + len(self.failed - self.outputs.keys())
        self.outputs = {}


def _span(tracer, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


def _box(type4: bytes, payload: bytes = b"") -> bytes:
    return struct.pack(">I4s", 8 + len(payload), type4) + payload


def _balanced_accuracy(pairs) -> float:
    """Mean per-class recall of (true, predicted) pairs."""
    hits: dict[str, list[int]] = {}
    for true, predicted in pairs:
        hits.setdefault(true, []).append(int(true == predicted))
    return sum(sum(h) / len(h) for h in hits.values()) / len(hits)


def twin_bytes(work: Path) -> int:
    """Length of the sparse twins: 4 GiB, or the process's file-size limit
    if that is lower. 0 if a file of that length cannot be made here or is
    not kept sparse; the twins then keep their own length, and only the
    64-bit header of their last `mdat` differs from the original."""
    limit = resource.getrlimit(resource.RLIMIT_FSIZE)[0]
    size = TWIN_BYTES if limit == resource.RLIM_INFINITY else min(TWIN_BYTES, limit)
    probe = work / "sparse-probe"
    try:
        with open(probe, "wb") as handle:
            handle.truncate(size)
        sparse = os.stat(probe).st_blocks * 512 <= 1 << 20
    except OSError:
        sparse = False
    finally:
        probe.unlink(missing_ok=True)
    return size if sparse else 0


def make_sparse_twin(src: Path, dst: Path, length: int) -> None:
    """Copy `src` with its final `mdat` re-headed as a 64-bit box and the
    file extended to `length` bytes (if longer) by `truncate`, which leaves
    a hole on disk."""
    data = src.read_bytes()
    pos = last = 0
    while pos < len(data):
        last = pos
        size = struct.unpack_from(">I", data, pos)[0]
        if size < 8:
            raise RuntimeError(f"{src.name}: box at {pos} has size {size}")
        pos += size
    if data[last + 4:last + 8] != b"mdat":
        raise RuntimeError(f"{src.name}: last top-level box is not mdat")
    length = max(length, len(data) + 8)
    head = struct.pack(">I4sQ", 1, b"mdat", length - last)
    with open(dst, "wb") as handle:
        handle.write(data[:last] + head + data[last + 8:])
        handle.truncate(length)
    if os.stat(dst).st_size != length:
        raise RuntimeError(f"{dst.name}: twin is not {length} bytes long")
    if os.stat(dst).st_blocks * 512 > 1 << 20:
        dst.unlink()
        raise RuntimeError("file system does not keep truncated files sparse")


def _box_offsets(path: Path) -> list[int]:
    stack = list(parse_file(str(path)).root.children)
    offsets = []
    while stack:
        node = stack.pop()
        offsets.append(node.header.offset)
        stack.extend(node.children)
    return sorted(offsets)


def mutate(data: bytes, offsets: list[int], rng: random.Random) -> bytes:
    """A truncation, 4 bit flips, or one box size field rewritten."""
    kind = rng.randrange(3)
    if kind == 0:
        return data[:rng.randrange(1, len(data))]
    out = bytearray(data)
    if kind == 1:
        for _ in range(4):
            bit = rng.randrange(len(out) * 8)
            out[bit // 8] ^= 1 << (bit % 8)
    else:
        size = rng.choice((0, 1, 7, 8, 9, len(data), 2**32 - 1))
        struct.pack_into(">I", out, rng.choice(offsets), size)
    return bytes(out)


def _classify(model_path: Path, files: list[str], tracer=None):
    """In-process ``boxtrace classify --explain`` over batches of `files`.
    Returns the timed result, with every file checked for a record from
    that model, and the records by file."""
    records: dict[str, dict] = {}
    raised: dict[str, str] = {}
    batch_s = []
    started = time.perf_counter()
    for i in range(0, len(files), BATCH):
        batch = files[i:i + BATCH]
        out = io.StringIO()
        batch_started = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()), \
                    _span(tracer, "cli.batch"):
                code = cli.main(["classify", "--explain", str(model_path), *batch])
        # Any exception escaping a batch breaks the input contract; it
        # is counted against the files of that batch, not fatal here.
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
        batch_s.append(time.perf_counter() - batch_started)
        if code != 0:
            raised.update((f, f"batch failed: {code}") for f in batch)
            continue
        for line in out.getvalue().splitlines():
            record = json.loads(line)
            records[record["file"]] = record
    result = PassResult(files=len(files), seconds=time.perf_counter() - started,
                        balanced_accuracy=0.0, outputs={}, batch_s=batch_s)
    digest = hashlib.sha256(model_path.read_bytes()).hexdigest()
    for f in files:
        record = records.get(f)
        if not result.expect(record is not None, "record_present", f,
                             raised.get(f, "no record")):
            continue
        # Paths differ between checkouts; the digest uses base names.
        result.outputs[f] = json.dumps(dict(record, file=Path(f).name),
                                       sort_keys=True)
        result.expect(record["model"] == digest, "model_digest",
                      f, "record names another model")
    return result, records


def _evaluate(manifest, tracer=None):
    """One timed `run_scenario` of the blind scenario over `manifest`, with
    its report checked against the manifest. Returns the result, whose one
    output is a digest of the fold models and confusion counts, and the
    report (None if the evaluation raised)."""
    n_files = len(manifest.rows)
    result = PassResult(files=n_files, seconds=0.0, balanced_accuracy=0.0,
                        outputs={})
    op = "run_scenario"
    error = ""
    started = time.perf_counter()
    try:
        with _span(tracer, "evaluate.run_scenario"):
            report = run_scenario(manifest, get_scenario(SCENARIO))
    # A raising evaluation is a failed operation, not a crash of the run.
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    result.seconds = time.perf_counter() - started
    if not result.expect(not error, "scenario_ran", op, error):
        return result, None

    result.expect([f.device for f in report.folds] == manifest.devices(),
                  "fold_count", op, "folds do not match the devices")
    result.expect(sum(int(f.confusion.counts.sum()) for f in report.folds)
                  == n_files, "confusion_total", op,
                  "confusion counts do not cover every file")
    recalls = []
    for f in report.folds:
        counts = f.confusion.counts
        rows = counts.sum(axis=1)
        recalls.append(sum(counts[i, i] / rows[i] for i in range(len(rows))
                           if rows[i]) / int((rows > 0).sum()))
    recomputed = sum(recalls) / len(recalls)
    result.expect(abs(recomputed - report.global_balanced_accuracy) <= 1e-12,
                  "balanced_accuracy_recomputed", op,
                  f"reported {report.global_balanced_accuracy}, "
                  f"{recomputed} from the confusion counts")
    digest = hashlib.sha256()
    for f in report.folds:
        digest.update(f"{f.device} {model_digest(f.model)} "
                      f"{f.confusion.counts.tolist()}\n".encode())
    result.outputs[op] = digest.hexdigest()
    result.balanced_accuracy = report.global_balanced_accuracy
    return result, report


class Triage:
    """Classify an unseen corpus plus sparse twins and mutants."""

    name = "triage"
    checks = ("record_present", "model_digest", "intact_verdict",
              "twin_matches_original", "mutant_contained")

    def __init__(self, seed: int, sizes: Sizes):
        self.seed, self.sizes = seed, sizes

    def setup(self, work: Path) -> list[float]:
        """Build inputs under `work`; returns the fixture generation times."""
        n, every = self.sizes.triage_videos_per_cell, DERIVE_EVERY
        started = time.perf_counter()
        train = generate_corpus(FixtureSpec(seed=self.seed, videos_per_cell=n),
                                work / "train")
        # Seed 7 reproduces the ROADMAP pairing: train on 7, classify 11.
        test = generate_corpus(FixtureSpec(seed=self.seed + 4, videos_per_cell=n),
                               work / "test")
        generate_s = time.perf_counter() - started
        blind = get_scenario(SCENARIO)
        labeled = derive_labels(train, blind)
        mf = train_model([extract_symbols(parse_file(str(row.path)))
                          for row, _ in labeled],
                         [label for _, label in labeled],
                         scenario=SCENARIO, trained_at="")
        self.model_path = work / "model.json"
        save_model(mf, str(self.model_path))
        self.train = train

        self.labels = {str(row.path): label
                       for row, label in derive_labels(test, blind)}
        intact = [str(row.path) for row in test.rows]
        self.twin_of: dict[str, str] = {}
        self.twin_bytes = twin_bytes(work)
        (work / "twins").mkdir()
        for src in intact[::every]:
            dst = work / "twins" / Path(src).name
            make_sparse_twin(Path(src), dst, self.twin_bytes)
            self.twin_of[str(dst)] = src
        self.mutants: set[str] = set()
        (work / "mutants").mkdir()
        for i, src in enumerate(intact[every // 2::every]):
            rng = random.Random(f"{self.seed}/mutant/{i}")
            dst = work / "mutants" / Path(src).name
            dst.write_bytes(mutate(Path(src).read_bytes(),
                                   _box_offsets(Path(src)), rng))
            self.mutants.add(str(dst))
        self.files = intact + list(self.twin_of) + sorted(self.mutants)
        return [generate_s]

    def models(self) -> list:
        return [load_model(str(self.model_path))]

    def complement(self, work: Path, tracer) -> PassResult:
        """For the traced run, the layers a pass never calls: the training
        corpus evaluated leave-one-device-out, as an analyst checks a model
        before classifying with it."""
        return _evaluate(self.train, tracer)[0]

    def run_pass(self, tracer=None) -> PassResult:
        result, records = _classify(self.model_path, self.files, tracer)
        pairs = []
        for f, label in self.labels.items():
            record = records.get(f, {})
            verdict = record.get("prediction")
            if verdict is not None:
                pairs.append((label, verdict))
            result.expect(verdict == label, "intact_verdict", f,
                          f"verdict {verdict!r} ({record.get('error')}), "
                          f"label {label}")
        for twin, original in self.twin_of.items():
            mine, theirs = records.get(twin, {}), records.get(original, {})
            result.expect("prediction" in mine and all(
                mine.get(key) == theirs.get(key) for key in ("prediction", "path")),
                "twin_matches_original", twin,
                f"verdict or path differs from {Path(original).name}")
        for mutant in self.mutants:
            # A verdict and a ParseError record both keep the contract.
            result.expect(mutant in records, "mutant_contained", mutant,
                          "no record")
        result.balanced_accuracy = _balanced_accuracy(pairs) if pairs else 0.0
        return result


def _lodo_devices(count: int):
    """`count` devices cycling through the default profiles, each with its
    own id, vendor box and movie timescale."""
    devices = []
    for i in range(count):
        base = DEFAULT_PROFILES[i % len(DEFAULT_PROFILES)]
        devices.append(dataclasses.replace(
            base, profile_id=f"V{i:02d}", vendor_box=f"vb{i:02d}".encode(),
            movie_timescale=base.movie_timescale + i))
    return tuple(devices)


def _type_code_pool(size: int, rng: random.Random) -> list[bytes]:
    """Printable type codes that the parser treats as opaque boxes."""
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    pool: set[bytes] = set()
    while len(pool) < size:
        code = "".join(rng.choice(alphabet) for _ in range(4))
        if code not in CONTAINER_TYPES and code not in TOP_LEVEL_TYPES \
                and not has_schema(code):
            pool.add(code.encode())
    return sorted(pool)


class Lodo:
    """Leave-one-device-out evaluation of the blind scenario."""

    checks = ("scenario_ran", "fold_count", "confusion_total",
              "balanced_accuracy_recomputed")

    def __init__(self, seed: int, sizes: Sizes, wide: bool):
        self.seed, self.sizes, self.wide = seed, sizes, wide
        self.name = "lodo-wide" if wide else "lodo"

    def setup(self, work: Path) -> list[float]:
        s = self.sizes
        if self.wide:
            spec = FixtureSpec(seed=self.seed, videos_per_cell=s.wide_videos_per_cell)
        else:
            spec = FixtureSpec(seed=self.seed, profiles=_lodo_devices(LODO_DEVICES),
                               videos_per_cell=s.lodo_videos_per_cell)
        started = time.perf_counter()
        self.manifest = generate_corpus(spec, work / "corpus")
        generate_s = time.perf_counter() - started
        self.files = [str(row.path) for row in self.manifest.rows]
        if self.wide:
            pool = _type_code_pool(WIDE_POOL, random.Random(f"{self.seed}/pool"))
            for row in self.manifest.rows:
                rng = random.Random(f"{self.seed}/wide/{row.file}")
                extra = b"".join(_box(code) for code in
                                 rng.sample(pool, WIDE_EXTRA_BOXES))
                with open(row.path, "ab") as handle:
                    handle.write(extra)
        self.report = None
        return [generate_s]

    def models(self) -> list:
        return [fold.model for fold in self.report.folds]

    def run_pass(self, tracer=None) -> PassResult:
        result, report = _evaluate(self.manifest, tracer)
        if report is not None:
            self.report = report
        return result

    def complement(self, work: Path, tracer) -> PassResult:
        """For the traced run, the layers a pass never calls: the corpus
        classified with the first fold's model, as an analyst uses a model
        once it is evaluated."""
        model_path = work / "fold-model.json"
        save_model(self.report.folds[0].model, str(model_path))
        return _classify(model_path, self.files, tracer)[0]


def make_workload(name: str, seed: int, sizes: Sizes):
    if name == "triage":
        return Triage(seed, sizes)
    if name in ("lodo", "lodo-wide"):
        return Lodo(seed, sizes, wide=name == "lodo-wide")
    raise ValueError(f"unknown workload {name!r}")


def model_bytes(models) -> list[int]:
    return [len(dumps_model(mf)) for mf in models]


def probes(seed: int, work: Path, sizes: Sizes) -> dict[str, float]:
    """Stress inputs for the parser, run untraced after the traced passes."""
    one = FixtureSpec(seed=seed, profiles=DEFAULT_PROFILES[:1],
                      classes=("native",), videos_per_cell=1)
    sample = generate_corpus(one, work / "probe").rows[0].path
    twin = work / "probe" / "twin.mp4"
    size = twin_bytes(work / "probe")
    make_sparse_twin(sample, twin, size)
    times = {sample: [], twin: []}
    for _ in range(100):
        for path in (sample, twin):
            started = time.perf_counter()
            parse_file(str(path))
            times[path].append(time.perf_counter() - started)
    twin.unlink()
    ratio = statistics.median(times[twin]) / statistics.median(times[sample])

    many = work / "probe" / "many-boxes.mp4"
    many.write_bytes(_box(b"ftyp", b"isom\0\0\0\0isom")
                     + _box(b"free") * sizes.probe_boxes)
    started = time.perf_counter()
    parse_file(str(many))
    many_s = time.perf_counter() - started
    many.unlink()

    deep = io.BytesIO(b"".join(struct.pack(">I4s", 8 * (PROBE_DEPTH - d), b"moov")
                               for d in range(PROBE_DEPTH)))
    escaped = ""
    try:
        parse_container(deep, "deep")
    except ParseError:
        pass
    # Recorded, not hidden: anything but ParseError breaks the parser's
    # input contract, so it is counted and named in the report.
    except Exception as exc:
        escaped = type(exc).__name__
    return {"sparse_twin_ratio": ratio, "twin_bytes": size,
            "parse_s_200k_boxes": many_s,
            "deep_nesting_escapes": float(bool(escaped)),
            "deep_nesting_error": escaped}
