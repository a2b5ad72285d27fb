"""Dataset manifests, classification scenarios, and the
leave-one-device-out evaluation harness.

Every fold trains exclusively on the remaining devices: vocabulary,
symbol filter, class weights and tree never see the held-out device, so
reported accuracies reflect unseen hardware.
"""

from __future__ import annotations

import csv
import hashlib
import io
import time
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DataError,
    EmptyMatrix,
    EmptyScenario,
    MalformedRow,
    SingleDevice,
    UnknownEnum,
)
from .llr import FilterConfig
from .modelfile import ModelFile, train_folds
from .symbols import file_count_matrix
from .tree import TreeParams, decision_path, predict, replay_path

MANIFEST_HEADER = ("file", "device", "os", "software", "platform")

# The manifest's values and the classes the scenarios name them by: the
# one statement of both.
_SOFTWARE_CLASS = {
    "none": "Native", "avidemux": "Avidemux", "exiftool": "Exiftool",
    "ffmpeg": "ffmpeg", "kdenlive": "Kdenlive", "premiere": "Premiere",
}
_PLATFORM_CLASS = {
    "facebook": "Facebook", "tiktok": "TikTok",
    "weibo": "Weibo", "youtube": "YouTube",
}
OS_VALUES = ("Android", "iOS")
SOFTWARE_VALUES = tuple(_SOFTWARE_CLASS)
PLATFORM_VALUES = ("none", *_PLATFORM_CLASS)


@dataclass(frozen=True)
class ManifestRow:
    file: str
    device: str
    os: str
    software: str
    platform: str
    path: Path


@dataclass
class DatasetManifest:
    path: Path
    rows: list[ManifestRow]
    warnings: list[str] = field(default_factory=list)
    skipped_missing: int = 0

    def devices(self) -> list[str]:
        return sorted({row.device for row in self.rows})


def _csv_records(text: str) -> Iterator[tuple[int, list[str]]]:
    """The records of a CSV text, each with the physical line it ends on.
    One that `csv` refuses, such as a field over its length limit, raises
    `MalformedRow` naming its line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for record in reader:
            yield reader.line_num, record
    except csv.Error as exc:
        raise MalformedRow(f"line {reader.line_num}: {exc}") from exc


def load_manifest(path: str | Path) -> DatasetManifest:
    """Read and validate a `file,device,os,software,platform` CSV."""
    path = Path(path)
    base = path.parent
    rows: list[ManifestRow] = []
    warnings: list[str] = []
    skipped = 0
    try:
        data = path.read_bytes()
    except ValueError as exc:  # a path no file can have: a NUL byte in it
        raise DataError(f"unusable manifest path: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise MalformedRow(
            f"line {line}: manifest is not UTF-8 text ({exc.reason} at "
            f"byte {exc.start})") from exc
    reader = _csv_records(text)
    try:
        _, header = next(reader)
    except StopIteration:
        raise MalformedRow("manifest is empty, expected a header row")
    if tuple(h.strip() for h in header) != MANIFEST_HEADER:
        raise MalformedRow(
            f"bad header {header!r}, expected {','.join(MANIFEST_HEADER)}")
    for line_no, raw in reader:
        if not raw or all(not cell.strip() for cell in raw):
            continue
        if len(raw) != 5:
            raise MalformedRow(
                f"line {line_no}: expected 5 columns, got {len(raw)}")
        file_name, device, os_name, software, platform = (
            cell.strip() for cell in raw)
        if not file_name or not device:
            raise MalformedRow(f"line {line_no}: empty file or device")
        if os_name not in OS_VALUES:
            raise UnknownEnum(f"line {line_no}: unknown os {os_name!r}")
        if software not in SOFTWARE_VALUES:
            raise UnknownEnum(f"line {line_no}: unknown software {software!r}")
        if platform not in PLATFORM_VALUES:
            raise UnknownEnum(f"line {line_no}: unknown platform {platform!r}")
        resolved = Path(file_name)
        if not resolved.is_absolute():
            resolved = base / resolved
        if not resolved.exists():
            warnings.append(f"line {line_no}: missing file {file_name}, skipped")
            skipped += 1
            continue
        rows.append(ManifestRow(file_name, device, os_name, software,
                                platform, resolved))
    return DatasetManifest(path=path, rows=rows, warnings=warnings,
                           skipped_missing=skipped)


def _row_line(r: ManifestRow) -> str:
    return f"{r.file},{r.device},{r.os},{r.software},{r.platform}"


def _digest_lines(lines: Iterable[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def digest_rows(rows: Sequence[ManifestRow]) -> str:
    """Digest of the rows a model was trained on, independent of file layout."""
    return _digest_lines(sorted(map(_row_line, rows)))


@dataclass(frozen=True)
class Scenario:
    """A row filter plus a label function defining one classification task."""

    name: str
    matches: Callable[[ManifestRow], bool]
    label: Callable[[ManifestRow], str]


def _software_os_label(row: ManifestRow) -> str:
    software = "native" if row.software == "none" else row.software
    return f"{row.os}-{software}"


def _integrity_label(row: ManifestRow) -> str:
    return "Pristine" if row.software == "none" else "Tampered"


def _no_platform(row: ManifestRow) -> bool:
    return row.platform == "none"


# Each scenario's row filter and label function.
_SCENARIOS: dict[str, tuple[Callable[[ManifestRow], bool],
                            Callable[[ManifestRow], str]]] = {
    "integrity": (_no_platform, _integrity_label),
    "software": (_no_platform, lambda r: _SOFTWARE_CLASS[r.software]),
    "software_os": (_no_platform, _software_os_label),
    "blind": (lambda r: True,
              lambda r: (_software_os_label(r) if r.platform == "none"
                         else _PLATFORM_CLASS[r.platform])),
    **{f"social_integrity:{p}": (lambda r, p=p: r.platform == p,
                                 _integrity_label)
       for p in _PLATFORM_CLASS},
}


def scenario_names() -> list[str]:
    return list(_SCENARIOS)


def get_scenario(name: str) -> Scenario:
    try:
        return Scenario(name, *_SCENARIOS[name])
    except KeyError:
        raise UnknownEnum(f"unknown scenario {name!r}; valid: "
                          f"{', '.join(_SCENARIOS)}") from None


def derive_labels(
    manifest: DatasetManifest, scenario: Scenario
) -> list[tuple[ManifestRow, str]]:
    """Apply the scenario's filter and label function to the manifest."""
    labeled = [(row, scenario.label(row)) for row in manifest.rows
               if scenario.matches(row)]
    if not labeled:
        raise EmptyScenario(
            f"scenario {scenario.name!r} matches no manifest rows")
    return labeled


@dataclass(frozen=True)
class Fold:
    device: str
    train_rows: tuple[ManifestRow, ...]
    test_rows: tuple[ManifestRow, ...]


def lodo_folds(manifest: DatasetManifest) -> list[Fold]:
    """One fold per device: its rows test, everything else trains."""
    devices = manifest.devices()
    if len(devices) < 2:
        raise SingleDevice(
            f"leave-one-device-out needs at least 2 devices, got {len(devices)}")
    folds = []
    for device in devices:
        test = tuple(r for r in manifest.rows if r.device == device)
        train = tuple(r for r in manifest.rows if r.device != device)
        folds.append(Fold(device=device, train_rows=train, test_rows=test))
    return folds


@dataclass
class ConfusionMatrix:
    """Raw prediction counts; rows are true classes, columns predicted."""

    classes: list[str]
    counts: np.ndarray

    @classmethod
    def empty(cls, classes: Sequence[str]) -> "ConfusionMatrix":
        n = len(classes)
        return cls(list(classes), np.zeros((n, n), dtype=np.int64))

    def add(self, true_label: str, predicted: str, count: int = 1) -> None:
        i = self.classes.index(true_label)
        j = self.classes.index(predicted)
        self.counts[i, j] += count

    def row_normalized(self) -> np.ndarray:
        totals = self.counts.sum(axis=1, keepdims=True)
        safe = np.where(totals == 0, 1, totals)
        return self.counts / safe

    def recalls(self) -> dict[str, float]:
        out = {}
        for i, cls in enumerate(self.classes):
            row_total = self.counts[i].sum()
            if row_total > 0:
                out[cls] = float(self.counts[i, i] / row_total)
        return out


def balanced_accuracy(cm: ConfusionMatrix) -> float:
    """Mean per-class recall over classes with at least one sample."""
    recalls = cm.recalls()
    if not recalls:
        raise EmptyMatrix("no class has any sample")
    return float(np.mean(list(recalls.values())))


@dataclass
class FoldResult:
    device: str
    n_train: int
    n_test: int
    balanced_accuracy: float
    confusion: ConfusionMatrix
    train_seconds: float
    test_seconds: float
    model: ModelFile


@dataclass
class EvaluationReport:
    scenario: str
    classes: list[str]
    folds: list[FoldResult]
    global_balanced_accuracy: float
    mean_confusion: np.ndarray
    train_seconds: float  # all folds', trained together
    positive_class: str | None = None
    tpr: float | None = None
    tnr: float | None = None


def labeled_matrix(
    manifest: DatasetManifest, scenario: Scenario
) -> tuple[list[ManifestRow], tuple[str, ...], np.ndarray, np.ndarray,
           list[str]]:
    """The scenario's rows; the columns and distinct rows of their count
    matrix, `count_matrix` of the rows' `file_symbols`; each row's number
    in it; and their labels. Two rows have one number exactly when their
    count rows are equal. Each file is read once, even if listed on
    several rows, and its boxes are counted straight into columns by
    `file_count_matrix`, so no multiset is built."""
    labeled = derive_labels(manifest, scenario)
    rows = [row for row, _ in labeled]
    paths = list(dict.fromkeys(row.path for row in rows))
    symbols, counts, row_of = file_count_matrix(map(str, paths))
    if len(paths) < len(rows):  # a file listed on several rows
        file_row = {path: i for i, path in enumerate(paths)}
        row_of = row_of[[file_row[row.path] for row in rows]]
    return rows, symbols, counts, row_of, [label for _, label in labeled]


def row_counts(counts: np.ndarray, row_of: np.ndarray) -> np.ndarray:
    """The count row of each of `labeled_matrix`'s rows, ``counts[row_of]``:
    `counts` itself, with no copy, when no row repeats. Rows are numbered
    in the order of their first file, so then `row_of` counts up from 0."""
    return counts if len(row_of) == len(counts) else counts[row_of]


def run_scenario(
    manifest: DatasetManifest,
    scenario: Scenario,
    filter_cfg: FilterConfig | None = None,
    tree_params: TreeParams | None = None,
) -> EvaluationReport:
    """Leave-one-device-out evaluation of one scenario.

    `labeled_matrix` reads every scenario file once, counts its boxes
    straight into columns, and gives the distinct count rows and each
    file's row number. Files of one device and label with one row number
    are one entry with a multiplicity, grouped by that pair of integers,
    so each fold trains and tests every distinct row once. There is one fold
    per device with a row in the scenario. Its `train_matrix` gets every
    entry, with the held-out device's multiplicities set to 0, so its
    vocabulary, filter, weights and tree are those of training on the
    other devices' files alone. Each held-out entry is passed to the tree
    as a count row over the columns its model kept; every prediction's
    decision path is replayed as a self-check, and the verdict counts
    once per file the entry stands for.
    """
    cfg = filter_cfg if filter_cfg is not None else FilterConfig()
    params = tree_params if tree_params is not None else TreeParams()
    rows, symbols, counts, row_of, labels = labeled_matrix(manifest,
                                                           scenario)
    classes = sorted(set(labels))
    devices = sorted({row.device for row in rows})
    if len(devices) < 2:
        raise SingleDevice(
            f"leave-one-device-out needs at least 2 devices, got "
            f"{len(devices)} in scenario {scenario.name!r}")
    n_classes = len(classes)
    device_of = {device: d for d, device in enumerate(devices)}
    class_of = {label: c for c, label in enumerate(classes)}
    groups = np.array([device_of[row.device] * n_classes + class_of[label]
                       for row, label in zip(rows, labels)], dtype=np.intp)
    # Each (group, row number) pair's first row and files, in row order.
    _, first, multiplicity = np.unique(groups * len(counts) + row_of,
                                       return_index=True, return_counts=True)
    order = np.argsort(first)
    first, multiplicity = first[order], multiplicity[order]
    # The entries' rows alone stay.
    entries = counts if len(first) == len(counts) else counts[row_of[first]]
    del counts
    entry_device = groups[first] // n_classes
    entry_labels = [labels[i] for i in first]
    column = {s: j for j, s in enumerate(symbols)}
    # Each fold's `digest_rows`: its rows' lines in one sorted order.
    ordered = sorted((_row_line(row), device_of[row.device]) for row in rows)
    lines = [line for line, _ in ordered]
    line_device = np.array([d for _, d in ordered])
    started = time.perf_counter()
    models = train_folds(
        symbols, entries, entry_labels, multiplicity, entry_device,
        tau=cfg.tau, params=params, scenario=scenario.name,
        manifest_digests=[_digest_lines(compress(lines, (line_device != d)
                                                 .tolist()))
                          for d in range(len(devices))],
        trained_at="")
    train_seconds = time.perf_counter() - started
    results: list[FoldResult] = []
    for d, (held_out, mf) in enumerate(zip(devices, models)):
        held = entry_device == d
        cm = ConfusionMatrix.empty(classes)
        started = time.perf_counter()
        test = np.flatnonzero(held).tolist()
        kept_columns = [column[s] for s in mf.model.vocabulary.symbols]
        test_rows = entries[np.ix_(test, kept_columns)].tolist()
        for e, row_counts in zip(test, test_rows):
            verdict = predict(mf.model, row_counts)
            # Every verdict must be reproducible from its own explanation.
            steps = decision_path(mf.model, row_counts)
            replayed = replay_path(mf.model, steps)
            if replayed != verdict:
                raise AssertionError(
                    f"decision path replay gave {replayed!r}, "
                    f"predict gave {verdict!r} for {rows[first[e]].file}")
            cm.add(entry_labels[e], verdict, int(multiplicity[e]))
        test_seconds = time.perf_counter() - started
        n_test = int(cm.counts.sum())
        results.append(FoldResult(
            device=held_out, n_train=len(rows) - n_test,
            n_test=n_test, balanced_accuracy=balanced_accuracy(cm),
            confusion=cm, train_seconds=train_seconds / len(devices),
            test_seconds=test_seconds, model=mf))
    global_bacc = float(np.mean([r.balanced_accuracy for r in results]))
    n = len(classes)
    rate_sums = np.zeros((n, n))
    row_folds = np.zeros(n)
    for result in results:
        normalized = result.confusion.row_normalized()
        present = result.confusion.counts.sum(axis=1) > 0
        rate_sums[present] += normalized[present]
        row_folds[present] += 1
    mean_confusion = np.zeros((n, n))
    nonzero = row_folds > 0
    mean_confusion[nonzero] = rate_sums[nonzero] / row_folds[nonzero, None]
    report = EvaluationReport(scenario=scenario.name, classes=classes,
                              folds=results,
                              global_balanced_accuracy=global_bacc,
                              mean_confusion=mean_confusion,
                              train_seconds=train_seconds)
    if len(classes) == 2:
        positive = "Tampered" if "Tampered" in classes else classes[1]
        negative = next(c for c in classes if c != positive)
        tprs, tnrs = [], []
        for result in results:
            recalls = result.confusion.recalls()
            if positive in recalls:
                tprs.append(recalls[positive])
            if negative in recalls:
                tnrs.append(recalls[negative])
        report.positive_class = positive
        report.tpr = float(np.mean(tprs)) if tprs else None
        report.tnr = float(np.mean(tnrs)) if tnrs else None
    return report


def report_to_obj(report: EvaluationReport) -> dict:
    """JSON-ready dictionary form of an evaluation report."""
    obj: dict = {
        "scenario": report.scenario,
        "classes": report.classes,
        "global_balanced_accuracy": report.global_balanced_accuracy,
        "mean_confusion": [[float(x) for x in row]
                           for row in report.mean_confusion],
        "train_seconds": report.train_seconds,
        "folds": [
            {
                "device": r.device,
                "n_train": r.n_train,
                "n_test": r.n_test,
                "balanced_accuracy": r.balanced_accuracy,
                "confusion_counts": r.confusion.counts.tolist(),
                "train_seconds": r.train_seconds,
                "test_seconds": r.test_seconds,
            }
            for r in report.folds
        ],
    }
    if report.positive_class is not None:
        obj["positive_class"] = report.positive_class
        obj["tpr"] = report.tpr
        obj["tnr"] = report.tnr
    return obj


def _format_rate(x: float) -> str:
    return "   -" if x == 0 else f"{x:4.2f}"


def format_report_text(report: EvaluationReport) -> str:
    """Aligned-text tables: per-device accuracy, confusion, two-class rates."""
    lines = [f"Scenario: {report.scenario} ({len(report.classes)} classes)",
             f"Folds: {len(report.folds)} (leave-one-device-out)", "",
             "Device    Bal.Acc   n_test   Train(s)  Test(s)"]
    for r in report.folds:
        lines.append(f"{r.device:<10}{r.balanced_accuracy:5.2f}   "
                     f"{r.n_test:>6}   "
                     f"{r.train_seconds:8.3f}  {r.test_seconds:7.3f}")
    lines.append("")
    lines.append(f"Global balanced accuracy: "
                 f"{report.global_balanced_accuracy:.4f}")
    if report.positive_class is not None:
        tpr = "n/a" if report.tpr is None else f"{report.tpr:.4f}"
        tnr = "n/a" if report.tnr is None else f"{report.tnr:.4f}"
        lines.append(f"Two-class rates (positive={report.positive_class}): "
                     f"TPR={tpr} TNR={tnr}")
    lines.append("")
    width = max([len(c) for c in report.classes] + [8])
    header = " " * (width + 2) + "  ".join(f"{c:>{width}}"
                                           for c in report.classes)
    lines.append("Mean confusion matrix (rows = true class, fold-averaged):")
    lines.append(header)
    for i, cls in enumerate(report.classes):
        cells = "  ".join(f"{_format_rate(report.mean_confusion[i, j]):>{width}}"
                          for j in range(len(report.classes)))
        lines.append(f"{cls:<{width}}  {cells}")
    return "\n".join(lines) + "\n"
