"""Canonical model serialization and the train/classify pipeline.

Model files are JSON with sorted keys, 12-significant-digit floats, and
a trailing newline, so that load followed by save is byte-identical and
two independently trained models can be compared with `diff`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, DimensionMismatch, EmptyCorpus, ModelFormatError
from .llr import DEFAULT_TAU, FilterConfig, class_presence, pairwise_llr
from .tree import (
    DecisionTreeModel,
    PathStep,
    SplitCandidate,
    TreeNode,
    TreeParams,
    decide,
    preorder,
    train_tree,
)
from .vectorize import Vocabulary, count_matrix

MODEL_FORMAT_VERSION = 1


def _emit(value, indent: int, pieces: list[str]) -> None:
    """Append the canonical JSON of `value` to `pieces`. A plain function,
    not a closure over `pieces`: a closure that calls itself is a reference
    cycle, which would keep a large model's pieces alive until the cyclic
    garbage collector next ran."""
    pad = "  " * indent
    if value is None or isinstance(value, bool):
        pieces.append(json.dumps(value))
    elif isinstance(value, int):
        pieces.append(str(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ModelFormatError(f"non-finite float {value!r} in model")
        pieces.append(format(value, ".12g"))
    elif isinstance(value, str):
        pieces.append(json.dumps(value, ensure_ascii=True))
    elif isinstance(value, (list, tuple)):
        if not value:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, item in enumerate(value):
            pieces.append(pad + "  ")
            _emit(item, indent + 1, pieces)
            pieces.append(",\n" if i < len(value) - 1 else "\n")
        pieces.append(pad + "]")
    elif isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        keys = sorted(value)
        pieces.append("{\n")
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise ModelFormatError(f"non-string key {key!r}")
            pieces.append(pad + "  " + json.dumps(key, ensure_ascii=True) + ": ")
            _emit(value[key], indent + 1, pieces)
            pieces.append(",\n" if i < len(keys) - 1 else "\n")
        pieces.append(pad + "}")
    else:
        raise ModelFormatError(f"unserializable value of type {type(value)}")


def canonical_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, ``.12g`` floats, newline-terminated."""
    pieces: list[str] = []
    _emit(obj, 0, pieces)
    pieces.append("\n")
    return "".join(pieces)


def resolve_timestamp(explicit: str | None = None) -> str:
    """Training timestamp; honours SOURCE_DATE_EPOCH for reproducible runs."""
    if explicit is not None:
        return explicit
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch:
        stamp = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    else:
        stamp = datetime.now(tz=timezone.utc)
    return stamp.isoformat(timespec="seconds")


@dataclass
class ModelFile:
    """A trained model plus everything needed to reproduce its verdicts.

    `file_digest` is the sha256 of the bytes `load_model` read it from,
    and empty for a model that was not loaded from a file.
    """

    full_vocabulary: list[str]
    kept: list[bool]
    tau: float
    model: DecisionTreeModel
    scenario: str = ""
    manifest_digest: str = ""
    trained_at: str = ""
    file_digest: str = ""


def _tree_to_preorder(root: TreeNode) -> list[dict]:
    return [{"label": node.label, "distribution": dict(node.distribution)}
            if node.is_leaf else
            {"feature": node.split.feature_index,
             "threshold": node.split.threshold}
            for node in preorder(root)]


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ModelFormatError(message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A JSON number that converts to a finite float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _is_sorted_strings(value) -> bool:
    """A list of distinct strings in ascending order."""
    return (isinstance(value, list)
            and all(isinstance(s, str) for s in value)
            and all(a < b for a, b in zip(value, value[1:])))


def _node_from_obj(obj, classes: set[str], n_features: int) -> TreeNode:
    _check(isinstance(obj, dict), f"tree node {obj!r} is not an object")
    if "label" in obj:
        label, dist = obj["label"], obj.get("distribution", {})
        _check(isinstance(label, str) and label in classes,
               f"leaf label {label!r} is not a class")
        _check(isinstance(dist, dict) and set(dist) <= classes
               and all(_is_finite(v) for v in dist.values()),
               f"leaf distribution {dist!r} is not finite masses of classes")
        return TreeNode(distribution={k: float(v) for k, v in dist.items()},
                        label=label)
    feature, threshold = obj.get("feature"), obj.get("threshold")
    _check(_is_int(feature) and 0 <= feature < n_features,
           f"feature index {feature!r} outside vocabulary")
    _check(_is_finite(threshold), f"threshold {threshold!r} is not finite")
    split = SplitCandidate(feature_index=feature, threshold=float(threshold),
                           weighted_gini_decrease=0.0)
    return TreeNode(distribution={}, label="", split=split)


def _tree_from_preorder(nodes: list, classes: set[str],
                        n_features: int) -> TreeNode:
    """The tree whose preorder is `nodes`, built without recursion, so a
    model's depth is not bounded by the Python stack."""
    root: TreeNode | None = None
    open_nodes: list[TreeNode] = []  # internal nodes still missing a child
    for obj in nodes:
        _check(root is None or bool(open_nodes),
               "extra nodes after the tree preorder ended")
        node = _node_from_obj(obj, classes, n_features)
        if root is None:
            root = node
        elif open_nodes[-1].left is None:
            open_nodes[-1].left = node
        else:
            open_nodes.pop().right = node
        if not node.is_leaf:
            open_nodes.append(node)
    _check(root is not None and not open_nodes, "tree node list ended early")
    return root


def model_to_obj(mf: ModelFile) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "vocabulary": list(mf.full_vocabulary),
        "filter": {"tau": float(mf.tau), "kept": [int(k) for k in mf.kept]},
        "classes": list(mf.model.classes),
        "class_weights": {c: float(w) for c, w in mf.model.class_weights.items()},
        "params": {
            "max_depth": mf.model.params.max_depth,
            "min_samples_leaf": mf.model.params.min_samples_leaf,
            "ccp_alpha": float(mf.model.params.ccp_alpha),
        },
        "tree": _tree_to_preorder(mf.model.root),
        "metadata": {
            "scenario": mf.scenario,
            "manifest_digest": mf.manifest_digest,
            "trained_at": mf.trained_at,
        },
    }


def dumps_model(mf: ModelFile) -> str:
    return canonical_dumps(model_to_obj(mf))


def loads_model(text: str) -> ModelFile:
    """The model a model file's text describes; any text that does not
    follow the format raises `ModelFormatError`."""
    try:
        obj = json.loads(text)
    except ValueError as exc:  # bad JSON, or an integer over the digit limit
        raise ModelFormatError(f"model file is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # arrays or objects nested too deep
        raise ModelFormatError(
            "model file nests JSON too deeply to read") from exc
    _check(isinstance(obj, dict), "model file must hold a JSON object")
    version = obj.get("format_version")
    _check(_is_int(version) and version == MODEL_FORMAT_VERSION,
           f"unsupported model format version {version!r} "
           f"(expected {MODEL_FORMAT_VERSION})")
    full_vocab, classes = obj.get("vocabulary"), obj.get("classes")
    _check(_is_sorted_strings(full_vocab),
           "vocabulary must be a sorted list of distinct strings")
    _check(_is_sorted_strings(classes) and len(classes) > 0,
           "classes must be a sorted, non-empty list of distinct strings")
    filter_obj = obj.get("filter")
    _check(isinstance(filter_obj, dict), "filter must be an object")
    kept, tau = filter_obj.get("kept"), filter_obj.get("tau")
    _check(isinstance(kept, list) and all(_is_int(k) and k in (0, 1)
                                          for k in kept),
           "kept mask must be a list of 0 and 1")
    _check(len(kept) == len(full_vocab),
           "kept mask length does not match vocabulary")
    _check(_is_finite(tau) and tau > 0,
           f"tau {tau!r} is not finite and above 0")
    weights = obj.get("class_weights")
    _check(isinstance(weights, dict) and sorted(weights) == classes
           and all(_is_finite(w) for w in weights.values()),
           "class_weights must map each class to a finite number")
    params = obj.get("params")
    _check(isinstance(params, dict), "params must be an object")
    max_depth = params.get("max_depth")
    min_samples_leaf = params.get("min_samples_leaf")
    ccp_alpha = params.get("ccp_alpha")
    _check(max_depth is None or _is_int(max_depth) and max_depth >= 0,
           f"max_depth {max_depth!r} is not null or an integer of at least 0")
    _check(_is_int(min_samples_leaf) and min_samples_leaf >= 1,
           f"min_samples_leaf {min_samples_leaf!r} is not an integer "
           f"of at least 1")
    _check(_is_finite(ccp_alpha) and ccp_alpha >= 0,
           f"ccp_alpha {ccp_alpha!r} is not finite and at least 0")
    tree_nodes = obj.get("tree")
    _check(isinstance(tree_nodes, list), "tree must be a list of nodes")
    metadata = obj.get("metadata", {})
    _check(isinstance(metadata, dict) and all(
        isinstance(metadata.get(key, ""), str)
        for key in ("scenario", "manifest_digest", "trained_at")),
        "metadata must be an object of strings")
    filtered = Vocabulary.from_strings(
        s for s, keep in zip(full_vocab, kept) if keep)
    root = _tree_from_preorder(tree_nodes, set(classes), len(filtered))
    model = DecisionTreeModel(
        root=root, vocabulary=filtered, classes=classes,
        class_weights={c: float(w) for c, w in weights.items()},
        params=TreeParams(max_depth=max_depth,
                          min_samples_leaf=min_samples_leaf,
                          ccp_alpha=float(ccp_alpha)))
    return ModelFile(full_vocabulary=full_vocab, kept=[k == 1 for k in kept],
                     tau=float(tau), model=model,
                     scenario=metadata.get("scenario", ""),
                     manifest_digest=metadata.get("manifest_digest", ""),
                     trained_at=metadata.get("trained_at", ""))


def save_model(mf: ModelFile, path: str) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(dumps_model(mf))


def load_model(path: str) -> ModelFile:
    """Read a model file once; the model's `file_digest` names its bytes.
    A path that no file can have (one holding a NUL byte) raises
    `ModelFormatError`."""
    try:
        handle = open(path, "rb")
    except ValueError as exc:  # an embedded NUL byte
        raise ModelFormatError(f"unusable model path: {exc}") from exc
    with handle:
        data = handle.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ModelFormatError(f"model file is not ASCII: {exc}") from exc
    mf = loads_model(text)
    mf.file_digest = hashlib.sha256(data).hexdigest()
    return mf


def model_digest(mf: ModelFile) -> str:
    """sha256 of the model's canonical serialization: the `file_digest`
    of a file that `save_model` wrote."""
    return hashlib.sha256(dumps_model(mf).encode("ascii")).hexdigest()


def train_matrix(
    symbols: Sequence[str],
    counts: np.ndarray,
    labels: Sequence[str],
    multiplicity: Sequence[int] | np.ndarray | None = None,
    *,
    tau: float = DEFAULT_TAU,
    params: TreeParams = TreeParams(),
    scenario: str = "",
    manifest_digest: str = "",
    trained_at: str | None = None,
) -> ModelFile:
    """Vocabulary, LLR filter, class weights and tree, in training order.

    `counts` has one column per symbol of `symbols` and one row per label
    of `labels`. Row i stands for ``multiplicity[i]`` training files with
    its counts and label (default one), and 0 leaves it out; the model is
    that of training on the files themselves, byte for byte. So a
    leave-one-device-out fold passes the scenario's distinct rows with
    its held-out device's multiplicities set to 0.

    The vocabulary is the symbols that some training file contains, and
    the filter reads only ``class_presence``, the table of how many
    training files of each class contain each symbol.
    """
    if len(counts) == 0:
        raise EmptyCorpus("cannot train on an empty corpus")
    if len(counts) != len(labels):
        raise DimensionMismatch(
            f"{len(counts)} files but {len(labels)} labels")
    cfg = FilterConfig(tau)
    classes = sorted(set(labels))
    to_int = {c: i for i, c in enumerate(classes)}
    y = np.array([to_int[label] for label in labels], dtype=np.intp)
    m = np.ones(len(y), dtype=np.intp) if multiplicity is None \
        else np.asarray(multiplicity)
    if m.shape != y.shape:
        raise DimensionMismatch(f"{m.size} multiplicities for {len(y)} rows")
    if m.dtype.kind not in "iu" or (m < 0).any():
        raise DataError("multiplicities must be integers of at least 0")
    sizes = np.bincount(y, weights=m, minlength=len(classes)).astype(np.int64)
    if not sizes.any():
        raise EmptyCorpus("cannot train on an empty corpus")
    presence = class_presence(counts, y, len(classes), m)
    used = np.flatnonzero(presence.any(axis=0))
    vocab = [symbols[j] for j in used]
    trained = sizes > 0
    if np.count_nonzero(trained) < 2:
        # The pairwise filter is undefined for one class; keep everything
        # and let training degenerate to a single leaf.
        kept = np.ones(len(vocab), dtype=bool)
    else:
        kept = pairwise_llr(presence[np.ix_(trained, used)],
                            sizes[trained])[0] > cfg.tau
    rows = np.flatnonzero(m)
    filtered = Vocabulary.from_strings(s for s, k in zip(vocab, kept) if k)
    model = train_tree(counts[np.ix_(rows, used[kept])],
                       [labels[i] for i in rows], filtered, params,
                       multiplicity=m[rows])
    return ModelFile(full_vocabulary=vocab, kept=kept.tolist(), tau=tau,
                     model=model, scenario=scenario,
                     manifest_digest=manifest_digest,
                     trained_at=resolve_timestamp(trained_at))


def train_model(corpus: Iterable[Counter[str]], labels: Sequence[str],
                **options) -> ModelFile:
    """`train_matrix` over the count matrix of the training files' symbol
    multisets; `options` are its keyword arguments."""
    return train_matrix(*count_matrix(corpus), labels, **options)


def classify_symbols(mf: ModelFile, symbols: Counter[str]) -> tuple[str, list[PathStep]]:
    """Predict a file's class from its symbols, and the path that decided
    it: one walk of the tree, which reads from `symbols` the count of each
    symbol it tests, so its cost does not grow with the vocabulary."""
    names, count = mf.model.vocabulary.symbols, symbols.get
    return decide(mf.model, lambda j: count(names[j], 0))
