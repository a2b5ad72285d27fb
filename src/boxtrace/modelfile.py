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
from .llr import DEFAULT_TAU, FilterConfig, class_presence, pairwise_keep
from .tree import (
    DecisionTreeModel,
    PathStep,
    SplitCandidate,
    TreeNode,
    TreeParams,
    _grow,
    _is_finite,
    _is_int,
    compute_class_weights,
    decide,
    encode_counts,
    preorder,
    prune,
)
from .vectorize import Vocabulary, count_matrix

MODEL_FORMAT_VERSION = 1

# `json.dumps`'s encoder for strings: ASCII, with any other character
# (a lone surrogate too) as a \u escape. `cli` writes its records with it.
_json_str = json.encoder.encode_basestring_ascii


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
        pieces.append(_json_str(value))
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
            pieces.append(pad + "  " + _json_str(key) + ": ")
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
    """Training timestamp; honours SOURCE_DATE_EPOCH for reproducible runs.
    A SOURCE_DATE_EPOCH that is not a Unix time in `datetime`'s range
    raises `DataError`."""
    if explicit is not None:
        return explicit
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch:
        try:
            stamp = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
        except (ValueError, OverflowError, OSError) as exc:
            raise DataError(f"SOURCE_DATE_EPOCH={epoch!r} is not a usable "
                            f"Unix time: {exc}") from exc
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
    kept = filter_obj.get("kept")
    _check(isinstance(kept, list) and all(_is_int(k) and k in (0, 1)
                                          for k in kept),
           "kept mask must be a list of 0 and 1")
    _check(len(kept) == len(full_vocab),
           "kept mask length does not match vocabulary")
    weights = obj.get("class_weights")
    _check(isinstance(weights, dict) and sorted(weights) == classes
           and all(_is_finite(w) for w in weights.values()),
           "class_weights must map each class to a finite number")
    params_obj = obj.get("params")
    _check(isinstance(params_obj, dict), "params must be an object")
    try:  # the two classes own the hyperparameters' ranges
        cfg = FilterConfig(filter_obj.get("tau"))
        params = TreeParams(**{name: params_obj.get(name) for name in (
            "max_depth", "min_samples_leaf", "ccp_alpha")})
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc
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
        params=params)
    return ModelFile(full_vocabulary=full_vocab, kept=[k == 1 for k in kept],
                     tau=cfg.tau, model=model,
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


def train_folds(
    symbols: Sequence[str],
    counts: np.ndarray,
    labels: Sequence[str],
    multiplicity: Sequence[int] | np.ndarray | None = None,
    groups: Sequence[int] | np.ndarray | None = None,
    *,
    tau: float = DEFAULT_TAU,
    params: TreeParams = TreeParams(),
    scenario: str = "",
    manifest_digests: Sequence[str] | None = None,
    trained_at: str | None = None,
) -> list[ModelFile]:
    """The models of folds that each leave one group of rows out, trained
    together: vocabulary, LLR filter, class weights and tree.

    `counts` has one column per symbol of `symbols` and one row per label
    of `labels`. Row i stands for ``multiplicity[i]`` training files with
    its counts and label (default one), and 0 leaves it out. Row i is in
    group ``groups[i]``, an integer, and there is one fold per group, in
    ascending order, which leaves out the rows of that group. Without
    `groups` there is one fold, which leaves nothing out. Fold f's
    model is that of training on its files alone, byte for byte, and
    carries ``manifest_digests[f]`` (default empty).

    A fold's vocabulary is the symbols that some of its files contain, and
    its filter reads only its presence table, how many of its files of
    each class contain each symbol, and its class sizes. These are made
    once per (group, class), and a fold's are their totals minus its
    group's. The trees grow together (see `tree._grow`).
    """
    stamp = resolve_timestamp(trained_at)
    cfg = FilterConfig(tau)
    if len(labels) == 0:
        raise EmptyCorpus("cannot train on an empty corpus")
    if any(a >= b for a, b in zip(symbols, symbols[1:])):
        raise DataError("symbols must be sorted and distinct")
    counts, y, m, classes = encode_counts(counts, labels, len(symbols),
                                          multiplicity, least=0)
    if groups is None:
        group, held = np.zeros(len(y), dtype=np.intp), np.array([1])
    else:
        group = np.asarray(groups)
        if group.shape != (len(y),):
            raise DimensionMismatch(f"{group.size} groups for {len(y)} rows")
        if group.dtype.kind not in "iu":
            raise DataError("groups must be integers")
        group = np.unique(group, return_inverse=True)[1].reshape(-1)
        held = np.arange(int(group.max()) + 1)
    digests = [""] * len(held) if manifest_digests is None \
        else list(manifest_digests)
    if len(digests) != len(held):
        raise DimensionMismatch(
            f"{len(digests)} manifest digests for {len(held)} folds")
    n_groups, n_classes = max(int(group.max()), int(held.max())) + 1, \
        len(classes)
    code = group * n_classes + y
    sizes = np.bincount(code, weights=m, minlength=n_groups * n_classes)
    sizes = sizes.astype(np.int64).reshape(n_groups, n_classes)
    sizes = sizes.sum(axis=0) - sizes[held]
    if not sizes.any(axis=1).all():
        raise EmptyCorpus("cannot train on an empty corpus")
    presence = class_presence(counts, code, n_groups * n_classes, m)
    presence = presence.reshape(n_groups, n_classes, len(symbols))
    presence = presence.sum(axis=0) - presence[held]
    used = presence.any(axis=1)
    kept = used & pairwise_keep(presence, sizes, cfg.tau)
    del presence
    own = [np.flatnonzero(row).tolist() for row in sizes]
    class_weights = [compute_class_weights([classes[c] for c in cls],
                                           sizes[f, cls].tolist())
                     for f, cls in enumerate(own)]
    weights = np.array([[w.get(c, 0.0) for c in classes]
                        for w in class_weights])
    rows = np.flatnonzero(m)
    if rows.size < len(m):
        counts, y, m, group = counts[rows], y[rows], m[rows], group[rows]
    roots = _grow(counts, y, m, group, held, kept, weights, classes, params)
    models = []
    for f, root in enumerate(roots):
        if params.ccp_alpha > 0:
            root = prune(root, params.ccp_alpha)
        vocab = np.flatnonzero(used[f])
        model = DecisionTreeModel(
            root=root,
            vocabulary=Vocabulary(tuple(symbols[j] for j in
                                        np.flatnonzero(kept[f]).tolist())),
            classes=list(class_weights[f]), class_weights=class_weights[f],
            params=params)
        models.append(ModelFile(
            full_vocabulary=[symbols[j] for j in vocab.tolist()],
            kept=kept[f, vocab].tolist(), tau=cfg.tau, model=model,
            scenario=scenario, manifest_digest=digests[f], trained_at=stamp))
    return models


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
    """Vocabulary, LLR filter, class weights and tree, in training order:
    the one fold of `train_folds` without groups.

    `counts` has one column per symbol of `symbols` and one row per label
    of `labels`. Row i stands for ``multiplicity[i]`` training files with
    its counts and label (default one), and 0 leaves it out; the model is
    that of training on the files themselves, byte for byte.
    """
    mf, = train_folds(symbols, counts, labels, multiplicity, tau=tau,
                      params=params, scenario=scenario,
                      manifest_digests=[manifest_digest],
                      trained_at=trained_at)
    return mf


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
