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
from typing import Sequence

import numpy as np

from .bmff import ContainerTree
from .errors import DimensionMismatch, EmptyCorpus, ModelFormatError
from .llr import DEFAULT_TAU, FilterConfig, llr_report
from .symbols import extract_symbols
from .tree import (
    DecisionTreeModel,
    PathStep,
    SplitCandidate,
    TreeNode,
    TreeParams,
    decision_path,
    predict,
    train_tree,
)
from .vectorize import CountMatrix, Vocabulary, count_matrix, vectorize

MODEL_FORMAT_VERSION = 1


def canonical_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, ``.12g`` floats, newline-terminated."""
    pieces: list[str] = []

    def emit(value, indent: int) -> None:
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
                emit(item, indent + 1)
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
                emit(value[key], indent + 1)
                pieces.append(",\n" if i < len(keys) - 1 else "\n")
            pieces.append(pad + "}")
        else:
            raise ModelFormatError(f"unserializable value of type {type(value)}")

    emit(obj, 0)
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
    """A trained model plus everything needed to reproduce its verdicts."""

    full_vocabulary: list[str]
    kept: list[bool]
    tau: float
    model: DecisionTreeModel
    scenario: str = ""
    manifest_digest: str = ""
    trained_at: str = ""


def _tree_to_preorder(node: TreeNode, out: list[dict]) -> None:
    if node.is_leaf:
        out.append({"label": node.label, "distribution": dict(node.distribution)})
        return
    out.append({"feature": node.split.feature_index,
                "threshold": node.split.threshold})
    _tree_to_preorder(node.left, out)
    _tree_to_preorder(node.right, out)


def _tree_from_preorder(nodes: list[dict], pos: list[int]) -> TreeNode:
    if pos[0] >= len(nodes):
        raise ModelFormatError("tree node list ended early")
    obj = nodes[pos[0]]
    pos[0] += 1
    if "label" in obj:
        dist = {str(k): float(v) for k, v in obj.get("distribution", {}).items()}
        return TreeNode(distribution=dist, label=str(obj["label"]))
    split = SplitCandidate(feature_index=int(obj["feature"]),
                           threshold=float(obj["threshold"]),
                           weighted_gini_decrease=0.0)
    node = TreeNode(distribution={}, label="", split=split)
    node.left = _tree_from_preorder(nodes, pos)
    node.right = _tree_from_preorder(nodes, pos)
    return node


def model_to_obj(mf: ModelFile) -> dict:
    tree_nodes: list[dict] = []
    _tree_to_preorder(mf.model.root, tree_nodes)
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
        "tree": tree_nodes,
        "metadata": {
            "scenario": mf.scenario,
            "manifest_digest": mf.manifest_digest,
            "trained_at": mf.trained_at,
        },
    }


def dumps_model(mf: ModelFile) -> str:
    return canonical_dumps(model_to_obj(mf))


def loads_model(text: str) -> ModelFile:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ModelFormatError("model file must hold a JSON object")
    version = obj.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version {version!r} "
            f"(expected {MODEL_FORMAT_VERSION})")
    try:
        full_vocab = [str(s) for s in obj["vocabulary"]]
        kept = [bool(k) for k in obj["filter"]["kept"]]
        tau = float(obj["filter"]["tau"])
        classes = [str(c) for c in obj["classes"]]
        weights = {str(c): float(w) for c, w in obj["class_weights"].items()}
        params = TreeParams(
            max_depth=(None if obj["params"]["max_depth"] is None
                       else int(obj["params"]["max_depth"])),
            min_samples_leaf=int(obj["params"]["min_samples_leaf"]),
            ccp_alpha=float(obj["params"]["ccp_alpha"]),
        )
        tree_nodes = obj["tree"]
        metadata = obj.get("metadata", {})
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model file: {exc!r}") from exc
    if len(kept) != len(full_vocab):
        raise ModelFormatError("kept mask length does not match vocabulary")
    filtered = Vocabulary.from_strings(
        s for s, keep in zip(full_vocab, kept) if keep)
    pos = [0]
    root = _tree_from_preorder(tree_nodes, pos)
    if pos[0] != len(tree_nodes):
        raise ModelFormatError("extra nodes after the tree preorder ended")
    for node_obj in tree_nodes:
        if "feature" in node_obj and not 0 <= node_obj["feature"] < len(filtered):
            raise ModelFormatError(
                f"feature index {node_obj['feature']} outside vocabulary")
    model = DecisionTreeModel(root=root, vocabulary=filtered, classes=classes,
                              class_weights=weights, params=params)
    return ModelFile(full_vocabulary=full_vocab, kept=kept, tau=tau, model=model,
                     scenario=str(metadata.get("scenario", "")),
                     manifest_digest=str(metadata.get("manifest_digest", "")),
                     trained_at=str(metadata.get("trained_at", "")))


def save_model(mf: ModelFile, path: str) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(dumps_model(mf))


def load_model(path: str) -> ModelFile:
    with open(path, "r", encoding="ascii") as handle:
        return loads_model(handle.read())


def model_digest(mf: ModelFile) -> str:
    return hashlib.sha256(dumps_model(mf).encode("ascii")).hexdigest()


def train_model(
    corpus: Sequence[Counter[str]] | CountMatrix,
    labels: Sequence[str],
    *,
    tau: float = DEFAULT_TAU,
    params: TreeParams = TreeParams(),
    scenario: str = "",
    manifest_digest: str = "",
    trained_at: str | None = None,
) -> ModelFile:
    """Vocabulary, LLR filter, class weights and tree, in training order.

    `corpus` holds the training files' symbol multisets, or their count
    matrix; its columns are the vocabulary. Leave-one-device-out folds
    pass the rows of one count matrix, so no file is symbolized twice.
    """
    matrix = corpus if isinstance(corpus, CountMatrix) else count_matrix(corpus)
    vocab = list(matrix.symbols)
    if len(matrix.counts) == 0:
        raise EmptyCorpus("cannot train on an empty corpus")
    if len(matrix.counts) != len(labels):
        raise DimensionMismatch(
            f"{len(matrix.counts)} files but {len(labels)} labels")
    if len(set(labels)) < 2:
        # The pairwise filter is undefined for one class; keep everything
        # and let training degenerate to a single leaf.
        kept = np.ones(len(vocab), dtype=bool)
    else:
        report = llr_report(matrix, labels, FilterConfig(tau))
        kept = np.array([r.kept for r in report.records], dtype=bool)
    filtered = Vocabulary.from_strings(s for s, k in zip(vocab, kept) if k)
    model = train_tree(matrix.counts[:, kept], list(labels), filtered, params)
    return ModelFile(full_vocabulary=vocab, kept=kept.tolist(), tau=tau,
                     model=model, scenario=scenario,
                     manifest_digest=manifest_digest,
                     trained_at=resolve_timestamp(trained_at))


def classify_tree(mf: ModelFile, tree: ContainerTree) -> tuple[str, list[PathStep]]:
    """Predict a parsed container's class and the path that decided it."""
    vector = vectorize(extract_symbols(tree), mf.model.vocabulary)
    return predict(mf.model, vector), decision_path(mf.model, vector)
