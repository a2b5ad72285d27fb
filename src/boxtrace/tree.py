"""Binary classification trees over count features.

Grown by exhaustive weighted-Gini split search with midpoint thresholds,
pruned by minimal cost-complexity, and able to report the exact decision
path behind every prediction. All tie-breaks are pinned so that training
is bit-reproducible across machines.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DataError, DimensionMismatch, EmptyTrainingSet, ZeroMass
from .vectorize import FeatureVector, Vocabulary

# Split candidates are scanned in (feature index, threshold) order; a later
# candidate replaces the running best only if its Gini decrease is larger by
# more than this.
EPS = 1e-12


@dataclass(frozen=True)
class TreeParams:
    """Growth and pruning hyperparameters."""

    max_depth: int | None = None
    min_samples_leaf: int = 1
    ccp_alpha: float = 0.0


@dataclass(frozen=True)
class SplitCandidate:
    """A `counts[feature] <= threshold` test and its impurity decrease."""

    feature_index: int
    threshold: float
    weighted_gini_decrease: float


@dataclass
class TreeNode:
    """Internal node (split set) or leaf (split None)."""

    distribution: dict[str, float]
    label: str
    split: SplitCandidate | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.split is None


@dataclass
class DecisionTreeModel:
    """Trained tree plus the vocabulary its feature indices refer to."""

    root: TreeNode
    vocabulary: Vocabulary
    classes: list[str]
    class_weights: dict[str, float]
    params: TreeParams


class PathStep(NamedTuple):
    """One internal-node check along a prediction's root-to-leaf path."""

    symbol: str
    threshold: float
    count: int
    branch: str  # "left" (count <= threshold) or "right"


def compute_class_weights(labels: Sequence[str]) -> dict[str, float]:
    """Weights inversely proportional to class frequency: N / (K * n_c)."""
    if not labels:
        raise EmptyTrainingSet("no labels given")
    counts = Counter(labels)
    n_total, n_classes = len(labels), len(counts)
    return {c: n_total / (n_classes * n) for c, n in sorted(counts.items())}


def gini(weighted_counts: Mapping[str, float] | Sequence[float]) -> float:
    """Gini impurity 1 - sum(p^2) of a weighted class-mass distribution."""
    if isinstance(weighted_counts, Mapping):
        masses = np.asarray(list(weighted_counts.values()), dtype=np.float64)
    else:
        masses = np.asarray(weighted_counts, dtype=np.float64)
    total = masses.sum()
    if not total > 0:
        raise ZeroMass("gini needs positive total mass")
    p = masses / total
    return float(1.0 - np.square(p).sum())


def _majority_label(dist: np.ndarray, classes: Sequence[str]) -> str:
    # argmax returns the first maximum; classes are sorted, so ties break
    # lexicographically.
    return classes[int(np.argmax(dist))]


def _best_split_arrays(
    X: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    n_classes: int,
    min_samples_leaf: int,
) -> SplitCandidate | None:
    n = X.shape[0]
    parent = np.bincount(y, weights=w, minlength=n_classes)
    total = float(parent.sum())
    parent_gini = 1.0 - float(np.square(parent / total).sum())
    best: tuple[float, int, float] | None = None
    rows = np.arange(n)
    for j in range(X.shape[1]):
        col = X[:, j]
        order = np.argsort(col, kind="stable")
        sv = col[order]
        boundaries = np.nonzero(sv[:-1] != sv[1:])[0]
        if boundaries.size == 0:
            continue
        onehot = np.zeros((n, n_classes), dtype=np.float64)
        onehot[rows, y[order]] = w[order]
        cum = np.cumsum(onehot, axis=0)
        for b in boundaries:
            n_left = int(b) + 1
            if n_left < min_samples_leaf or n - n_left < min_samples_leaf:
                continue
            left = cum[b]
            right = parent - left
            w_left = float(left.sum())
            w_right = total - w_left
            g_left = 1.0 - float(np.square(left / w_left).sum())
            g_right = 1.0 - float(np.square(right / w_right).sum())
            decrease = (parent_gini
                        - (w_left / total) * g_left
                        - (w_right / total) * g_right)
            if (best is None and decrease > EPS) or (
                    best is not None and decrease > best[0] + EPS):
                threshold = (float(sv[b]) + float(sv[b + 1])) / 2.0
                best = (decrease, j, threshold)
    if best is None:
        return None
    return SplitCandidate(feature_index=best[1], threshold=best[2],
                          weighted_gini_decrease=best[0])


def _encode(
    vectors: Sequence[FeatureVector] | np.ndarray,
    labels: Sequence[str],
    class_weights: Mapping[str, float] | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str], dict[str, float]]:
    if len(vectors) == 0:
        raise EmptyTrainingSet("no training vectors")
    if len(vectors) != len(labels):
        raise DimensionMismatch(
            f"{len(vectors)} vectors but {len(labels)} labels")
    # Counts stay integers: sorting, boundaries and the `<=` tests match
    # their float values, and the matrix is half the size of a float copy.
    if isinstance(vectors, np.ndarray):
        X = vectors
    else:
        sizes = {v.size for v in vectors}
        if len(sizes) > 1:
            raise DimensionMismatch(f"mixed vector lengths: {sorted(sizes)}")
        X = np.array([v.to_dense() for v in vectors], dtype=np.int64)
    classes = sorted(set(labels))
    weights = dict(class_weights) if class_weights is not None \
        else compute_class_weights(labels)
    for c in classes:
        if c not in weights:
            raise DataError(f"no weight for class {c!r}")
    to_int = {c: i for i, c in enumerate(classes)}
    y = np.array([to_int[label] for label in labels], dtype=np.intp)
    w = np.array([weights[label] for label in labels], dtype=np.float64)
    return X, y, w, classes, weights


def best_split(
    vectors: Sequence[FeatureVector] | np.ndarray,
    labels: Sequence[str],
    class_weights: Mapping[str, float] | None = None,
    min_samples_leaf: int = 1,
) -> SplitCandidate | None:
    """Exhaustive search over every (feature, midpoint) candidate.

    Candidates are scanned by feature index, then by threshold. The first
    one with a decrease above `EPS` becomes the running best, and a later
    one replaces it only if its decrease exceeds the running best's by
    more than `EPS`. Near-ties therefore chain, and the result need not be
    the lowest-index candidate within `EPS` of the maximum: with decreases
    d, d + 0.6 EPS, d + 1.2 EPS in scan order, the third wins. None means
    no candidate achieves a decrease above `EPS`.
    """
    X, y, w, classes, _ = _encode(vectors, labels, class_weights)
    return _best_split_arrays(X, y, w, len(classes), min_samples_leaf)


def _grow(
    X: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    classes: list[str],
    params: TreeParams,
    depth: int,
) -> TreeNode:
    dist = np.bincount(y, weights=w, minlength=len(classes))
    node = TreeNode(
        distribution={c: float(dist[i]) for i, c in enumerate(classes)},
        label=_majority_label(dist, classes),
    )
    n = len(y)
    pure = bool(np.all(y == y[0]))
    depth_capped = params.max_depth is not None and depth >= params.max_depth
    if pure or n < 2 or depth_capped:
        return node
    cand = _best_split_arrays(X, y, w, len(classes), params.min_samples_leaf)
    if cand is None:
        return node
    mask = X[:, cand.feature_index] <= cand.threshold
    node.split = cand
    node.left = _grow(X[mask], y[mask], w[mask], classes, params, depth + 1)
    node.right = _grow(X[~mask], y[~mask], w[~mask], classes, params, depth + 1)
    return node


def grow(
    vectors: Sequence[FeatureVector] | np.ndarray,
    labels: Sequence[str],
    class_weights: Mapping[str, float] | None = None,
    params: TreeParams = TreeParams(),
) -> TreeNode:
    """Recursive partitioning until purity or a stopping cap binds."""
    X, y, w, classes, _ = _encode(vectors, labels, class_weights)
    return _grow(X, y, w, classes, params, depth=0)


def _clone(node: TreeNode) -> TreeNode:
    copy = TreeNode(distribution=dict(node.distribution), label=node.label,
                    split=node.split)
    if node.split is not None:
        copy.left = _clone(node.left)  # type: ignore[arg-type]
        copy.right = _clone(node.right)  # type: ignore[arg-type]
    return copy


def _subtree_stats(node: TreeNode, total: float) -> tuple[float, int]:
    """(sum of leaf risks, leaf count) for the subtree under `node`."""
    if node.is_leaf:
        mass = sum(node.distribution.values())
        risk = (mass - max(node.distribution.values())) / total
        return risk, 1
    lr, lc = _subtree_stats(node.left, total)  # type: ignore[arg-type]
    rr, rc = _subtree_stats(node.right, total)  # type: ignore[arg-type]
    return lr + rr, lc + rc


def _weakest_link(node: TreeNode, total: float,
                  found: list[tuple[float, TreeNode]]) -> None:
    if node.is_leaf:
        return
    mass = sum(node.distribution.values())
    node_risk = (mass - max(node.distribution.values())) / total
    subtree_risk, leaves = _subtree_stats(node, total)
    g = (node_risk - subtree_risk) / (leaves - 1)
    found.append((g, node))
    _weakest_link(node.left, total, found)  # type: ignore[arg-type]
    _weakest_link(node.right, total, found)  # type: ignore[arg-type]


def prune(tree: TreeNode, ccp_alpha: float) -> TreeNode:
    """Minimal cost-complexity pruning; ccp_alpha 0 is the identity."""
    if ccp_alpha < 0:
        raise ValueError(f"ccp_alpha must be non-negative, got {ccp_alpha}")
    result = _clone(tree)
    if ccp_alpha == 0 or result.is_leaf:
        return result
    if not result.distribution:
        raise DataError("pruning needs node distributions (train-time trees)")
    total = sum(result.distribution.values())
    if not total > 0:
        raise ZeroMass("cannot prune a tree with zero root mass")
    while not result.is_leaf:
        candidates: list[tuple[float, TreeNode]] = []
        _weakest_link(result, total, candidates)
        # Preorder collection: on ties the shallowest, leftmost node goes.
        g_min, weakest = min(candidates, key=lambda item: item[0])
        if not g_min < ccp_alpha:
            break
        weakest.split = None
        weakest.left = None
        weakest.right = None
    return result


def train_tree(
    vectors: Sequence[FeatureVector] | np.ndarray,
    labels: Sequence[str],
    vocabulary: Vocabulary,
    params: TreeParams = TreeParams(),
    class_weights: Mapping[str, float] | None = None,
) -> DecisionTreeModel:
    """Grow and prune a tree whose features index `vocabulary`.

    `vectors` is a sequence of feature vectors or a files x features count
    matrix.
    """
    X, y, w, classes, weights = _encode(vectors, labels, class_weights)
    if X.shape[1] != len(vocabulary):
        raise DimensionMismatch(
            f"vectors of length {X.shape[1]} over a vocabulary of "
            f"{len(vocabulary)} symbols")
    root = _grow(X, y, w, classes, params, depth=0)
    if params.ccp_alpha > 0:
        root = prune(root, params.ccp_alpha)
    return DecisionTreeModel(root=root, vocabulary=vocabulary, classes=classes,
                             class_weights=weights, params=params)


def _check_vector(model: DecisionTreeModel, v: FeatureVector) -> None:
    if v.size != len(model.vocabulary):
        raise DimensionMismatch(
            f"vector length {v.size} does not match vocabulary size "
            f"{len(model.vocabulary)}")


def predict(model: DecisionTreeModel, v: FeatureVector) -> str:
    """Root-to-leaf traversal; returns the leaf's class label."""
    _check_vector(model, v)
    node = model.root
    while not node.is_leaf:
        split = node.split
        node = node.left if v.get(split.feature_index) <= split.threshold \
            else node.right
    return node.label


def display_symbol(canonical: str) -> str:
    """Symbol as shown in explanations and tree renderings."""
    return f"root/{canonical}"


def decision_path(model: DecisionTreeModel, v: FeatureVector) -> list[PathStep]:
    """One entry per internal node visited on the way to the verdict."""
    _check_vector(model, v)
    steps: list[PathStep] = []
    node = model.root
    while not node.is_leaf:
        split = node.split
        count = v.get(split.feature_index)
        branch = "left" if count <= split.threshold else "right"
        steps.append(PathStep(
            symbol=display_symbol(model.vocabulary.symbols[split.feature_index]),
            threshold=split.threshold, count=count, branch=branch))
        node = node.left if branch == "left" else node.right
    return steps


def replay_path(model: DecisionTreeModel, steps: Sequence[PathStep]) -> str:
    """Walk the recorded branches from the root; returns the leaf label.

    Each step's recorded count is re-checked against its threshold, so a
    tampered or stale path fails loudly instead of replaying quietly.
    """
    node = model.root
    for step in steps:
        if node.is_leaf:
            raise DataError("path longer than the tree is deep")
        expected = "left" if step.count <= step.threshold else "right"
        if step.branch != expected:
            raise DataError(
                f"inconsistent step: count {step.count} vs threshold "
                f"{step.threshold} cannot take branch {step.branch}")
        node = node.left if step.branch == "left" else node.right
    if not node.is_leaf:
        raise DataError("path ends before reaching a leaf")
    return node.label


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(model: DecisionTreeModel) -> str:
    """Graphviz rendering: `count(<symbol>) ≤ <threshold>` per split."""
    lines = ["digraph decision_tree {", "  node [shape=box];"]
    counter = [0]

    def emit(node: TreeNode) -> int:
        my_id = counter[0]
        counter[0] += 1
        if node.is_leaf:
            label = f"class={node.label}"
        else:
            symbol = display_symbol(
                model.vocabulary.symbols[node.split.feature_index])
            label = f"count({symbol}) ≤ {node.split.threshold:g}"
        lines.append(f'  n{my_id} [label="{_dot_escape(label)}"];')
        if not node.is_leaf:
            left_id = emit(node.left)
            right_id = emit(node.right)
            lines.append(f"  n{my_id} -> n{left_id};")
            lines.append(f"  n{my_id} -> n{right_id};")
        return my_id

    emit(model.root)
    lines.append("}")
    return "\n".join(lines) + "\n"
