"""Binary classification trees over count features.

Grown by exhaustive weighted-Gini split search with midpoint thresholds,
pruned by minimal cost-complexity, and able to report the exact decision
path behind every prediction. All tie-breaks are pinned so that training
is bit-reproducible across machines.

A training row may stand for several files with equal counts and label:
its multiplicity. A tree grown on distinct rows with multiplicities is
the tree grown on every file. Every count of rows (`min_samples_leaf`,
candidate boundaries, class masses) counts files, and a class mass is
read from per-class prefix sums: k files of class c weigh
``prefix[c][k]``, the running sum of the class weight k times, which is
what a sum over the files in any order gives, since every file of class c
weighs the same.

A node's split search is a few array passes per block of its columns,
with no Python loop over features or thresholds. Sorting the columns
gives every candidate boundary. The rows of one class and one
multiplicity form a group: its values, sorted per column and shifted so
that each column has its own key range, give with one `searchsorted`
the number of its rows left of every boundary, and each of them stands
for the same number of files of its class. When every row is one file,
the groups are the classes. The result is bit-for-bit that of scanning
each candidate with a running sum of class masses in sorted row order,
and the Gini decreases are computed with the same elementwise
operations.

A tree searches one column per group of columns that are equal over its
training rows, the first of the group. Equal at the root, they are equal
at every node and give the same candidates, and a later copy's never
replaces the running best (see `best_split`), so the tree is that of a
search over every column.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DataError, DimensionMismatch, EmptyTrainingSet, ZeroMass
from .vectorize import Vocabulary

# Split candidates are scanned in (feature index, threshold) order; a later
# candidate replaces the running best only if its Gini decrease is larger by
# more than this.
EPS = 1e-12
_INT32 = np.iinfo(np.int32)
# The split search sorts at most about this many counts of a node at once.
_BLOCK_ELEMENTS = 1 << 16


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class TreeParams:
    """Growth and pruning hyperparameters. `min_samples_leaf` counts
    files: a row of multiplicity m is m files."""

    max_depth: int | None = None
    min_samples_leaf: int = 1
    ccp_alpha: float = 0.0

    def __post_init__(self) -> None:
        if not (self.max_depth is None
                or _is_int(self.max_depth) and self.max_depth >= 0):
            raise ValueError(f"max_depth must be None or an integer of at "
                             f"least 0, got {self.max_depth!r}")
        if not (_is_int(self.min_samples_leaf) and self.min_samples_leaf >= 1):
            raise ValueError(f"min_samples_leaf must be an integer of at "
                             f"least 1, got {self.min_samples_leaf!r}")
        alpha = self.ccp_alpha
        if not (_is_int(alpha) or isinstance(alpha, float)
                and math.isfinite(alpha)) or alpha < 0:
            raise ValueError(f"ccp_alpha must be a finite number of at "
                             f"least 0, got {self.ccp_alpha!r}")


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


def compute_class_weights(
    labels: Sequence[str], multiplicity: Sequence[int] | None = None,
) -> dict[str, float]:
    """Weights inversely proportional to class frequency: N / (K * n_c),
    where a label of multiplicity m counts as m files."""
    if not labels:
        raise EmptyTrainingSet("no labels given")
    counts = Counter()
    if multiplicity is None:
        counts.update(labels)
    else:
        for label, m in zip(labels, multiplicity):
            counts[label] += int(m)
    n_total, n_classes = sum(counts.values()), len(counts)
    return {c: n_total / (n_classes * n) for c, n in sorted(counts.items())}


def preorder(root: TreeNode) -> list[TreeNode]:
    """Every node under `root`, each before its left, then its right
    subtree; built without recursion, so a tree of any depth is walked."""
    nodes, stack = [], [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not node.is_leaf:
            stack += (node.right, node.left)
    return nodes


def _class_files(y: np.ndarray, m: np.ndarray, n_classes: int) -> np.ndarray:
    """The number of files of each class among rows of classes `y` and
    multiplicities `m`."""
    return np.bincount(y, weights=m, minlength=n_classes).astype(np.intp)


def _prefix_sums(class_w: np.ndarray, files: np.ndarray) -> np.ndarray:
    """``prefix[c][k]``, the mass of k files of class c: the running sum
    of the class weight, whose bits any sum over such files in row order
    (`np.bincount` with weights, a running sum in sorted order) has."""
    prefix = np.zeros((len(files), int(files.max()) + 1))
    for c, n in enumerate(files):
        np.cumsum(np.full(n, class_w[c]), out=prefix[c, 1:n + 1])
    return prefix


def _leaf(prefix: np.ndarray, files: np.ndarray,
          classes: Sequence[str]) -> TreeNode:
    dist = prefix[np.arange(len(classes)), files]
    # argmax returns the first maximum; classes are sorted, so ties break
    # lexicographically.
    return TreeNode(
        distribution={c: float(dist[i]) for i, c in enumerate(classes)},
        label=classes[int(np.argmax(dist))])


def _scan_order_best(decrease: np.ndarray,
                     best: float | None = None) -> int | None:
    """Index of the last candidate that becomes the running best under the
    `EPS` rule of `best_split`, when `decrease` continues a scan whose
    running best so far is `best`; None if no candidate replaces it.

    Walks only the candidates above every earlier one in `decrease`, which
    include all that can win (see `best_split`).
    """
    earlier_max = np.fmax.accumulate(
        np.concatenate(([-np.inf], decrease[:-1])))
    chosen = None
    for i in np.flatnonzero(decrease > earlier_max):
        d = float(decrease[i])
        if d > (EPS if best is None else best + EPS):
            best, chosen = d, int(i)
    return chosen


def _candidates(block, columns, offset, groups, n_classes, n, leaf):
    """The candidates of a block of columns: their features, the values
    either side of each boundary, and the files of each class left of it.
    `groups` holds each class and multiplicity present with its rows."""
    n_rows, cols = block.shape
    # A boundary between sorted rows whose values differ is a candidate if
    # both sides keep at least `leaf` files. Row-major indices are
    # re-sorted into scan order.
    flat = np.flatnonzero(columns[:-1] != columns[1:])
    feature, row = np.divmod(np.sort(flat % cols * n_rows + flat // cols),
                             n_rows)
    below = columns[row, feature]
    boundary_keys = offset[feature] + below
    left_files = np.zeros((feature.size, n_classes), dtype=np.intp)
    for c, files_each, rows in groups:
        # The group's keys, each column sorted: they ascend, and column j's
        # keys start at j * len(rows). Each row left of a boundary stands
        # for `files_each` files of class c.
        keys = block[rows].T.astype(np.int64, order="C")
        keys.sort(axis=1)
        keys += offset[:, None]
        k = np.searchsorted(keys.ravel(), boundary_keys, side="right")
        left_files[:, c] += files_each * (k - feature * rows.size)
    n_left = left_files.sum(axis=1)
    s = np.flatnonzero((n_left >= leaf) & (n_left <= n - leaf))
    return feature[s], below[s], columns[row[s] + 1, feature[s]], \
        left_files[s]


def _best_split_arrays(
    X: np.ndarray,
    y: np.ndarray,
    m: np.ndarray,
    prefix: np.ndarray,
    min_samples_leaf: int,
) -> SplitCandidate | None:
    # X holds int32 counts; row i stands for m[i] files of class y[i], and
    # k files of class c weigh prefix[c][k] (see `_prefix_sums`).
    n_rows, n_features = X.shape
    n_classes = len(prefix)
    classes = np.arange(n_classes)
    files = _class_files(y, m, n_classes)
    n = int(files.sum())
    parent = prefix[classes, files]
    total = float(parent.sum())
    parent_gini = 1.0 - float(np.square(parent / total).sum())
    leaf = max(min_samples_leaf, 1)
    if n < 2 * leaf:
        return None
    # The rows of each class and multiplicity. A class of N files has
    # fewer than sqrt(2N) distinct multiplicities, as k of them sum to at
    # least k(k + 1)/2. A set, not `np.unique`, which imports `numpy.ma`
    # (1.3 MB more peak RSS on `triage`).
    base = int(m.max()) + 1
    code = y * base + m
    groups = [(*divmod(g, base), np.flatnonzero(code == g))
              for g in sorted(set(code.tolist()))]
    best: SplitCandidate | None = None
    # Blocks of columns bound the memory of the sorted copies, keys and
    # candidate arrays; taken in order, they keep the scan order.
    width = max(1, _BLOCK_ELEMENTS // n_rows)
    for start in range(0, n_features, width):
        block = X[:, start:start + width]
        columns = np.sort(block, axis=0)
        # Column j's values map into a key range of its own, offset[j] +
        # value. Counts are int32, so the keys fit in int64.
        low = columns[0].astype(np.int64)
        span = columns[-1] - low + 1
        offset = np.cumsum(span) - span - low
        feature, below, above, left_files = _candidates(
            block, columns, offset, groups, n_classes, n, leaf)
        if feature.size == 0:
            continue
        left = prefix[classes, left_files]
        right = parent - left
        w_left = left.sum(axis=1)
        w_right = total - w_left
        g_left = 1.0 - np.square(left / w_left[:, None]).sum(axis=1)
        g_right = 1.0 - np.square(right / w_right[:, None]).sum(axis=1)
        decrease = (parent_gini
                    - (w_left / total) * g_left
                    - (w_right / total) * g_right)
        i = _scan_order_best(
            decrease, None if best is None else best.weighted_gini_decrease)
        if i is not None:
            threshold = (float(below[i]) + float(above[i])) / 2.0
            best = SplitCandidate(feature_index=start + int(feature[i]),
                                  threshold=threshold,
                                  weighted_gini_decrease=float(decrease[i]))
    return best


def _encode(
    vectors: Sequence[Sequence[int]] | np.ndarray,
    labels: Sequence[str],
    class_weights: Mapping[str, float] | None,
    multiplicity: Sequence[int] | np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str], dict[str, float]]:
    if len(vectors) == 0:
        raise EmptyTrainingSet("no training vectors")
    if len(vectors) != len(labels):
        raise DimensionMismatch(
            f"{len(vectors)} vectors but {len(labels)} labels")
    # Counts stay integers: sorting, boundaries and the `<=` tests match
    # their float values, and the matrix is half the size of a float copy.
    try:
        X = np.asarray(vectors)
    except ValueError as exc:  # rows of different lengths
        raise DimensionMismatch(f"ragged count rows: {exc}") from exc
    if X.ndim != 2:
        raise DimensionMismatch(
            f"expected a files x features matrix, got shape {X.shape}")
    # int32, as in a count matrix: the split search's int64 sort keys then
    # cannot overflow.
    if X.size and X.dtype.kind not in "biu":
        raise DataError(f"counts must be integers, got {X.dtype}")
    if X.size and (X.min() < _INT32.min or X.max() > _INT32.max):
        raise DataError(
            f"counts in [{X.min()}, {X.max()}] do not fit in int32")
    X = X.astype(np.int32, copy=False)
    if multiplicity is None:
        m = np.ones(len(labels), dtype=np.intp)
    else:
        m = np.asarray(multiplicity)
        if m.shape != (len(labels),):
            raise DimensionMismatch(
                f"{m.size} multiplicities for {len(labels)} rows")
        if m.dtype.kind not in "iu" or (m < 1).any():
            raise DataError("multiplicities must be integers of at least 1")
        m = m.astype(np.intp)
    classes = sorted(set(labels))
    weights = dict(class_weights) if class_weights is not None \
        else compute_class_weights(labels, multiplicity)
    for c in classes:
        if c not in weights:
            raise DataError(f"no weight for class {c!r}")
    to_int = {c: i for i, c in enumerate(classes)}
    y = np.array([to_int[label] for label in labels], dtype=np.intp)
    return X, y, m, classes, weights


def best_split(
    vectors: Sequence[Sequence[int]] | np.ndarray,
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

    Only a candidate whose decrease exceeds every earlier one can win, so
    the search applies the rule to those alone: the running best never
    trails the largest decrease seen so far by more than `EPS` (that
    candidate either became the running best or was within `EPS` of it),
    so a candidate no larger than an earlier one cannot beat it by more.
    """
    X, y, m, classes, weights = _encode(vectors, labels, class_weights)
    prefix = _prefix_sums(np.array([weights[c] for c in classes]),
                          _class_files(y, m, len(classes)))
    return _best_split_arrays(X, y, m, prefix, min_samples_leaf)


def _grow(
    X: np.ndarray,
    y: np.ndarray,
    m: np.ndarray,
    classes: list[str],
    weights: Mapping[str, float],
    params: TreeParams,
) -> TreeNode:
    # Columns equal at the root are equal at every node, and a later copy's
    # candidates never replace the same earlier ones under the `EPS` rule.
    # So the search runs on the first column of each group of equal columns.
    first: dict[bytes, int] = {}
    for j, column in enumerate(X.T):
        first.setdefault(column.tobytes(), j)
    searched = list(first.values())
    X = X[:, searched]
    n_classes = len(classes)
    files = _class_files(y, m, n_classes)
    prefix = _prefix_sums(np.array([weights[c] for c in classes]), files)
    # A node to split, its rows and its depth.
    root = _leaf(prefix, files, classes)
    stack = [(root, np.arange(len(y)), 0)]
    while stack:
        node, rows, depth = stack.pop()
        if np.all(y[rows] == y[rows[0]]) or (
                params.max_depth is not None and depth >= params.max_depth):
            continue
        Xr = X[rows]
        cand = _best_split_arrays(Xr, y[rows], m[rows], prefix,
                                  params.min_samples_leaf)
        if cand is None:
            continue
        mask = Xr[:, cand.feature_index] <= cand.threshold
        left, right = rows[mask], rows[~mask]
        node.split = replace(cand, feature_index=searched[cand.feature_index])
        node.left = _leaf(prefix, _class_files(y[left], m[left], n_classes),
                          classes)
        node.right = _leaf(prefix, _class_files(y[right], m[right], n_classes),
                           classes)
        stack += ((node.right, right, depth + 1), (node.left, left, depth + 1))
    return root


def grow(
    vectors: Sequence[Sequence[int]] | np.ndarray,
    labels: Sequence[str],
    class_weights: Mapping[str, float] | None = None,
    params: TreeParams = TreeParams(),
) -> TreeNode:
    """Partitioning, without recursion, until purity or a stopping cap binds."""
    X, y, m, classes, weights = _encode(vectors, labels, class_weights)
    return _grow(X, y, m, classes, weights, params)


def _weakest_link(root: TreeNode, total: float) -> tuple[float, TreeNode]:
    """(g, node) of the internal node with the smallest effective alpha;
    on a tie, the one first in preorder (the shallowest, leftmost)."""
    # In reversed preorder a node follows both its subtrees, whose (leaf
    # risk sum, leaf count) are then the top of `stats`, the left on top.
    stats: list[tuple[float, int]] = []
    weakest: tuple[float, TreeNode] | None = None
    for node in reversed(preorder(root)):
        mass = sum(node.distribution.values())
        risk = (mass - max(node.distribution.values())) / total
        if node.is_leaf:
            stats.append((risk, 1))
            continue
        (left_risk, left_leaves), (right_risk, right_leaves) = \
            stats.pop(), stats.pop()
        subtree_risk, leaves = left_risk + right_risk, left_leaves + right_leaves
        g = (risk - subtree_risk) / (leaves - 1)
        if weakest is None or g <= weakest[0]:
            weakest = (g, node)
        stats.append((subtree_risk, leaves))
    return weakest  # type: ignore[return-value]


def prune(tree: TreeNode, ccp_alpha: float) -> TreeNode:
    """Minimal cost-complexity pruning; ccp_alpha 0 is the identity."""
    if ccp_alpha < 0:
        raise ValueError(f"ccp_alpha must be non-negative, got {ccp_alpha}")
    # Copy bottom-up: a node's two copies are the top of `copies`.
    copies: list[TreeNode] = []
    for node in reversed(preorder(tree)):
        copy = TreeNode(distribution=dict(node.distribution), label=node.label,
                        split=node.split)
        if node.split is not None:
            copy.left, copy.right = copies.pop(), copies.pop()
        copies.append(copy)
    result = copies.pop()
    if ccp_alpha == 0 or result.is_leaf:
        return result
    if not result.distribution:
        raise DataError("pruning needs node distributions (train-time trees)")
    total = sum(result.distribution.values())
    if not total > 0:
        raise ZeroMass("cannot prune a tree with zero root mass")
    while not result.is_leaf:
        g_min, weakest = _weakest_link(result, total)
        if not g_min < ccp_alpha:
            break
        weakest.split = weakest.left = weakest.right = None
    return result


def train_tree(
    vectors: Sequence[Sequence[int]] | np.ndarray,
    labels: Sequence[str],
    vocabulary: Vocabulary,
    params: TreeParams = TreeParams(),
    class_weights: Mapping[str, float] | None = None,
    multiplicity: Sequence[int] | np.ndarray | None = None,
) -> DecisionTreeModel:
    """Grow and prune a tree whose features index `vocabulary`.

    `vectors` is a rows x features count matrix, or a sequence of
    equal-length count rows. Row i stands for `multiplicity[i]` files
    (default one) with its counts and label, so the tree grown on the
    distinct rows of a training set, each with its number of copies, is
    the tree grown on every file, bit for bit.
    """
    X, y, m, classes, weights = _encode(vectors, labels, class_weights,
                                        multiplicity)
    if X.shape[1] != len(vocabulary):
        raise DimensionMismatch(
            f"vectors of length {X.shape[1]} over a vocabulary of "
            f"{len(vocabulary)} symbols")
    root = _grow(X, y, m, classes, weights, params)
    if params.ccp_alpha > 0:
        root = prune(root, params.ccp_alpha)
    return DecisionTreeModel(root=root, vocabulary=vocabulary, classes=classes,
                             class_weights=weights, params=params)


def _check_vector(model: DecisionTreeModel, row: Sequence[int]) -> None:
    if len(row) != len(model.vocabulary):
        raise DimensionMismatch(
            f"vector length {len(row)} does not match vocabulary size "
            f"{len(model.vocabulary)}")


def predict(model: DecisionTreeModel, row: Sequence[int]) -> str:
    """Root-to-leaf traversal of a count row over the model's vocabulary;
    returns the leaf's class label."""
    _check_vector(model, row)
    node = model.root
    while not node.is_leaf:
        split = node.split
        node = node.left if row[split.feature_index] <= split.threshold \
            else node.right
    return node.label


def display_symbol(canonical: str) -> str:
    """Symbol as shown in explanations and tree renderings."""
    return f"root/{canonical}"


def decide(model: DecisionTreeModel,
           count_of: Callable[[int], int]) -> tuple[str, list[PathStep]]:
    """The leaf label and the decision path of a file whose count of
    feature j is `count_of(j)`: one root-to-leaf walk, which reads the
    count of each feature it tests and of no other."""
    symbols = model.vocabulary.symbols
    steps: list[PathStep] = []
    node = model.root
    while not node.is_leaf:
        split = node.split
        count = count_of(split.feature_index)
        branch = "left" if count <= split.threshold else "right"
        steps.append(PathStep(display_symbol(symbols[split.feature_index]),
                              split.threshold, count, branch))
        node = node.left if branch == "left" else node.right
    return node.label, steps


def decision_path(model: DecisionTreeModel, row: Sequence[int]) -> list[PathStep]:
    """One entry per internal node visited on the way to the verdict.

    Each step's count is the row's entry, so a list of Python ints gives
    steps that serialize to JSON.
    """
    _check_vector(model, row)
    return decide(model, row.__getitem__)[1]


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
    # [id, left id(, right id)] of the nodes whose subtree has not ended;
    # the last is the parent of the next node. Its edges follow its subtree.
    open_nodes: list[list[int]] = []
    for my_id, node in enumerate(preorder(model.root)):
        if open_nodes:
            open_nodes[-1].append(my_id)
        if node.is_leaf:
            label = f"class={node.label}"
        else:
            symbol = display_symbol(
                model.vocabulary.symbols[node.split.feature_index])
            label = f"count({symbol}) ≤ {node.split.threshold:g}"
        lines.append(f'  n{my_id} [label="{_dot_escape(label)}"];')
        if not node.is_leaf:
            open_nodes.append([my_id])
            continue
        # A leaf ends every subtree it is the last node of.
        while open_nodes and len(open_nodes[-1]) == 3:
            parent, left_id, right_id = open_nodes.pop()
            lines.append(f"  n{parent} -> n{left_id};")
            lines.append(f"  n{parent} -> n{right_id};")
    lines.append("}")
    return "\n".join(lines) + "\n"
