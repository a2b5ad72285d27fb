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
# The most files a training matrix may stand for. The prefix table (see
# `_prefix_sums`) is K x (largest class's files + 1) floats, so this bounds
# it to K x 8 MiB; the paper's dataset is 7000 files.
_MAX_FILES = 1 << 20


def _is_finite(value) -> bool:
    """A number, not a bool, that converts to a finite float."""
    try:
        return isinstance(value, (int, float, np.integer, np.floating)) \
            and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _is_int(value) -> bool:
    """An integer, not a bool, that converts to a finite float."""
    return isinstance(value, (int, np.integer)) and _is_finite(value)


@dataclass(frozen=True)
class TreeParams:
    """Growth and pruning hyperparameters and the one statement of their
    ranges, which the training flags and `loads_model` apply: `max_depth`
    is None or an integer of at least 0, `min_samples_leaf` an integer of
    at least 1 (it counts files: a row of multiplicity m is m files), and
    `ccp_alpha` a number of at least 0. A number is not a bool and converts
    to a finite float. Each is stored as a plain `int` or `float`, so every
    accepted value serializes; any other raises `ValueError`."""

    max_depth: int | None = None
    min_samples_leaf: int = 1
    ccp_alpha: float = 0.0

    def __post_init__(self) -> None:
        depth, leaf, alpha = self.max_depth, self.min_samples_leaf, \
            self.ccp_alpha
        if not (depth is None or _is_int(depth) and depth >= 0):
            raise ValueError(f"max_depth must be None or an integer of at "
                             f"least 0, got {depth!r}")
        if not (_is_int(leaf) and leaf >= 1):
            raise ValueError(f"min_samples_leaf must be an integer of at "
                             f"least 1, got {leaf!r}")
        if not (_is_finite(alpha) and alpha >= 0):
            raise ValueError(f"ccp_alpha must be a finite number of at "
                             f"least 0, got {alpha!r}")
        object.__setattr__(self, "max_depth",
                           None if depth is None else int(depth))
        object.__setattr__(self, "min_samples_leaf", int(leaf))
        object.__setattr__(self, "ccp_alpha", float(alpha))


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


def encode_counts(
    counts: Sequence[Sequence[int]] | np.ndarray,
    labels: Sequence[str],
    n_columns: int | None = None,
    multiplicity: Sequence[int] | np.ndarray | None = None,
    least: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """The one check of a training matrix: its counts as int32, each
    row's class index and multiplicity, and the labels' sorted classes.

    `counts` is a matrix, or equal-length rows, with one row per label
    and `n_columns` columns when that is given, and `multiplicity` has
    one entry per row (default 1); other shapes raise `DimensionMismatch`.
    Counts must be integers that fit in int32, so that the split search's
    int64 keys cannot overflow; labels, strings; multiplicities, integers
    of at least `least` that sum to at most `_MAX_FILES`. Others raise
    `DataError`. Integer counts give the `<=` tests of their floats in
    half the memory."""
    try:
        X = np.asarray(counts)
    except ValueError as exc:  # rows of different lengths
        raise DimensionMismatch(f"ragged count rows: {exc}") from exc
    if X.ndim != 2:
        raise DimensionMismatch(
            f"expected a files x features matrix, got shape {X.shape}")
    if len(X) != len(labels):
        raise DimensionMismatch(f"{len(X)} count rows but {len(labels)} labels")
    if n_columns is not None and X.shape[1] != n_columns:
        raise DimensionMismatch(
            f"{X.shape[1]} count columns for {n_columns} symbols")
    if X.size and X.dtype.kind not in "biu":
        raise DataError(f"counts must be integers, got {X.dtype}")
    if X.size and (X.min() < _INT32.min or X.max() > _INT32.max):
        raise DataError(
            f"counts in [{X.min()}, {X.max()}] do not fit in int32")
    if not all(isinstance(label, str) for label in labels):
        raise DataError("labels must be strings")
    m = np.ones(len(X), dtype=np.intp) if multiplicity is None \
        else np.asarray(multiplicity)
    if m.shape != (len(X),):
        raise DimensionMismatch(f"{m.size} multiplicities for {len(X)} rows")
    if m.dtype.kind not in "iu" or (m < least).any():
        raise DataError(f"multiplicities must be integers of at least {least}")
    if sum(m.tolist()) > _MAX_FILES:  # Python ints: an int64 sum can wrap
        raise DataError(f"the rows stand for more than {_MAX_FILES} files")
    classes = sorted(set(labels))
    to_int = {c: i for i, c in enumerate(classes)}
    y = np.array([to_int[label] for label in labels], dtype=np.intp)
    return X.astype(np.int32, copy=False), y, m.astype(np.intp), classes


def _encode(
    vectors: Sequence[Sequence[int]] | np.ndarray,
    labels: Sequence[str],
    class_weights: Mapping[str, float] | None,
    multiplicity: Sequence[int] | np.ndarray | None = None,
    n_columns: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str], dict[str, float]]:
    if len(labels) == 0:
        raise EmptyTrainingSet("no training vectors")
    X, y, m, classes = encode_counts(vectors, labels, n_columns, multiplicity)
    weights = dict(class_weights) if class_weights is not None \
        else compute_class_weights(labels, multiplicity)
    for c in classes:
        if c not in weights:
            raise DataError(f"no weight for class {c!r}")
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
    ccp_alpha = TreeParams(ccp_alpha=ccp_alpha).ccp_alpha  # checks its range
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
                                        multiplicity, len(vocabulary))
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
    returns the leaf's class label. No path is recorded."""
    _check_vector(model, row)
    node = model.root
    while not node.is_leaf:
        split = node.split
        node = (node.left if row[split.feature_index] <= split.threshold
                else node.right)
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
