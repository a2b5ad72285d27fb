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

One grower serves every fold of a cross-validation (the method of
Blockeel and Struyf, "Efficient Algorithms for Decision Tree
Cross-validation", JMLR 2002). Each fold leaves one group of rows out,
and a single tree is the one fold that leaves nothing out. The folds
whose trees made the same splits so far form a node group, and one split
search serves the group: each fold's files left of a boundary are the
node's minus those of the group it leaves out. Folds whose best splits
differ part into node groups of their own, and each fold's tree is the
one grown on its own rows alone, bit for bit.

A split search has no Python loop over features or thresholds. A tree's
nonzero counts, and one zero per column that stands for the rows without
an entry there, are sorted by column and value once; a node keeps the
entries of its rows. One `bincount` over them gives the files of each
(left-out group, class) at each value, running sums the files left of
every boundary, and a zero the files that no entry of its column holds.
The result is bit-for-bit that of scanning each candidate with a running
sum of class masses in sorted row order, and the Gini decreases are
computed with the same elementwise operations.

A tree searches one column per group of columns that are equal over its
training rows, the first of the group. Equal at the root, they are equal
at every node and give the same candidates, and a later copy's never
replaces the running best (see `best_split`), so the tree is that of a
search over every column.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DataError, DimensionMismatch, EmptyTrainingSet, ZeroMass
from .vectorize import Vocabulary

# Split candidates are scanned in (feature index, threshold) order; a later
# candidate replaces the running best only if its Gini decrease is larger by
# more than this.
EPS = 1e-12
_INT32 = np.iinfo(np.int32)
# The split search copies and sorts about this many counts at once, and
# its per-value tables hold about this many file counts, or one column's.
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


def _prefix_sums(weights: np.ndarray,
                 files: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each fold's ``prefix[c][k]``, the mass of k files of class c: the
    running sum of the class weight, whose bits any sum over such files in
    row order (`np.bincount` with weights, a running sum in sorted order)
    has. `weights` and `files` are fold x class; fold f's ``prefix[c][k]``
    is ``flat[start[f, c] + k]``, so the table is as long as the folds'
    files, not folds x classes x the largest class."""
    lengths = (files + 1).ravel()
    start = np.cumsum(lengths) - lengths
    flat = np.zeros(int(lengths.sum()))
    for i in np.flatnonzero(files.ravel()).tolist():
        n = int(lengths[i]) - 1
        np.cumsum(np.full(n, weights.flat[i]),
                  out=flat[start[i] + 1:start[i] + n + 1])
    return start.reshape(files.shape), flat


def _rising(decrease: np.ndarray) -> np.ndarray:
    """Where each row of `decrease` is above every earlier entry of it:
    the only candidates that can win (see `best_split`)."""
    earlier_max = np.full(decrease.shape, -np.inf)
    np.fmax.accumulate(decrease[:, :-1], axis=1, out=earlier_max[:, 1:])
    return decrease > earlier_max


def _scan_rows(decrease: np.ndarray,
               best: list[float | None]) -> dict[int, int]:
    """The `EPS` rule of `best_split` on each row of `decrease`, which
    continues a scan whose running best so far is ``best[row]`` (None
    before any). Updates `best` and returns, for each row whose running
    best changed, the index of its new one.

    Walks only the candidates above every earlier one in their row, which
    include all that can win (see `best_split`).
    """
    rows, index = np.nonzero(_rising(decrease))
    chosen: dict[int, int] = {}
    for r, i, d in zip(rows.tolist(), index.tolist(),
                       decrease[rows, index].tolist()):
        if d > (EPS if best[r] is None else best[r] + EPS):
            best[r], chosen[r] = d, i
    return chosen


def _scan_order_best(decrease: np.ndarray,
                     best: float | None = None) -> int | None:
    """Index of the last candidate that becomes the running best under the
    `EPS` rule of `best_split`, when `decrease` continues a scan whose
    running best so far is `best`; None if no candidate replaces it."""
    return _scan_rows(decrease[None], [best]).get(0)


def _sorted_entries(
    X: np.ndarray, columns: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries of the given `columns` of `X` that a split search reads,
    as arrays of their column numbers (positions in `columns`), values and
    rows, sorted by column, then value: each nonzero count, and one zero
    per column, whose row is ``len(X)``, no row. The zero stands for every
    row the column has no entry of."""
    n_rows = len(X)
    parts = []
    # Blocks of columns bound the memory of the dense copies.
    width = max(1, _BLOCK_ELEMENTS // max(n_rows, 1))
    for begin in range(0, len(columns), width):
        block = X[:, columns[begin:begin + width]].T
        column, row = np.nonzero(block)
        value = block[column, row]
        ends = np.arange(block.shape[0])
        column = np.concatenate((column, ends)) + begin
        value = np.concatenate((value, np.zeros(ends.size, dtype=value.dtype)))
        row = np.concatenate((row, np.full(ends.size, n_rows)))
        # Columns below 2**31 and int32 values - INT32_MIN fit in int64.
        order = np.argsort(column.astype(np.int64) << 32
                           | (value.astype(np.int64) - _INT32.min))
        parts.append((column[order], value[order], row[order]))
    if not parts:
        return (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.int32),
                np.zeros(0, dtype=np.intp))
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _best_split_arrays(
    entries: tuple[np.ndarray, np.ndarray, np.ndarray],
    rows: np.ndarray,
    y: np.ndarray,
    m: np.ndarray,
    slot: np.ndarray,
    files: np.ndarray,
    prefix: tuple[np.ndarray, np.ndarray],
    own: np.ndarray,
    kept: np.ndarray,
    min_samples_leaf: int,
) -> list[SplitCandidate | None]:
    # `entries` are a matrix's `_sorted_entries`; the node holds its
    # `rows`. Row i stands for m[i] files of class y[i], and fold f leaves
    # out the rows of slot f; every fold trains on slot F. files[f] are
    # fold f's files of each class at the node, k of which weigh its
    # prefix[c][k] (see `_prefix_sums`). Fold f's Gini arithmetic runs
    # over the classes own[f] marks, and it splits only on the columns
    # kept[f] marks.
    n_folds, n_classes = files.shape
    start, flat = prefix
    n = files.sum(axis=1)
    leaf = max(min_samples_leaf, 1)
    # Folds with the same classes share one pass of the Gini arithmetic.
    sets: dict[bytes, list[int]] = {}
    for f, mask in enumerate(own):
        sets.setdefault(mask.tobytes(), []).append(f)
    class_sets = [(np.array(folds), np.flatnonzero(own[folds[0]]))
                  for folds in sets.values()]
    set_of = np.empty(n_folds, dtype=np.intp)
    parent = flat[start + files]
    total, parent_gini = np.empty(n_folds), np.empty(n_folds)
    for s, (folds, cls) in enumerate(class_sets):
        set_of[folds] = s
        p = parent[np.ix_(folds, cls)]
        total[folds] = p.sum(axis=1)
        parent_gini[folds] = 1.0 - np.square(p / total[folds, None]).sum(axis=1)
    best: list[SplitCandidate | None] = [None] * n_folds
    decreases: list[float | None] = [None] * n_folds
    if not (n >= 2 * leaf).any():
        return best
    # The node's entries, and only of columns with two values or more.
    n_rows = len(y)
    here = np.zeros(n_rows + 1, dtype=bool)
    here[rows] = here[n_rows] = True
    here = here[entries[2]]
    column, value, row = (a[here] for a in entries)
    new = np.ones(column.size, dtype=bool)
    np.logical_or(column[1:] != column[:-1], value[1:] != value[:-1],
                  out=new[1:])
    per_column = np.bincount(column[new])
    several = (per_column > 1)[column]
    if not several.all():
        column, value, row, new = (a[several]
                                   for a in (column, value, row, new))
    per_column = per_column[per_column > 1]
    if per_column.size == 0:
        return best
    # Each value of a column, with the files of each (slot, class) that
    # hold it, gives every fold's files left of the boundary above it: all
    # rows' minus its own slot's. A boundary is a fold's candidate if the
    # fold holds the value below it, and its threshold is the midpoint to
    # the next value the fold holds.
    code = slot * n_classes + y
    n_codes = (n_folds + 1) * n_classes
    node = np.bincount(code[rows], weights=m[rows], minlength=n_codes)
    node = node.astype(np.intp).reshape(n_folds + 1, n_classes)
    value_of = np.cumsum(new, dtype=np.intp) - 1
    values, value_column = value[new], column[new]
    first_value = np.cumsum(per_column) - per_column
    first_entry = np.append(np.flatnonzero(new), column.size)
    # Runs of columns bound the memory of the per-value tables; taken in
    # order, they keep the scan order.
    run = first_value * n_codes // _BLOCK_ELEMENTS
    cuts = (np.flatnonzero(run[1:] != run[:-1]) + 1).tolist()
    for ca, cb in zip([0, *cuts], [*cuts, per_column.size]):
        counts = per_column[ca:cb]
        va = first_value[ca]
        n_values = int(counts.sum())
        ea, eb = first_entry[va], first_entry[va + n_values]
        r = row[ea:eb]
        real = r < n_rows
        r = r[real]
        at = np.bincount((value_of[ea:eb][real] - va) * n_codes + code[r],
                         weights=m[r], minlength=n_values * n_codes)
        at = at.astype(np.intp).reshape(n_values, n_folds + 1, n_classes)
        col = value_column[va:va + n_values]
        col_first = first_value[ca:cb] - va
        # A zero holds the node's files that no entry of its column holds.
        zeros = value_of[ea:eb][~real] - va
        at[zeros] = node - np.add.reduceat(at, col_first, axis=0)
        # Files at or below each value: running sums restarted at each
        # column's first value.
        below = np.cumsum(at, axis=0)
        restart = np.zeros((counts.size, n_folds + 1, n_classes),
                           dtype=np.intp)
        restart[1:] = below[col_first[1:] - 1]
        below -= np.repeat(restart, counts, axis=0)
        fold_at = at.sum(axis=1)[:, None] - at[:, :n_folds]
        left_files = below.sum(axis=1)[:, None] - below[:, :n_folds]
        n_left = left_files.sum(axis=2)
        holds = fold_at.any(axis=2)
        valid = (holds & (n_left >= leaf) & (n_left <= n - leaf)
                 & kept[:, col].T)
        fi, vi = np.nonzero(valid.T)
        if fi.size == 0:
            continue
        left_files = left_files[vi, fi]
        decrease = np.empty(fi.size)
        for s, (folds, cls) in enumerate(class_sets):
            pairs = np.flatnonzero(set_of[fi] == s) \
                if len(class_sets) > 1 else np.arange(fi.size)
            pf = fi[pairs]
            left = flat[start[pf[:, None], cls]
                        + left_files[pairs[:, None], cls]]
            right = parent[pf[:, None], cls] - left
            tot = total[pf]
            w_left = left.sum(axis=1)
            w_right = tot - w_left
            g_left = 1.0 - np.square(left / w_left[:, None]).sum(axis=1)
            g_right = 1.0 - np.square(right / w_right[:, None]).sum(axis=1)
            decrease[pairs] = (parent_gini[pf]
                               - (w_left / tot) * g_left
                               - (w_right / tot) * g_right)
        grid = np.full((n_folds, n_values), -np.inf)
        grid[fi, vi] = decrease
        chosen = _scan_rows(grid, decreases)
        if not chosen:
            continue
        # The first value at or after each one that each fold holds.
        held_from = np.where(holds, np.arange(n_values)[:, None], n_values)
        held_from = np.minimum.accumulate(held_from[::-1], axis=0)[::-1]
        for f, i in chosen.items():
            above = int(held_from[i + 1, f])
            best[f] = SplitCandidate(
                feature_index=int(col[i]),
                threshold=(float(values[va + i])
                           + float(values[va + above])) / 2.0,
                weighted_gini_decrease=decreases[f])
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
    files = np.bincount(y, weights=m, minlength=len(classes)).astype(np.intp)
    prefix = _prefix_sums(np.array([[weights[c] for c in classes]]),
                          files[None])
    return _best_split_arrays(
        _sorted_entries(X, np.arange(X.shape[1])), np.arange(len(y)), y, m,
        np.ones(len(y), dtype=np.intp), files[None], prefix, files[None] > 0,
        np.ones((1, X.shape[1]), dtype=bool), min_samples_leaf)[0]


def _grow(
    X: np.ndarray,
    y: np.ndarray,
    m: np.ndarray,
    group: np.ndarray,
    held: np.ndarray,
    kept: np.ndarray,
    weights: np.ndarray,
    classes: Sequence[str],
    params: TreeParams,
) -> list[TreeNode]:
    """The unpruned tree of each fold, grown together.

    Row i of `X` stands for ``m[i]`` files of class ``y[i]`` in group
    ``group[i]``. Fold f trains on the rows outside group ``held[f]`` (the
    folds hold out distinct groups; a group without rows holds out
    nothing), weighs a file of class c ``weights[f, c]``, and splits only
    on the columns ``kept[f]`` marks; its split features count those
    columns. Its classes are those it has files of.

    The folds whose trees made the same splits so far form a node group,
    which holds the rows that reach the node, every fold's. One split
    search serves the group, and folds whose best splits differ part into
    groups of their own. Each fold's tree is the one grown on its own rows
    alone, bit for bit.
    """
    n_folds, n_classes = len(held), len(classes)
    # Columns equal over every row are equal at every node of every fold,
    # and a later copy's candidates never replace the same earlier ones
    # under the `EPS` rule. So the search runs on the first column of each
    # group of equal columns that the folds keep alike, and only on columns
    # some fold keeps.
    first: dict[bytes, int] = {}
    for j in np.flatnonzero(kept.any(axis=0)).tolist():
        first.setdefault(X[:, j].tobytes() + kept[:, j].tobytes(), j)
    searched = np.fromiter(first.values(), dtype=np.intp, count=len(first))
    feature = (np.cumsum(kept, axis=1) - 1)[:, searched]
    kept = kept[:, searched]
    entries = _sorted_entries(X, searched)
    n_groups = max(int(group.max()), int(held.max())) + 1

    def fold_files(rows: np.ndarray, folds: np.ndarray) -> np.ndarray:
        """Each fold's files of each class among `rows`: all of them minus
        those of the group it holds out."""
        table = np.bincount(group[rows] * n_classes + y[rows], weights=m[rows],
                            minlength=n_groups * n_classes).astype(np.intp)
        table = table.reshape(n_groups, n_classes)
        return table.sum(axis=0) - table[held[folds]]

    everything = np.arange(len(y))
    files = fold_files(everything, np.arange(n_folds))
    prefix = _prefix_sums(weights, files)
    start, flat = prefix
    trained = files > 0
    own = [np.flatnonzero(row).tolist() for row in trained]
    names = [[classes[c] for c in cls] for cls in own]

    def leaves(folds: np.ndarray, node_files: np.ndarray) -> list[TreeNode]:
        """Each fold's leaf of its `node_files`, holding its classes' mass."""
        nodes = []
        for f, mass in zip(folds.tolist(),
                           flat[start[folds] + node_files].tolist()):
            dist = [mass[c] for c in own[f]]
            # The first maximum; classes are sorted, so ties break
            # lexicographically.
            top = max(range(len(dist)), key=dist.__getitem__)
            nodes.append(TreeNode(distribution=dict(zip(names[f], dist)),
                                  label=names[f][top]))
        return nodes

    roots = leaves(np.arange(n_folds), files)
    # A node group to split: its folds, their nodes and files, the rows
    # that reach it and its depth.
    stack = [(np.arange(n_folds), roots, files, everything, 0)]
    while stack:
        folds, nodes, files, rows, depth = stack.pop()
        if params.max_depth is not None and depth >= params.max_depth:
            continue
        growing = np.flatnonzero(np.count_nonzero(files, axis=1) > 1)
        if growing.size == 0:
            continue
        folds, files = folds[growing], files[growing]
        nodes = [nodes[i] for i in growing.tolist()]
        slot = np.full(n_groups, folds.size)
        slot[held[folds]] = np.arange(folds.size)
        found = _best_split_arrays(
            entries, rows, y, m, slot[group], files, (start[folds], flat),
            trained[folds], kept[folds], params.min_samples_leaf)
        parts: dict[tuple[int, float], list[int]] = {}
        for i, cand in enumerate(found):
            if cand is not None:
                parts.setdefault((cand.feature_index, cand.threshold),
                                 []).append(i)
        for (j, threshold), members in parts.items():
            mask = X[rows, searched[j]] <= threshold
            left, right = rows[mask], rows[~mask]
            part = folds[members]
            left_files = fold_files(left, part)
            right_files = files[members] - left_files
            left_nodes = leaves(part, left_files)
            right_nodes = leaves(part, right_files)
            for i, f, node, lower, upper in zip(members, part.tolist(), [
                    nodes[i] for i in members], left_nodes, right_nodes):
                node.split = SplitCandidate(
                    feature_index=int(feature[f, j]), threshold=threshold,
                    weighted_gini_decrease=found[i].weighted_gini_decrease)
                node.left, node.right = lower, upper
            stack += ((part, right_nodes, right_files, right, depth + 1),
                      (part, left_nodes, left_files, left, depth + 1))
    return roots


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
    root, = _grow(X, y, m, np.zeros(len(y), dtype=np.intp), np.array([1]),
                  np.ones((1, X.shape[1]), dtype=bool),
                  np.array([[weights[c] for c in classes]]), classes, params)
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
