"""CART training, pruning, prediction, and the split-search oracle."""

import random
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxtrace import tree
from boxtrace.errors import (
    DataError,
    DimensionMismatch,
    EmptyTrainingSet,
    ZeroMass,
)
from boxtrace.modelfile import ModelFile, dumps_model, loads_model
from boxtrace.tree import (
    SplitCandidate,
    TreeNode,
    TreeParams,
    _best_split_arrays,
    _scan_order_best,
    best_split,
    compute_class_weights,
    decision_path,
    predict,
    prune,
    replay_path,
    to_dot,
    train_tree,
)
from boxtrace.vectorize import Vocabulary

EPS = 1e-12


def fv(*counts) -> list[int]:
    return list(counts)


def oracle_best_split(rows, labels, weights, min_samples_leaf=1):
    """Exhaustive enumeration of every (feature, midpoint) candidate.

    Same contract as best_split, built from scratch on plain Python: for
    each candidate, weighted class masses are tallied with dicts and the
    Gini decrease computed directly from its definition.
    """
    def gini_of(masses):
        total = sum(masses.values())
        return 1.0 - sum((m / total) ** 2 for m in masses.values())

    parent = {}
    for label, weight in zip(labels, (weights[l] for l in labels)):
        parent[label] = parent.get(label, 0.0) + weight
    total = sum(parent.values())
    parent_gini = gini_of(parent)
    n_features = len(rows[0])
    best = None  # (decrease, feature, threshold)
    for j in range(n_features):
        values = sorted({row[j] for row in rows})
        for lo, hi in zip(values, values[1:]):
            threshold = (lo + hi) / 2.0
            left_masses, right_masses = {}, {}
            n_left = 0
            for row, label in zip(rows, labels):
                side = left_masses if row[j] <= threshold else right_masses
                side[label] = side.get(label, 0.0) + weights[label]
                n_left += row[j] <= threshold
            if n_left < min_samples_leaf or len(rows) - n_left < min_samples_leaf:
                continue
            w_left = sum(left_masses.values())
            w_right = sum(right_masses.values())
            decrease = (parent_gini
                        - (w_left / total) * gini_of(left_masses)
                        - (w_right / total) * gini_of(right_masses))
            if (best is None and decrease > EPS) or (
                    best is not None and decrease > best[0] + EPS):
                best = (decrease, j, threshold)
    return None if best is None else (best[1], best[2])


# The split search as it was before rows could stand for several files:
# every row one file of weight w[i], class masses counted with
# `searchsorted` over each class's sorted keys. On rows expanded to one per
# file it must return what the search over distinct rows with
# multiplicities returns, bits of the decrease included.
def reference_best_split_arrays(
    X: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    n_classes: int,
    min_samples_leaf: int,
) -> SplitCandidate | None:
    # X holds int32 counts, and every row of class c weighs the same w_c
    # (see `_encode`).
    n, n_features = X.shape
    parent = np.bincount(y, weights=w, minlength=n_classes)
    total = float(parent.sum())
    parent_gini = 1.0 - float(np.square(parent / total).sum())
    leaf = max(min_samples_leaf, 1)
    if n < 2 * leaf:
        return None
    class_w = np.zeros(n_classes)
    class_w[y] = w
    in_class = [y == c for c in range(n_classes)]
    # k rows of class c weigh prefix[c][k], the running sum's bits.
    prefix = []
    for c in range(n_classes):
        sums = np.zeros(int(np.count_nonzero(in_class[c])) + 1)
        np.cumsum(np.full(len(sums) - 1, class_w[c]), out=sums[1:])
        prefix.append(sums)
    best: SplitCandidate | None = None
    # Blocks of columns bound the memory of the sorted copies, keys and
    # candidate arrays; taken in order, they keep the scan order.
    width = max(1, tree._BLOCK_ELEMENTS // n)
    for start in range(0, n_features, width):
        block = X[:, start:start + width]
        cols = block.shape[1]
        columns = np.sort(block, axis=0)
        # A boundary after sorted row b sends b + 1 rows left. It is a
        # candidate if the value changes there and both sides keep at least
        # `leaf` rows. Row-major indices are re-sorted into scan order.
        changes = columns[leaf - 1:n - leaf] != columns[leaf:n - leaf + 1]
        flat = np.flatnonzero(changes)
        if flat.size == 0:
            continue
        feature, row = np.divmod(np.sort(flat % cols * n + flat // cols), n)
        row += leaf - 1
        # Column j's values map into a key range of its own, offset[j] +
        # value. Counts are int32, so the keys fit in int64.
        low = columns[0].astype(np.int64)
        span = columns[-1] - low + 1
        offset = np.cumsum(span) - span - low
        boundary_keys = offset[feature] + columns[row, feature]
        left = np.empty((feature.size, n_classes))
        for c in range(n_classes):
            # Class c's keys, each column sorted: they ascend, and column
            # j's n_c keys start at j * n_c.
            keys = block[in_class[c]].T.astype(np.int64, order="C")
            keys.sort(axis=1)
            keys += offset[:, None]
            k = np.searchsorted(keys.ravel(), boundary_keys, side="right")
            k -= feature * keys.shape[1]
            left[:, c] = prefix[c][k]
        right = parent - left
        w_left = left.sum(axis=1)
        w_right = total - w_left
        g_left = 1.0 - np.square(left / w_left[:, None]).sum(axis=1)
        g_right = 1.0 - np.square(right / w_right[:, None]).sum(axis=1)
        decrease = (parent_gini
                    - (w_left / total) * g_left
                    - (w_right / total) * g_right)
        i = tree._scan_order_best(
            decrease, None if best is None else best.weighted_gini_decrease)
        if i is not None:
            j, b = int(feature[i]), int(row[i])
            threshold = (float(columns[b, j]) + float(columns[b + 1, j])) / 2.0
            best = SplitCandidate(feature_index=start + j, threshold=threshold,
                                  weighted_gini_decrease=float(decrease[i]))
    return best


# The split search as it was before it became one array pass per node: a
# stable sort, a one-hot cumulative sum and a loop over every boundary of
# each feature. The array search must return the same candidate, bits of
# the decrease included, so that model files stay byte-identical.
def loop_best_split_arrays(
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


def scan_order_best(decreases):
    """The `EPS` rule applied to every candidate in scan order."""
    best = None
    for i, d in enumerate(decreases):
        if (best is None and d > EPS) or (
                best is not None and d > decreases[best] + EPS):
            best = i
    return best


# The tree walks as they were before they became loops over `preorder`:
# growth recursing on masked copies of the rows, pruning that sums each
# subtree's risks recursively once per candidate, and DOT ids handed out
# by a recursive emitter. The loops must build equal trees, bits of every
# mass included, and byte-identical DOT text.
def recursive_grow(X, y, w, classes, params, depth=0):
    dist = np.bincount(y, weights=w, minlength=len(classes))
    node = TreeNode(
        distribution={c: float(dist[i]) for i, c in enumerate(classes)},
        label=classes[int(np.argmax(dist))])
    if (np.all(y == y[0]) or len(y) < 2
            or (params.max_depth is not None and depth >= params.max_depth)):
        return node
    cand = reference_best_split_arrays(X, y, w, len(classes),
                                       params.min_samples_leaf)
    if cand is None:
        return node
    mask = X[:, cand.feature_index] <= cand.threshold
    node.split = cand
    node.left = recursive_grow(X[mask], y[mask], w[mask], classes, params,
                               depth + 1)
    node.right = recursive_grow(X[~mask], y[~mask], w[~mask], classes, params,
                                depth + 1)
    return node


def recursive_prune(node, ccp_alpha):
    def clone(node):
        copy = TreeNode(distribution=dict(node.distribution),
                        label=node.label, split=node.split)
        if node.split is not None:
            copy.left, copy.right = clone(node.left), clone(node.right)
        return copy

    def risk(node):
        mass = sum(node.distribution.values())
        return (mass - max(node.distribution.values())) / total

    def subtree_stats(node):
        if node.is_leaf:
            return risk(node), 1
        lr, lc = subtree_stats(node.left)
        rr, rc = subtree_stats(node.right)
        return lr + rr, lc + rc

    def weakest_link(node, found):
        if node.is_leaf:
            return
        subtree_risk, leaves = subtree_stats(node)
        found.append(((risk(node) - subtree_risk) / (leaves - 1), node))
        weakest_link(node.left, found)
        weakest_link(node.right, found)

    result = clone(node)
    if ccp_alpha == 0 or result.is_leaf:
        return result
    total = sum(result.distribution.values())
    while not result.is_leaf:
        candidates = []
        weakest_link(result, candidates)
        g_min, weakest = min(candidates, key=lambda item: item[0])
        if not g_min < ccp_alpha:
            break
        weakest.split = weakest.left = weakest.right = None
    return result


def recursive_to_dot(model):
    lines = ["digraph decision_tree {", "  node [shape=box];"]
    counter = [0]

    def emit(node):
        my_id = counter[0]
        counter[0] += 1
        if node.is_leaf:
            label = f"class={node.label}"
        else:
            symbol = tree.display_symbol(
                model.vocabulary.symbols[node.split.feature_index])
            label = f"count({symbol}) ≤ {node.split.threshold:g}"
        lines.append(f'  n{my_id} [label="{tree._dot_escape(label)}"];')
        if not node.is_leaf:
            left_id = emit(node.left)
            right_id = emit(node.right)
            lines.append(f"  n{my_id} -> n{left_id};")
            lines.append(f"  n{my_id} -> n{right_id};")
        return my_id

    emit(model.root)
    lines.append("}")
    return "\n".join(lines) + "\n"


@st.composite
def training_sets(draw):
    """Count rows, labels, optional class weights and tree parameters."""
    n = draw(st.integers(1, 40))
    n_features = draw(st.integers(1, 4))
    classes = "ABCD"[:draw(st.integers(1, 4))]
    row = st.lists(st.integers(0, draw(st.sampled_from([1, 3, 20]))),
                   min_size=n_features, max_size=n_features)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    # Copies of columns, before or after their source, so that growth
    # meets groups of equal columns.
    columns = [list(column) for column in zip(*rows)]
    for _ in range(draw(st.integers(0, 3))):
        source = columns[draw(st.integers(0, len(columns) - 1))]
        columns.insert(draw(st.integers(0, len(columns))), list(source))
    rows = [list(row) for row in zip(*columns)]
    labels = draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n))
    weights = draw(st.none() | st.fixed_dictionaries(
        {c: st.sampled_from([1.0, 0.5, 3.0]) | st.floats(0.25, 4.0)
         for c in classes}))
    params = TreeParams(
        max_depth=draw(st.none() | st.integers(0, 6)),
        min_samples_leaf=draw(st.integers(1, 4)),
        ccp_alpha=draw(st.sampled_from([0.0, 1e-9, 0.02, 0.1])
                       | st.floats(0.0, 0.5)))
    return rows, labels, weights, params


INT32_MAX = 2**31 - 1


@st.composite
def split_nodes(draw):
    """A node as `_grow` hands it to the split search: int32 counts, class
    codes (some classes may be absent) and one weight per class."""
    n_classes = draw(st.integers(1, 12))
    n = draw(st.integers(1, 30))
    values = draw(st.sampled_from([
        st.integers(0, 3),                        # presence-like counts
        st.integers(0, 10**6),                    # high cardinality
        st.sampled_from([0, 1, INT32_MAX - 1, INT32_MAX]),
    ]))
    columns = []
    for _ in range(draw(st.integers(0, 5))):
        if columns and draw(st.booleans()):
            columns.append(draw(st.sampled_from(columns)))  # exact ties
        else:
            columns.append(draw(st.lists(values, min_size=n, max_size=n)))
    X = np.array(columns, dtype=np.int32).T.reshape(n, len(columns))
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1),
                               min_size=n, max_size=n)), dtype=np.intp)
    if draw(st.booleans()):
        labels = [str(c) for c in y]
        by_label = compute_class_weights(labels)
        class_w = [by_label.get(str(c), 1.0) for c in range(n_classes)]
    else:
        class_w = draw(st.lists(st.floats(0.01, 100.0), min_size=n_classes,
                                max_size=n_classes))
    w = np.array([class_w[c] for c in y], dtype=np.float64)
    return X, y, w, n_classes, draw(st.integers(1, 4))


INT32_MIN = -2**31


@st.composite
def weighted_rows(draw):
    """Count rows, some equal, each with a multiplicity, a class code and
    tree parameters: the distinct rows of a training set and how many
    files each stands for."""
    n_classes = draw(st.integers(1, 8))
    n = draw(st.integers(1, 24))
    values = draw(st.sampled_from([
        st.integers(0, 3),
        st.integers(-3, 10**6),
        st.sampled_from([INT32_MIN, -1, 0, 1, INT32_MAX - 1, INT32_MAX]),
    ]))
    rows = []
    for _ in range(n):
        if rows and draw(st.integers(0, 3)) == 0:
            rows.append(draw(st.sampled_from(rows)))  # an equal row
        else:
            rows.append(draw(st.lists(values, min_size=3, max_size=3)))
    columns = [list(column) for column in zip(*rows)]
    for _ in range(draw(st.integers(0, 2))):  # equal columns
        columns.insert(draw(st.integers(0, len(columns))),
                       list(draw(st.sampled_from(columns))))
    X = np.array(columns, dtype=np.int32).T
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1),
                               min_size=n, max_size=n)), dtype=np.intp)
    m = np.array(draw(st.lists(st.integers(1, 6) | st.just(1),
                               min_size=n, max_size=n)), dtype=np.intp)
    # Class weights a few rounding steps apart give decreases that tie
    # within EPS.
    class_w = draw(st.lists(
        st.sampled_from([1.0, 1.0 + 3e-13, 1.0 - 3e-13, 0.5, 3.0])
        | st.floats(0.25, 4.0), min_size=n_classes, max_size=n_classes))
    params = TreeParams(
        max_depth=draw(st.none() | st.integers(0, 6)),
        min_samples_leaf=draw(st.integers(1, 5)),
        ccp_alpha=draw(st.sampled_from([0.0, 1e-9, 0.02, 0.1])
                       | st.floats(1e-6, 0.5)))
    return X, y, m, class_w, params


def array_search(X, y, w, n_classes, min_samples_leaf, m=None):
    """`_best_split_arrays` on a node given as the reference searches take
    it, one weight per row; row i stands for m[i] files (default one)."""
    m = np.ones(len(y), dtype=np.intp) if m is None else m
    class_w = np.zeros(n_classes)
    class_w[y] = w
    files = np.bincount(y, weights=m, minlength=n_classes).astype(np.intp)
    return _best_split_arrays(X, y, m, tree._prefix_sums(class_w, files),
                              min_samples_leaf)


def same_candidate(got, expected):
    assert got == expected
    if expected is not None:
        assert got.weighted_gini_decrease.hex() == \
            expected.weighted_gini_decrease.hex()


def random_corpus(rng: random.Random):
    n = rng.randint(2, 8)
    n_features = rng.randint(1, 4)
    n_classes = rng.randint(2, 3)
    rows = [tuple(rng.randint(0, 2) for _ in range(n_features))
            for _ in range(n)]
    labels = [f"C{rng.randint(0, n_classes - 1)}" for _ in range(n)]
    weights = {f"C{i}": rng.uniform(0.25, 4.0) for i in range(n_classes)}
    return rows, labels, weights


class TestClassWeights:
    def test_inverse_frequency(self):
        labels = ["A"] * 80 + ["B"] * 20
        assert compute_class_weights(labels) == {"A": 0.625, "B": 2.5}

    def test_balanced_classes_weigh_one(self):
        assert compute_class_weights(["A", "B", "A", "B"]) == {"A": 1.0, "B": 1.0}

    def test_single_class_weighs_one(self):
        assert compute_class_weights(["A", "A"]) == {"A": 1.0}

    def test_empty_rejected(self):
        with pytest.raises(EmptyTrainingSet):
            compute_class_weights([])

    def test_mass_identity(self):
        labels = ["A"] * 5 + ["B"] * 3 + ["C"] * 2
        weights = compute_class_weights(labels)
        total = sum(weights[l] for l in labels)
        assert total == pytest.approx(len(labels))


class TestTreeParams:
    @pytest.mark.parametrize("kwargs", [
        {"max_depth": -1}, {"max_depth": 1.5}, {"max_depth": True},
        {"min_samples_leaf": 0}, {"min_samples_leaf": 2.0},
        {"min_samples_leaf": None}, {"ccp_alpha": -0.1},
        {"ccp_alpha": float("nan")}, {"ccp_alpha": float("inf")},
        {"ccp_alpha": "0.1"}, {"ccp_alpha": None},
        # Values no model file could record: bools, infinities and
        # integers that no float holds.
        {"ccp_alpha": 10**400}, {"max_depth": 10**400},
        {"min_samples_leaf": 10**400}, {"ccp_alpha": True},
        {"max_depth": np.bool_(True)}, {"ccp_alpha": np.float64("inf")},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TreeParams(**kwargs)

    def test_bounds_accepted(self):
        assert TreeParams(max_depth=0, min_samples_leaf=1, ccp_alpha=0) \
            == TreeParams(max_depth=0, ccp_alpha=0.0)
        assert TreeParams(max_depth=None, min_samples_leaf=np.int64(3),
                          ccp_alpha=0.5).min_samples_leaf == 3

    def test_values_are_stored_as_plain_numbers(self):
        params = TreeParams(max_depth=np.int64(3),
                            min_samples_leaf=np.uint8(2),
                            ccp_alpha=np.float32(0.25))
        assert params == TreeParams(max_depth=3, min_samples_leaf=2,
                                    ccp_alpha=0.25)
        assert [type(v) for v in (params.max_depth, params.min_samples_leaf,
                                  params.ccp_alpha)] == [int, int, float]
        assert type(TreeParams(ccp_alpha=2).ccp_alpha) is float


class TestGini:
    """A column that separates the classes perfectly removes all of the
    parent's Gini impurity, so the decrease is the parent's impurity."""

    UNIT = {"A": 1.0, "B": 1.0}

    def test_two_equal_classes(self):
        cand = best_split([fv(0), fv(0), fv(1), fv(1)], ["A", "A", "B", "B"],
                          self.UNIT)
        assert cand.weighted_gini_decrease == pytest.approx(0.5)

    def test_one_to_three(self):
        cand = best_split([fv(0), fv(1), fv(1), fv(1)], ["A", "B", "B", "B"],
                          self.UNIT)
        assert cand.weighted_gini_decrease == pytest.approx(0.375)

    def test_pure(self):
        assert best_split([fv(0), fv(1), fv(2)], ["A", "A", "A"]) is None


class TestBestSplit:
    def test_presence_split_at_half(self):
        vectors = [fv(0), fv(0), fv(1), fv(1)]
        labels = ["N", "N", "T", "T"]
        cand = best_split(vectors, labels)
        assert cand.feature_index == 0
        assert cand.threshold == 0.5

    def test_no_midpoints_gives_none(self):
        vectors = [fv(1, 1), fv(1, 1)]
        assert best_split(vectors, ["A", "B"]) is None

    def test_no_positive_decrease_gives_none(self):
        # Both sides of the only candidate keep the same class mix.
        vectors = [fv(0), fv(1), fv(0), fv(1)]
        labels = ["A", "A", "B", "B"]
        assert best_split(vectors, labels) is None

    def test_six_sample_agreement_with_oracle(self):
        rows = [(0, 1, 2), (1, 1, 0), (2, 0, 1), (0, 0, 0), (1, 2, 2),
                (2, 2, 1)]
        labels = ["A", "A", "B", "A", "B", "B"]
        weights = {"A": 1.0, "B": 1.0}
        vectors = [fv(*row) for row in rows]
        cand = best_split(vectors, labels, weights)
        assert (cand.feature_index, cand.threshold) == \
            oracle_best_split(rows, labels, weights)

    def test_min_samples_leaf_constrains_candidates(self):
        vectors = [fv(0), fv(1), fv(2), fv(3)]
        labels = ["A", "A", "A", "B"]
        cand = best_split(vectors, labels, min_samples_leaf=2)
        assert cand is not None
        assert cand.threshold == 1.5  # 2.5 would leave one sample right

    def test_randomized_oracle_agreement(self):
        rng = random.Random(1387)
        for _ in range(60):
            rows, labels, weights = random_corpus(rng)
            vectors = [fv(*row) for row in rows]
            got = best_split(vectors, labels, weights)
            expected = oracle_best_split(rows, labels, weights)
            got_key = None if got is None else (got.feature_index, got.threshold)
            assert got_key == expected


class TestArraySplitSearch:
    """The array search against the per-feature loop it replaced."""

    @given(split_nodes(), st.sampled_from([1, 7, 40, tree._BLOCK_ELEMENTS]))
    @settings(max_examples=500, deadline=None)
    def test_matches_the_loop_bit_for_bit(self, node, block_elements):
        # Small blocks split the node's columns into several blocks, and
        # the running best carries from one block to the next.
        with mock.patch.object(tree, "_BLOCK_ELEMENTS", block_elements):
            got = array_search(*node)
        same_candidate(got, loop_best_split_arrays(*node))

    def test_matches_the_loop_on_a_wide_random_node(self):
        rng = np.random.default_rng(5)
        X = rng.integers(0, 6, size=(300, 40)).astype(np.int32)
        y = rng.integers(0, 4, size=300)
        weights = compute_class_weights([str(c) for c in y])
        w = np.array([weights[str(c)] for c in y])
        for leaf, block_elements in ((1, 300 * 7), (7, tree._BLOCK_ELEMENTS)):
            node = (X, y, w, 4, leaf)
            with mock.patch.object(tree, "_BLOCK_ELEMENTS", block_elements):
                got = array_search(*node)
            same_candidate(got, loop_best_split_arrays(*node))

    def test_nodes_without_a_boundary(self):
        single_row = (np.array([[3, 1]], np.int32), np.array([0]),
                      np.array([1.0]), 2, 1)
        constant = (np.full((4, 3), 7, np.int32), np.array([0, 1, 0, 1]),
                    np.ones(4), 2, 1)
        no_features = (np.zeros((4, 0), np.int32), np.array([0, 1, 0, 1]),
                       np.ones(4), 2, 1)
        too_small_for_leaves = (np.array([[0], [1], [2]], np.int32),
                                np.array([0, 1, 1]), np.ones(3), 2, 2)
        for node in (single_row, constant, no_features, too_small_for_leaves):
            assert array_search(*node) is None
            assert loop_best_split_arrays(*node) is None

    def test_counts_up_to_int32_max(self):
        rows = [(INT32_MAX, 0), (INT32_MAX - 1, 5), (0, INT32_MAX),
                (INT32_MAX - 1, 1)]
        labels = ["A", "B", "B", "B"]
        weights = {"A": 1.0, "B": 1.0}
        cand = best_split([fv(*row) for row in rows], labels, weights)
        assert (cand.feature_index, cand.threshold) == \
            oracle_best_split(rows, labels, weights)
        assert cand.threshold == INT32_MAX - 0.5

    def test_counts_must_fit_in_int32(self):
        for rows in ([fv(INT32_MAX + 1), fv(0)], [fv(-2**31 - 1), fv(0)],
                     [[0.5], [1.0]]):
            with pytest.raises(DataError):
                best_split(rows, ["A", "B"])


class TestRowsWithMultiplicities:
    """A row of multiplicity m grows the tree that m copies of it grow."""

    @given(weighted_rows(), st.randoms(use_true_random=False),
           st.sampled_from([7, tree._BLOCK_ELEMENTS]))
    @settings(max_examples=400, deadline=None)
    def test_split_search_matches_the_reference_on_copies(
            self, drawn, rng, block_elements):
        X, y, m, class_w, params = drawn
        n_classes = len(class_w)
        w = np.array([class_w[c] for c in y])
        copies = rng.sample(range(int(m.sum())), int(m.sum()))
        expanded = [np.repeat(a, m, axis=0)[copies] for a in (X, y, w)]
        with mock.patch.object(tree, "_BLOCK_ELEMENTS", block_elements):
            got = array_search(X, y, w, n_classes, params.min_samples_leaf, m)
        same_candidate(got, reference_best_split_arrays(
            *expanded, n_classes, params.min_samples_leaf))

    @given(weighted_rows(), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_trees_models_and_dot_match_the_copies(self, drawn, rng):
        X, y, m, class_w, params = drawn
        classes = [f"C{c}" for c in range(len(class_w))]
        labels = [classes[c] for c in y]
        weights = {c: w for c, w in zip(classes, class_w)}
        copies = rng.sample(range(int(m.sum())), int(m.sum()))
        rows = np.repeat(X, m, axis=0)[copies]
        copy_labels = [labels[i] for i in np.repeat(np.arange(len(y)), m)[copies]]
        vocab = Vocabulary.from_strings(f"f{j}" for j in range(X.shape[1]))
        for class_weights in (weights, None):
            expected = train_tree(rows, copy_labels, vocab, params,
                                  class_weights)
            got = train_tree(X, labels, vocab, params, class_weights,
                             multiplicity=m)
            assert got.class_weights == expected.class_weights
            assert to_dot(got) == to_dot(expected)
            kept = [True] * X.shape[1]
            assert dumps_model(ModelFile(vocab.symbols, kept, 0.5, got)) == \
                dumps_model(ModelFile(vocab.symbols, kept, 0.5, expected))

    def test_min_samples_leaf_counts_files(self):
        # Two rows of three files each: a leaf of 3 is allowed, of 4 is not.
        vocab = Vocabulary.from_strings(["s"])
        for leaf, splits in ((3, True), (4, False)):
            model = train_tree([[0], [1]], ["A", "B"], vocab,
                               TreeParams(min_samples_leaf=leaf),
                               multiplicity=[3, 3])
            assert model.root.is_leaf != splits

    def test_multiplicities_are_checked(self):
        vocab = Vocabulary.from_strings(["s"])
        for bad in ([1, 0], [1, -2], [1.0, 2.0]):
            with pytest.raises(DataError):
                train_tree([[0], [1]], ["A", "B"], vocab, multiplicity=bad)
        with pytest.raises(DimensionMismatch):
            train_tree([[0], [1]], ["A", "B"], vocab, multiplicity=[1])


class TestScanOrderRule:
    def test_near_ties_chain(self):
        # The docstring's example: the third beats the first by more than
        # EPS, though the second is within EPS of the third.
        d = 0.25
        assert _scan_order_best(np.array([d, d + 0.6 * EPS, d + 1.2 * EPS])) == 2

    def test_nothing_above_eps(self):
        assert _scan_order_best(np.array([0.0, EPS, 0.5 * EPS])) is None

    @given(st.lists(st.integers(0, 12).map(lambda k: 0.25 + k * 0.3 * EPS)
                    | st.sampled_from([0.0, 0.5 * EPS, EPS, 1.5 * EPS]),
                    min_size=1, max_size=30))
    @settings(max_examples=300)
    def test_matches_the_sequential_rule(self, decreases):
        assert _scan_order_best(np.array(decreases)) == \
            scan_order_best(decreases)


def grown(vectors, labels, class_weights=None, params=TreeParams()):
    """The root of the tree trained on count rows over f0, f1, ..."""
    vocab = Vocabulary.from_strings(f"f{i}" for i in range(len(vectors[0])))
    return train_tree(vectors, labels, vocab, params, class_weights).root


class TestGrow:
    def test_single_symbol_depth_one_tree(self):
        vectors = [fv(0), fv(0), fv(1), fv(1)]
        labels = ["Native-iOS", "Native-iOS", "Exiftool-iOS", "Exiftool-iOS"]
        root = grown(vectors, labels)
        assert not root.is_leaf
        assert root.split.feature_index == 0
        assert root.split.threshold == 0.5
        assert root.left.is_leaf and root.left.label == "Native-iOS"
        assert root.right.is_leaf and root.right.label == "Exiftool-iOS"

    def test_pure_input_yields_single_leaf(self):
        root = grown([fv(1), fv(2)], ["A", "A"])
        assert root.is_leaf and root.label == "A"

    def test_xor_like_needs_depth_two(self):
        vectors = [fv(0, 0), fv(0, 0), fv(0, 1), fv(1, 0), fv(1, 1)]
        labels = ["A", "A", "B", "B", "A"]
        weights = {"A": 1.0, "B": 1.0}
        capped = train_tree(vectors, labels, Vocabulary.from_strings(["f0", "f1"]),
                            TreeParams(max_depth=1), weights)
        capped_acc = sum(predict(capped, v) == l
                         for v, l in zip(vectors, labels)) / len(labels)
        assert capped_acc < 1.0
        full = train_tree(vectors, labels, Vocabulary.from_strings(["f0", "f1"]),
                          TreeParams(), weights)
        acc = sum(predict(full, v) == l
                  for v, l in zip(vectors, labels)) / len(labels)
        assert acc == 1.0

        def depth(node):
            return 0 if node.is_leaf else 1 + max(depth(node.left),
                                                  depth(node.right))

        assert depth(full.root) == 2

    def test_consistent_data_trains_to_perfection(self):
        rng = random.Random(99)
        for _ in range(20):
            rows, labels, weights = random_corpus(rng)
            consistent = {}
            for row, label in zip(rows, labels):
                consistent.setdefault(row, label)
            rows = list(consistent)
            labels = [consistent[row] for row in rows]
            if len(set(labels)) < 2:
                continue
            vocab = Vocabulary.from_strings(
                f"f{i}" for i in range(len(rows[0])))
            vectors = [fv(*row) for row in rows]
            model = train_tree(vectors, labels, vocab)
            assert all(predict(model, v) == l
                       for v, l in zip(vectors, labels))

    def test_max_depth_zero_single_leaf(self):
        root = grown([fv(0), fv(1)], ["A", "B"], params=TreeParams(max_depth=0))
        assert root.is_leaf

    def test_leaf_tie_breaks_lexicographically(self):
        root = grown([fv(0), fv(0)], ["B", "A"], params=TreeParams(max_depth=0))
        assert root.label == "A"

    def test_ragged_training_rows_rejected(self):
        with pytest.raises(DimensionMismatch):
            train_tree([fv(0, 1), fv(1)], ["A", "B"],
                       Vocabulary.from_strings(["f0", "f1"]))
        with pytest.raises(DimensionMismatch):
            best_split([fv(0), fv(1, 2)], ["A", "B"])

    def test_rows_must_form_a_matrix(self):
        with pytest.raises(DimensionMismatch):
            train_tree([0, 1], ["A", "B"], Vocabulary.from_strings(["f0"]))


class TestPrune:
    def build_depth_two(self):
        # f0 separates A from {B, C}; f1 then separates B from C.
        vectors = [fv(0, 0), fv(0, 1), fv(0, 0), fv(1, 0), fv(1, 0), fv(1, 1)]
        labels = ["A", "A", "A", "B", "B", "C"]
        weights = {"A": 1.0, "B": 1.0, "C": 1.0}
        return grown(vectors, labels, weights)

    def test_alpha_zero_is_identity(self):
        tree = self.build_depth_two()
        assert prune(tree, 0.0) == tree

    def test_huge_alpha_collapses_to_root_leaf(self):
        pruned = prune(self.build_depth_two(), 1e9)
        assert pruned.is_leaf and pruned.label == "A"

    def test_weak_second_split_collapses_first(self):
        # Hand-computed effective alphas: the B/C split removes one
        # weighted error over six samples with one extra leaf (g = 1/6);
        # the root starts at g = (1/2)/2 = 1/4 and rises to 1/3 once the
        # inner split is gone. alpha = 0.2 removes only the inner split.
        tree = self.build_depth_two()
        pruned = prune(tree, 0.2)
        assert not pruned.is_leaf
        assert pruned.left.is_leaf and pruned.left.label == "A"
        assert pruned.right.is_leaf and pruned.right.label == "B"
        fully = prune(tree, 0.4)
        assert fully.is_leaf

    def test_leaf_count_monotone_in_alpha(self):
        tree = self.build_depth_two()

        def leaves(node):
            return 1 if node.is_leaf else leaves(node.left) + leaves(node.right)

        counts = [leaves(prune(tree, alpha))
                  for alpha in (0.0, 0.1, 0.2, 0.3, 0.5, 2.0)]
        assert counts == sorted(counts, reverse=True)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            prune(self.build_depth_two(), -0.1)

    def test_zero_mass_rejected(self):
        tree = self.build_depth_two()
        tree.distribution = {c: 0.0 for c in tree.distribution}
        with pytest.raises(ZeroMass):
            prune(tree, 0.1)


class TestPredictAndPaths:
    def build_fig_tree(self):
        vocab = Vocabulary.from_strings(["moov/udta/XMP_/@stuff"])
        vectors = [fv(0), fv(0), fv(1), fv(1)]
        labels = ["Native-iOS", "Native-iOS", "Exiftool-iOS", "Exiftool-iOS"]
        return train_tree(vectors, labels, vocab)

    def test_predict_both_branches(self):
        model = self.build_fig_tree()
        assert predict(model, fv(1)) == "Exiftool-iOS"
        assert predict(model, fv(0)) == "Native-iOS"

    def test_single_leaf_predicts_constant(self):
        vocab = Vocabulary.from_strings(["s"])
        model = train_tree([fv(0), fv(1)], ["A", "A"], vocab)
        assert model.root.is_leaf
        assert predict(model, fv(5)) == "A"
        assert decision_path(model, fv(5)) == []

    def test_dimension_mismatch(self):
        model = self.build_fig_tree()
        with pytest.raises(DimensionMismatch):
            predict(model, fv(1, 2))
        with pytest.raises(DimensionMismatch):
            decision_path(model, fv(1, 2))

    def test_path_entries_and_replay(self):
        model = self.build_fig_tree()
        steps = decision_path(model, fv(1))
        assert steps == [("root/moov/udta/XMP_/@stuff", 0.5, 1, "right")]
        assert replay_path(model, steps) == predict(model, fv(1))
        steps0 = decision_path(model, fv(0))
        assert steps0[0].branch == "left"
        assert replay_path(model, steps0) == "Native-iOS"

    def test_replay_matches_predict_on_random_corpora(self):
        rng = random.Random(41)
        for _ in range(15):
            rows, labels, weights = random_corpus(rng)
            vocab = Vocabulary.from_strings(
                f"f{i}" for i in range(len(rows[0])))
            vectors = [fv(*row) for row in rows]
            model = train_tree(vectors, labels, vocab, class_weights=weights)
            for v in vectors:
                assert replay_path(model, decision_path(model, v)) == \
                    predict(model, v)

    def test_predict_invariant_under_weight_rescaling(self):
        rng = random.Random(4242)
        for _ in range(10):
            rows, labels, weights = random_corpus(rng)
            vocab = Vocabulary.from_strings(
                f"f{i}" for i in range(len(rows[0])))
            vectors = [fv(*row) for row in rows]
            base = train_tree(vectors, labels, vocab, class_weights=weights)
            scaled_weights = {c: w * 4.0 for c, w in weights.items()}
            scaled = train_tree(vectors, labels, vocab,
                                class_weights=scaled_weights)
            for v in vectors + [fv(*(rng.randint(0, 2) for _ in rows[0]))]:
                assert predict(base, v) == predict(scaled, v)


class TestDotExport:
    def test_labels_and_structure(self):
        vocab = Vocabulary.from_strings(["moov/udta/XMP_/@stuff"])
        model = train_tree([fv(0), fv(1)], ["Native-iOS", "Exiftool-iOS"], vocab)
        dot = to_dot(model)
        assert "count(root/moov/udta/XMP_/@stuff) ≤ 0.5" in dot
        assert 'label="class=Native-iOS"' in dot
        assert 'label="class=Exiftool-iOS"' in dot
        assert dot.count("->") == 2


class TestWalksWithoutRecursion:
    @given(training_sets())
    @settings(max_examples=150, deadline=None)
    def test_match_the_recursive_walks(self, data):
        rows, labels, weights, params = data
        X, y, m, classes, class_weights = tree._encode(rows, labels, weights)
        w = np.array([class_weights[classes[c]] for c in y])
        expected = recursive_grow(X, y, w, classes, params)
        # Unpruned, whatever `params.ccp_alpha` is.
        root = tree._grow(X, y, m, classes, class_weights, params)
        assert root == expected
        assert prune(root, params.ccp_alpha) == \
            recursive_prune(expected, params.ccp_alpha)
        assert root == expected  # pruning works on a copy
        vocab = Vocabulary.from_strings(f"f{i}" for i in range(X.shape[1]))
        model = train_tree(rows, labels, vocab, params, weights)
        assert model.root == recursive_prune(expected, params.ccp_alpha)
        assert to_dot(model) == recursive_to_dot(model)

    def test_equal_columns_split_on_the_first(self):
        # Column 3 repeats column 0, the only one that separates the classes.
        informative = [0, 0, 0, 1, 1, 1]
        rows = [[v, 2, i % 2, v] for i, v in enumerate(informative)]
        labels = ["A" if v == 0 else "B" for v in informative]
        vocab = Vocabulary.from_strings(["a", "b", "c", "d"])
        model = train_tree(rows, labels, vocab)
        assert model.root.split.feature_index == 0
        assert model.root.split.threshold == 0.5
        assert model.root.left.is_leaf and model.root.right.is_leaf
        assert "count(root/a) ≤ 0.5" in to_dot(model)

    def test_chain_deeper_than_the_recursion_limit(self):
        # Each split peels off the lowest row, so the tree is a chain.
        n = sys.getrecursionlimit() + 200
        rows = [[i] for i in range(n)]
        labels = ["A" if i % 2 else "B" for i in range(n)]
        vocab = Vocabulary.from_strings(["s"])
        model = train_tree(rows, labels, vocab, TreeParams(ccp_alpha=1e-9))
        assert len(decision_path(model, rows[-1])) == n - 1
        assert to_dot(model).count("->") == 2 * (n - 1)
        mf = ModelFile(full_vocabulary=["s"], kept=[True], tau=0.5,
                       model=model)
        text = dumps_model(mf)
        assert dumps_model(loads_model(text)) == text
