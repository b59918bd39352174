from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gendec.errors import ConfigError, DimensionMismatchError
from gendec.models import (
    predict,
    predict_proba,
    train_forest,
    train_tree,
)
from gendec.models.common import as_csr, check_n_features
from gendec.models.tree import (
    FeatureSampler,
    TreeModel,
    _best_split,
    _grow_tree,
    tree_apply,
)
from gendec.name_core import Gender
from gendec.vectorize import CSR

sp = pytest.importorskip("scipy.sparse")

F, M = Gender.FEMALE, Gender.MALE


def _labels(bits):
    return [M if b else F for b in bits]


def _random_matrix(rng, n=None, V=None):
    n = n or int(rng.integers(2, 14))
    V = V or int(rng.integers(1, 7))
    dense = rng.random((n, V)) * (rng.random((n, V)) > 0.4)
    if rng.random() < 0.3:
        dense = np.round(dense * 3)  # count-like values with ties
    return sp.csr_matrix(dense)


class TestTree:
    def test_single_class_is_single_leaf(self):
        X = sp.csr_matrix(np.eye(3))
        model = train_tree(X, [M, M, M])
        assert model.n_nodes == 1
        assert model.feature[0] == -1
        assert predict(model, X) == [M, M, M]

    def test_xor_depth_two(self):
        X = sp.csr_matrix(np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]))
        y = [F, F, M, M]
        model = train_tree(X, y, max_depth=2)
        assert predict(model, X) == y

    def test_unsplittable_duplicates_tie_break_female(self):
        X = sp.csr_matrix(np.array([[1.0, 2.0], [1.0, 2.0]]))
        model = train_tree(X, [F, M])
        assert model.n_nodes == 1
        assert predict(model, X) == [F, F]

    def test_memorizes_distinct_rows(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 20))
            dense = rng.random((n, 4))
            y = _labels(rng.integers(0, 2, size=n))
            model = train_tree(sp.csr_matrix(dense), y)
            assert predict(model, sp.csr_matrix(dense)) == y

    def test_max_depth_limits_nodes(self):
        rng = np.random.default_rng(6)
        dense = rng.random((40, 3))
        y = _labels(rng.integers(0, 2, size=40))
        model = train_tree(sp.csr_matrix(dense), y, max_depth=1)
        assert model.n_nodes <= 3

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(7)
        dense = rng.random((30, 3))
        y = _labels(rng.integers(0, 2, size=30))
        model = train_tree(sp.csr_matrix(dense), y, min_samples_leaf=5)
        leaves = model.feature == -1
        totals = model.count_female[leaves] + model.count_male[leaves]
        assert totals.min() >= 5

    def test_internal_nodes_have_two_children(self):
        rng = np.random.default_rng(8)
        dense = rng.random((25, 3))
        y = _labels(rng.integers(0, 2, size=25))
        model = train_tree(sp.csr_matrix(dense), y)
        internal = model.feature >= 0
        assert np.all(model.left[internal] >= 0)
        assert np.all(model.right[internal] >= 0)

    def test_negative_features_rejected(self):
        X = sp.csr_matrix(np.array([[-1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(ConfigError):
            train_tree(X, [F, M])

    def test_dimension_mismatch(self):
        model = train_tree(sp.csr_matrix(np.eye(2)), [F, M])
        with pytest.raises(DimensionMismatchError):
            predict(model, sp.csr_matrix((1, 3)))

    def test_duplicate_entries_are_summed(self):
        # Row 0 stores column 0 twice: 0.3 + 0.3 is its value 0.6.
        X = sp.csr_matrix((np.array([0.3, 0.3, 0.5, 0.7]), np.array([0, 0, 0, 0]),
                           np.array([0, 2, 3, 4])), shape=(3, 1))
        model = train_tree(X, [M, F, M])
        assert model.n_nodes == 3
        assert model.threshold[0] == pytest.approx(0.55)
        assert predict(model, X) == [M, F, M]

    def test_package_csr_duplicate_entries_are_summed(self):
        # The grower counts a child's rows by its split column's entries, so
        # a package CSR storing a column twice in a row is summed as well.
        X = CSR(np.array([0, 2, 3, 4]), np.array([0, 0, 0, 0]),
                np.array([0.6, 0.6, 0.1, 0.0]), (3, 1))
        model = train_tree(X, [F, M, M])
        assert model.n_nodes == 3
        assert model.threshold[0] == pytest.approx(0.65)
        assert model.count_female.tolist() == [1, 0, 1]
        assert predict(model, X) == [F, M, M]

    def test_proba_is_leaf_frequency(self):
        X = sp.csr_matrix(np.array([[1.0], [1.0], [1.0]]))
        model = train_tree(X, [M, M, F])  # unsplittable: one leaf, counts 1F/2M
        proba = predict_proba(model, X)
        assert proba[0] == pytest.approx([1 / 3, 2 / 3])


class TestBestSplit:
    def test_tie_breaks_lowest_column_then_threshold(self):
        # Two identical columns, each splitting the rows perfectly;
        # column 0 must win the tie.
        split = _best_split(
            np.array([0, 0, 1, 1]),
            np.array([1.0, 2.0, 1.0, 2.0]),
            np.array([0, 1, 0, 1], dtype=np.int8),
            2, 1, 1, None,
        )
        col, thr = split
        assert col == 0
        assert thr == pytest.approx(1.5)

    def test_zero_boundary_threshold_is_half_min_value(self):
        split = _best_split(
            np.array([0], dtype=np.int64),
            np.array([2.0]),
            np.array([1], dtype=np.int8),
            3, 2, 1, None,
        )
        assert split == (0, 1.0)

    def test_no_candidates_returns_none(self):
        assert _best_split(
            np.array([], dtype=np.int64), np.array([]),
            np.array([], dtype=np.int8), 2, 1, 1, None,
        ) is None


class TestForest:
    def test_degenerate_forest_equals_tree(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            X = _random_matrix(rng)
            y = _labels(rng.integers(0, 2, size=X.shape[0]))
            tree = train_tree(X, y)
            forest = train_forest(
                X, y, n_trees=1, bootstrap=False,
                features_per_split=X.shape[1], seed=3,
            )
            probe = _random_matrix(rng, n=8, V=X.shape[1])
            assert predict(forest, probe) == predict(tree, probe)

    def test_same_seed_same_model(self, synthetic_corpus):
        from gendec.vectorize import fit_vocabulary, transform

        records = synthetic_corpus[::4]  # interleaved so both genders appear
        docs = [r.romaji.lower() for r in records]
        y = [r.gender for r in records]
        vocab = fit_vocabulary(docs)
        X = transform(docs, vocab)
        a = train_forest(X, y, n_trees=8, seed=21)
        b = train_forest(X, y, n_trees=8, seed=21)
        for ta, tb in zip(a.trees, b.trees):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.threshold, tb.threshold)
            assert np.array_equal(ta.count_female, tb.count_female)
        c = train_forest(X, y, n_trees=8, seed=22)
        assert any(
            not np.array_equal(ta.feature, tc.feature)
            for ta, tc in zip(a.trees, c.trees)
        )

    def test_majority_vote(self):
        # Three single-leaf trees voting M, M, F -> M with proba (1/3, 2/3).
        from gendec.models.forest import ForestModel
        from gendec.models.tree import TreeModel

        def leaf(nf, nm):
            return TreeModel(
                feature=np.array([-1], dtype=np.int32),
                threshold=np.array([0.0]),
                left=np.array([-1], dtype=np.int32),
                right=np.array([-1], dtype=np.int32),
                count_female=np.array([nf], dtype=np.int64),
                count_male=np.array([nm], dtype=np.int64),
                n_features=2,
                max_depth=None,
                min_samples_leaf=1,
            )

        forest = ForestModel(
            trees=[leaf(0, 1), leaf(0, 1), leaf(1, 0)],
            features_per_split=1, bootstrap=True, seed=0,
            max_depth=None, min_samples_leaf=1, n_features=2,
        )
        X = sp.csr_matrix((2, 2))
        assert predict(forest, X) == [M, M]
        assert predict_proba(forest, X)[0] == pytest.approx([1 / 3, 2 / 3])

    def test_single_class_forest_predicts_it(self):
        X = sp.csr_matrix(np.eye(3))
        forest = train_forest(X, [M, M, M], n_trees=1, seed=1)
        assert predict(forest, sp.csr_matrix((2, 3))) == [M, M]

    def test_bad_params(self):
        X = sp.csr_matrix(np.eye(2))
        with pytest.raises(ConfigError):
            train_forest(X, [F, M], n_trees=0)
        with pytest.raises(ConfigError):
            train_forest(X, [F, M], features_per_split=5)


@pytest.mark.parametrize("train", [
    train_tree,
    lambda X, y, **params: train_forest(X, y, n_trees=1, bootstrap=False, **params),
], ids=["tree", "forest"])
@pytest.mark.parametrize("params", [
    {"max_depth": 0}, {"max_depth": -1}, {"min_samples_leaf": 0},
    {"min_samples_leaf": -1},
])
def test_depth_and_leaf_limits_checked_by_both_trainers(train, params):
    with pytest.raises(ConfigError):
        train(sp.csr_matrix(np.eye(2)), [F, M], **params)


def stack_walk_apply(model, X):
    """Reference for ``tree_apply``: routes row sets down the tree with an
    explicit stack, re-numbering each node's entries for its children."""
    matrix = as_csr(X)
    check_n_features(model.n_features, matrix)
    n = matrix.shape[0]
    out = np.zeros(n, dtype=np.int64)
    if n == 0:
        return out
    er, ec, ev = (matrix.row_ids(), matrix.indices.astype(np.int64),
                  matrix.data.astype(np.float64))
    rows = np.arange(n, dtype=np.int64)
    stack = [(0, rows, er, ec, ev)]
    while stack:
        node, nrows, ner, nec, nev = stack.pop()
        if nrows.size == 0:
            continue
        col = model.feature[node]
        if col < 0:
            out[nrows] = node
            continue
        on_col = nec == col
        right_rows = ner[on_col][nev[on_col] > model.threshold[node]]
        side = np.zeros(nrows.size, dtype=bool)
        side[right_rows] = True
        left_index = np.cumsum(~side) - 1
        right_index = np.cumsum(side) - 1
        entry_side = side[ner]
        stack.append(
            (
                int(model.right[node]),
                nrows[side],
                right_index[ner[entry_side]],
                nec[entry_side],
                nev[entry_side],
            )
        )
        stack.append(
            (
                int(model.left[node]),
                nrows[~side],
                left_index[ner[~entry_side]],
                nec[~entry_side],
                nev[~entry_side],
            )
        )
    return out


@st.composite
def trees_and_batches(draw):
    """A trained tree (a forest's, a plain one, or a root-only one) and a
    scipy CSR batch whose rows may be empty and whose column entries may
    repeat or come unsorted."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = _random_matrix(rng)
    n, V = X.shape
    max_depth = draw(st.none() | st.integers(1, 6))
    kind = draw(st.sampled_from(["tree", "forest", "root"]))
    if kind == "tree":
        tree = train_tree(X, _labels(rng.integers(0, 2, size=n)), max_depth=max_depth)
    elif kind == "forest":
        forest = train_forest(X, _labels(rng.integers(0, 2, size=n)), n_trees=3,
                              seed=int(rng.integers(0, 100)), max_depth=max_depth)
        tree = forest.trees[draw(st.integers(0, 2))]
    else:
        tree = train_tree(X, [M] * n)
        assert tree.n_nodes == 1
    # Values on and around the split thresholds, plus stored zeros.
    values = st.sampled_from([0.0, 1.0, *tree.threshold.tolist()]) | st.floats(-1.0, 4.0)
    batch = draw(st.lists(st.lists(st.tuples(st.integers(0, V - 1), values), max_size=6),
                          max_size=8))
    indptr = np.cumsum([0] + [len(row) for row in batch])
    entries = [entry for row in batch for entry in row]
    indices = np.array([col for col, _ in entries], dtype=np.int32)
    data = np.array([value for _, value in entries], dtype=np.float64)
    return tree, sp.csr_matrix((data, indices, indptr), shape=(len(batch), V))


@settings(max_examples=300, deadline=None)
@given(case=trees_and_batches())
def test_level_walk_equals_stack_walk(case):
    tree, X = case
    leaves = tree_apply(tree, as_csr(X))
    assert leaves.dtype == np.int64
    assert np.array_equal(leaves, stack_walk_apply(tree, X))


def test_walk_over_a_cycle_raises_instead_of_looping():
    tree = train_tree(sp.csr_matrix(np.eye(2)), [F, M])
    assert tree.n_nodes == 3
    tree.left[0] = 0
    with pytest.raises(ValueError, match="cycle"):
        tree_apply(tree, as_csr(sp.csr_matrix(np.zeros((2, 2)))))


# --- the presorted grower against the per-node sort it replaced -------------
# Verbatim copies of ``_best_split`` and ``_grow_tree`` as they were before
# the presort: every node lexsorts its own entries and re-numbers its rows.

def per_node_sort_best_split(
    ec: np.ndarray,
    ev: np.ndarray,
    eg: np.ndarray,
    n: int,
    nf: int,
    nm: int,
    min_samples_leaf: int,
    allowed: Optional[np.ndarray],
) -> Optional[tuple[int, float]]:
    """Lowest-weighted-Gini (column, threshold) over all boundaries, or None.

    ec/ev/eg are the node's nonzero entries: column, value (> 0), and the
    0/1 label of the owning row.  Boundaries are evaluated in (column,
    value) order, so the first minimum realizes the documented tie-break.
    """
    if allowed is not None:
        keep = np.isin(ec, allowed)
        ec, ev, eg = ec[keep], ev[keep], eg[keep]
    if ec.size == 0:
        return None
    order = np.lexsort((ev, ec))
    c = ec[order]
    v = ev[order]
    g = eg[order]
    m = c.size

    new_col = np.empty(m, dtype=bool)
    new_col[0] = True
    np.not_equal(c[1:], c[:-1], out=new_col[1:])
    seg = np.cumsum(new_col) - 1
    starts = np.flatnonzero(new_col)
    ends = np.append(starts[1:], m)

    cum_f = np.concatenate(([0], np.cumsum(g == 0, dtype=np.int64)))
    seg_start = starts[seg]
    positions = np.arange(m, dtype=np.int64)
    prefix_f = cum_f[positions] - cum_f[seg_start]
    prefix_n = positions - seg_start
    col_f = cum_f[ends[seg]] - cum_f[seg_start]
    col_n = ends[seg] - seg_start
    zero_f = nf - col_f
    zero_n = n - col_n

    v_prev = np.empty_like(v)
    v_prev[0] = 0.0
    v_prev[1:] = v[:-1]
    zero_boundary = new_col & (zero_n > 0)
    value_boundary = ~new_col & (v != v_prev)
    candidate = zero_boundary | value_boundary

    left_f = zero_f + prefix_f
    left_n = zero_n + prefix_n
    valid = candidate & (left_n >= min_samples_leaf) & (n - left_n >= min_samples_leaf)
    idx = np.flatnonzero(valid)
    if idx.size == 0:
        return None

    lf = left_f[idx].astype(np.float64)
    ln = left_n[idx].astype(np.float64)
    lm = ln - lf
    rf = nf - lf
    rn = n - ln
    rm = rn - rf
    # n * weighted Gini; same argmin as the weighted Gini itself.
    score = (ln - (lf * lf + lm * lm) / ln) + (rn - (rf * rf + rm * rm) / rn)
    best = int(idx[int(np.argmin(score))])
    threshold = v[best] / 2.0 if new_col[best] else (v_prev[best] + v[best]) / 2.0
    return int(c[best]), float(threshold)



def per_node_sort_grow_tree(
    matrix: CSR,
    labels: np.ndarray,
    max_depth: Optional[int],
    min_samples_leaf: int,
    feature_sampler: Optional[FeatureSampler] = None,
    exhaust_on_miss: bool = True,
) -> TreeModel:
    """Depth-first growth with an explicit stack (trees can be very deep).

    When a feature sampler is given, the split search is restricted to
    its columns; if none of them yields a valid split and
    ``exhaust_on_miss`` is set, the search falls back to all columns so
    impure nodes are not stranded by an unlucky draw.
    """
    if max_depth is not None and max_depth < 1:
        raise ConfigError(f"max_depth must be >= 1, got {max_depth}")
    if min_samples_leaf < 1:
        raise ConfigError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
    if matrix.nnz and matrix.data.min() < 0:
        raise ConfigError("tree features must be non-negative")
    n, _V = matrix.shape
    er = matrix.row_ids()
    ec = matrix.indices.astype(np.int64)
    ev = matrix.data.astype(np.float64)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    count_f: list[int] = []
    count_m: list[int] = []

    def new_node(nf: int, nm: int) -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        count_f.append(nf)
        count_m.append(nm)
        return len(feature) - 1

    root_nf = int((labels == 0).sum())
    root = new_node(root_nf, len(labels) - root_nf)
    # Stack entries: (node id, depth, row labels, entry rows/cols/vals).
    stack = [(root, 0, labels, er, ec, ev)]
    while stack:
        node, depth, ly, ner, nec, nev = stack.pop()
        size = len(ly)
        nf = count_f[node]
        nm = count_m[node]
        if (
            nf == 0
            or nm == 0
            or (max_depth is not None and depth >= max_depth)
            or size < 2 * min_samples_leaf
        ):
            continue
        eg = ly[ner]
        split = None
        if feature_sampler is not None:
            split = per_node_sort_best_split(
                nec, nev, eg, size, nf, nm, min_samples_leaf, feature_sampler()
            )
            if split is None and not exhaust_on_miss:
                continue
        if split is None:
            split = per_node_sort_best_split(nec, nev, eg, size, nf, nm, min_samples_leaf, None)
        if split is None:
            continue
        col, thr = split

        on_col = nec == col
        right_rows = ner[on_col][nev[on_col] > thr]
        side = np.zeros(size, dtype=bool)
        side[right_rows] = True
        n_right = int(side.sum())
        if n_right == 0 or n_right == size:
            continue  # degenerate midpoint rounding; keep the node a leaf

        left_index = np.cumsum(~side) - 1
        right_index = np.cumsum(side) - 1
        entry_side = side[ner]
        ly_left, ly_right = ly[~side], ly[side]
        nf_left = int((ly_left == 0).sum())
        nf_right = nf - nf_left

        feature[node] = col
        threshold[node] = thr
        left_id = new_node(nf_left, len(ly_left) - nf_left)
        right_id = new_node(nf_right, len(ly_right) - nf_right)
        left[node] = left_id
        right[node] = right_id
        # Push right first so the left child is processed (and draws any
        # sampled features) first: deterministic depth-first, left-first.
        stack.append(
            (
                right_id,
                depth + 1,
                ly_right,
                right_index[ner[entry_side]],
                nec[entry_side],
                nev[entry_side],
            )
        )
        stack.append(
            (
                left_id,
                depth + 1,
                ly_left,
                left_index[ner[~entry_side]],
                nec[~entry_side],
                nev[~entry_side],
            )
        )

    return TreeModel(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        count_female=np.asarray(count_f, dtype=np.int64),
        count_male=np.asarray(count_m, dtype=np.int64),
        n_features=matrix.shape[1],
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
    )


@st.composite
def grow_cases(draw):
    """A matrix (a canonical CSR, or a scipy CSR whose column entries may
    come unsorted or repeat), labels, limits and an optional sampler seed."""
    n = draw(st.integers(0, 12))
    V = draw(st.integers(1, 6))
    # A few shared values make ties across rows; stored zeros may appear.
    values = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 3.0)
    batch = draw(st.lists(st.lists(st.tuples(st.integers(0, V - 1), values), max_size=5),
                          min_size=n, max_size=n))
    indptr = np.cumsum([0] + [len(row) for row in batch])
    entries = [entry for row in batch for entry in row]
    indices = np.array([col for col, _ in entries], dtype=np.int32)
    data = np.array([value for _, value in entries], dtype=np.float64)
    X = sp.csr_matrix((data, indices, indptr), shape=(n, V))
    if draw(st.booleans()):
        X.sum_duplicates()
        X = CSR(X.indptr, X.indices, X.data, X.shape)
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                      dtype=np.int8)
    sampler = draw(st.none() | st.tuples(st.integers(1, V), st.integers(0, 2 ** 32 - 1)))
    return (as_csr(X), labels, draw(st.none() | st.integers(1, 5)),
            draw(st.integers(1, 3)), sampler)


def _sampler(V, features, seed):
    rng = np.random.default_rng(seed)
    return lambda: np.sort(rng.choice(V, size=features, replace=False))


@settings(max_examples=400, deadline=None)
@given(case=grow_cases())
def test_presorted_grower_equals_per_node_sort(case):
    matrix, labels, max_depth, min_samples_leaf, sampler = case
    trees = []
    for grow in (_grow_tree, per_node_sort_grow_tree):
        options = {}
        if sampler is not None:
            features, seed = sampler
            options = {"feature_sampler": _sampler(matrix.shape[1], features, seed)}
        trees.append(grow(matrix, labels, max_depth, min_samples_leaf, **options))
    new, old = trees
    for name in ("feature", "threshold", "left", "right", "count_female", "count_male"):
        assert np.array_equal(getattr(new, name), getattr(old, name)), name
        assert getattr(new, name).dtype == getattr(old, name).dtype, name


def _depth(tree: TreeModel) -> int:
    depth = np.zeros(tree.n_nodes, dtype=np.int64)
    for node in np.flatnonzero(tree.feature >= 0):  # parents come before children
        depth[tree.left[node]] = depth[tree.right[node]] = depth[node] + 1
    return int(depth.max())


@pytest.mark.parametrize("sampler", [None, (20, 7)], ids=["all-columns", "sampled"])
def test_chain_tree_equals_per_node_sort(sampler):
    # Each row holds its own token, so every split peels one row off, and
    # alternating labels keep the remaining node impure: a chain, like the
    # deep word-token trees, far deeper than the property's trees.
    n = 500
    matrix = CSR(np.arange(n + 1), np.arange(n), 1.0 + np.arange(n) % 3, (n, n))
    labels = (np.arange(n) % 2).astype(np.int8)
    trees = []
    for grow in (_grow_tree, per_node_sort_grow_tree):
        options = {}
        if sampler is not None:
            options = {"feature_sampler": _sampler(n, *sampler)}
        trees.append(grow(matrix, labels, None, 1, **options))
    new, old = trees
    assert _depth(new) >= 200
    for name in ("feature", "threshold", "left", "right", "count_female", "count_male"):
        assert np.array_equal(getattr(new, name), getattr(old, name)), name


@st.composite
def split_cases(draw):
    """One node's entries in (column, value) order, its row count and label
    counts, ``min_samples_leaf`` and an ``allowed`` column set: None, every
    column, one column, or sorted ids that may name columns with no entry
    at the node."""
    n = draw(st.integers(1, 10))
    V = draw(st.integers(1, 5))
    # A few shared values make ties within a column; 0.0 is no entry.
    values = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0]) | st.floats(0.01, 3.0)
    dense = np.array(draw(st.lists(values, min_size=n * V, max_size=n * V))).reshape(n, V)
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                      dtype=np.int8)
    rows, cols = np.nonzero(dense)
    order = np.lexsort((dense[rows, cols], cols))
    c, r = cols[order].astype(np.int64), rows[order]
    allowed = draw(st.sampled_from(["none", "all", "one", "some"]))
    if allowed == "none":
        allowed = None
    elif allowed == "all":
        allowed = np.arange(V)
    elif allowed == "one":
        allowed = np.array([draw(st.integers(0, V - 1))])
    else:
        allowed = np.array(sorted(draw(st.sets(st.integers(0, V + 2), min_size=1))))
    nf = int(np.count_nonzero(labels == 0))
    return (c, dense[r, c], labels[r], n, nf, n - nf, draw(st.integers(1, 3)), allowed)


@settings(max_examples=500, deadline=None)
@given(case=split_cases())
def test_column_range_split_equals_per_node_sort(case):
    c, v, g, n, nf, _nm, min_samples_leaf, allowed = case
    assert (_best_split(c, v, g, n, nf, min_samples_leaf, allowed)
            == per_node_sort_best_split(*case))
