import numpy as np
import pytest
import scipy.sparse as sp

from gendec.errors import ConfigError, DimensionMismatchError
from gendec.models import (
    predict,
    predict_proba,
    train_forest,
    train_tree,
)
from gendec.models.tree import _best_split
from gendec.name_core import Gender

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
            np.array([0, 1, 0, 1]),
            np.array([1.0, 1.0, 2.0, 2.0]),
            np.array([0, 0, 1, 1], dtype=np.int8),
            2, 1, 1, 1, None,
        )
        col, thr = split
        assert col == 0
        assert thr == pytest.approx(1.5)

    def test_zero_boundary_threshold_is_half_min_value(self):
        split = _best_split(
            np.array([0], dtype=np.int64),
            np.array([2.0]),
            np.array([1], dtype=np.int8),
            3, 2, 1, 1, None,
        )
        assert split == (0, 1.0)

    def test_no_candidates_returns_none(self):
        assert _best_split(
            np.array([], dtype=np.int64), np.array([]),
            np.array([], dtype=np.int8), 2, 1, 1, 1, None,
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
            n_trees=3, features_per_split=1, bootstrap=True, seed=0,
            max_depth=None, min_samples_leaf=1, exhaust_on_miss=True, n_features=2,
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
