import numpy as np
import pytest
import scipy.sparse as sp

from gendec.errors import ConfigError, UnsupportedModelError
from gendec.models import hinge_loss, predict, predict_proba, train_svm
from gendec.models.common import linear_scores
from gendec.name_core import Gender

F, M = Gender.FEMALE, Gender.MALE


def test_zero_weights_hinge_loss_is_one():
    X = sp.csr_matrix(np.random.default_rng(0).random((5, 3)))
    y = [F, M, F, M, F]
    assert hinge_loss(np.zeros(3), 0.0, X, y) == 1.0


def test_separable_toy_set():
    X = sp.csr_matrix(
        np.array([[0.0, 1.0], [0.0, 2.0], [1.0, 0.0], [2.0, 0.0]])
    )
    y = [F, F, M, M]
    model = train_svm(X, y, lam=1e-3, epochs=60, seed=5)
    assert predict(model, X) == y


def test_label_flip_negates_scores():
    rng = np.random.default_rng(3)
    X = sp.csr_matrix(rng.random((12, 4)) * (rng.random((12, 4)) > 0.4))
    y = [M if b else F for b in rng.integers(0, 2, size=12)]
    flipped = [F if label is M else M for label in y]
    a = train_svm(X, y, lam=1e-3, epochs=12, seed=8)
    b = train_svm(X, flipped, lam=1e-3, epochs=12, seed=8)
    assert np.array_equal(linear_scores(a, X)[:, 1], -linear_scores(b, X)[:, 1])
    assert a.bias == -b.bias


def test_same_seed_same_weights():
    rng = np.random.default_rng(4)
    X = sp.csr_matrix(rng.random((20, 5)))
    y = [M if b else F for b in rng.integers(0, 2, size=20)]
    a = train_svm(X, y, seed=6)
    b = train_svm(X, y, seed=6)
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias


def test_zero_score_tie_breaks_female():
    model = train_svm(sp.csr_matrix(np.eye(2)), [F, M], epochs=1, seed=1)
    zero_row = sp.csr_matrix((1, 2))
    if linear_scores(model, zero_row)[0, 1] == 0.0:
        assert predict(model, zero_row) == [F]


def test_no_probabilities():
    model = train_svm(sp.csr_matrix(np.eye(2)), [F, M], seed=1)
    with pytest.raises(UnsupportedModelError):
        predict_proba(model, sp.csr_matrix(np.eye(2)))


def test_param_validation():
    X = sp.csr_matrix(np.eye(2))
    with pytest.raises(ConfigError):
        train_svm(X, [F, M], lam=0.0)
    with pytest.raises(ConfigError):
        train_svm(X, [F, M], epochs=0)


def test_learning_drives_hinge_loss_down(synthetic_corpus):
    from gendec.vectorize import fit_vocabulary, transform

    docs = [r.romaji.lower() for r in synthetic_corpus[:400]]
    y = [r.gender for r in synthetic_corpus[:400]]
    vocab = fit_vocabulary(docs)
    X = transform(docs, vocab)
    model = train_svm(X, y, lam=1e-4, epochs=10, seed=2)
    assert hinge_loss(model.weights, model.bias, X, y) < 0.5
