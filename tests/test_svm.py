from typing import Sequence

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gendec.errors import ConfigError, NonFiniteError, UnsupportedModelError
from gendec.models import hinge_loss, predict, predict_proba, train_svm
from gendec.models.common import MatrixLike, as_csr, linear_scores, training_labels
from gendec.models.svm import SVMModel
from gendec.name_core import Gender
from gendec.vectorize import CSR

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


# --- the gather-once Pegasos step against the per-step slices it replaced ---
# A verbatim copy of ``train_svm`` as it was before: each step slices the
# row out of ``indptr`` and gathers ``u[cols]`` twice.

def per_step_slice_train_svm(
    X: MatrixLike,
    y: Sequence[Gender],
    lam: float = 1e-4,
    epochs: int = 20,
    seed: int = 42,
) -> SVMModel:
    if lam <= 0:
        raise ConfigError(f"lambda must be positive, got {lam}")
    if epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")
    matrix = as_csr(X)
    signs = np.where(training_labels(matrix, y) == 1, 1.0, -1.0)
    n, V = matrix.shape
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed])))

    u = np.zeros(V, dtype=np.float64)
    scale = 1.0
    bias = 0.0
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            start, stop = indptr[i], indptr[i + 1]
            cols = indices[start:stop]
            vals = data[start:stop]
            margin = signs[i] * (scale * float(u[cols] @ vals) + bias)
            if t > 1:
                scale *= 1.0 - 1.0 / t
            eta = 1.0 / (lam * t)
            if margin < 1.0:
                u[cols] += (eta * signs[i] / scale) * vals
                bias += eta * signs[i]
        if not (np.isfinite(scale) and np.isfinite(bias)):
            raise NonFiniteError("svm training diverged")
    weights = scale * u
    if not np.all(np.isfinite(weights)):
        raise NonFiniteError("svm weights are not finite")
    return SVMModel(weights=weights, bias=bias, lam=lam, epochs=epochs, seed=seed)


@st.composite
def pegasos_cases(draw):
    """A canonical CSR (empty rows likely) with count-like or TF-IDF-like
    values, labels, lambda, epochs and a seed."""
    n = draw(st.integers(1, 12))
    V = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dense = rng.random((n, V)) * (rng.random((n, V)) < draw(st.floats(0.0, 1.0)))
    if draw(st.booleans()):
        dense = np.ceil(dense * 3)  # counts 1-3
    else:
        norms = np.sqrt((dense * dense).sum(axis=1, keepdims=True))
        dense = dense / np.where(norms > 0, norms, 1.0)  # unit rows, as TF-IDF
    matrix = sp.csr_matrix(dense)
    X = CSR(matrix.indptr, matrix.indices, matrix.data, matrix.shape)
    y = [M if bit else F for bit in rng.integers(0, 2, size=n)]
    lam = 10.0 ** draw(st.floats(-5.0, -1.0))
    return X, y, lam, draw(st.integers(1, 3)), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=300, deadline=None)
@given(case=pegasos_cases())
def test_gather_once_step_equals_per_step_slices(case):
    X, y, lam, epochs, seed = case
    new = train_svm(X, y, lam=lam, epochs=epochs, seed=seed)
    old = per_step_slice_train_svm(X, y, lam=lam, epochs=epochs, seed=seed)
    assert new.weights.tobytes() == old.weights.tobytes()
    assert float(new.bias) == float(old.bias)


@settings(max_examples=100, deadline=None)
@given(case=pegasos_cases())
def test_int32_and_int64_indices_train_the_same_weights(case):
    """A package CSR (int32 indices) and a scipy CSR over int64 copies of
    the same arrays give the same weights and bias."""
    X, y, lam, epochs, seed = case
    wide = sp.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)
    wide.indices = X.indices.astype(np.int64)
    wide.indptr = X.indptr.astype(np.int64)
    assert X.indices.dtype == np.int32 and as_csr(wide).indices.dtype == np.int64
    narrow_model = train_svm(X, y, lam=lam, epochs=epochs, seed=seed)
    wide_model = train_svm(wide, y, lam=lam, epochs=epochs, seed=seed)
    assert narrow_model.weights.tobytes() == wide_model.weights.tobytes()
    assert float(narrow_model.bias) == float(wide_model.bias)
