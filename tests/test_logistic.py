import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import expit

from gendec.errors import ConfigError
from gendec.models import predict, predict_proba, train_logistic
from gendec.models.logistic import LRModel, loss_and_gradient, sigmoid
from gendec.name_core import Gender

F, M = Gender.FEMALE, Gender.MALE


def _random_instance(rng, normalize=True):
    n = int(rng.integers(2, 9))
    V = int(rng.integers(1, 7))
    dense = rng.normal(size=(n, V)) * (rng.random((n, V)) > 0.3)
    if normalize:
        norms = np.linalg.norm(dense, axis=1, keepdims=True)
        dense = np.divide(dense, norms, out=np.zeros_like(dense), where=norms > 0)
    y01 = rng.integers(0, 2, size=n).astype(float)
    return sp.csr_matrix(dense), y01


def finite_difference_gradient(matrix, y01, weights, bias, l2, step=1e-5):
    """Central differences over the stacked (weights, bias) vector."""
    packed = np.concatenate([weights, [bias]])

    def loss_at(vector):
        loss, _, _ = loss_and_gradient(matrix, y01, vector[:-1], vector[-1], l2)
        return loss

    grad = np.zeros_like(packed)
    for i in range(len(packed)):
        up = packed.copy()
        down = packed.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (loss_at(up) - loss_at(down)) / (2 * step)
    return grad


def test_initial_loss_is_ln2():
    X = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 1.0]]))
    model = train_logistic(X, [F, M, F], epochs=1)
    assert model.training_trace[0] == pytest.approx(math.log(2), abs=1e-12)


def test_separable_two_points_reach_perfect_accuracy():
    X = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
    y = [F, M]
    model = train_logistic(X, y, learning_rate=0.1, epochs=500)
    assert predict(model, X) == y


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(100):
        matrix, y01 = _random_instance(rng, normalize=False)
        weights = rng.normal(scale=0.5, size=matrix.shape[1])
        bias = float(rng.normal(scale=0.5))
        l2 = float(rng.choice([0.0, 1e-4, 1e-2]))
        _, grad_w, grad_b = loss_and_gradient(matrix, y01, weights, bias, l2)
        analytic = np.concatenate([grad_w, [grad_b]])
        numeric = finite_difference_gradient(matrix, y01, weights, bias, l2)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-8)
        assert rel <= 1e-5


def test_trace_non_increasing_at_small_learning_rate():
    rng = np.random.default_rng(11)
    for _ in range(25):
        matrix, y01 = _random_instance(rng, normalize=True)
        y = [M if v else F for v in y01]
        model = train_logistic(matrix, y, learning_rate=0.1, epochs=60)
        diffs = np.diff(model.training_trace)
        assert np.all(diffs <= 1e-12)


def test_trace_length_and_finiteness():
    X = sp.csr_matrix(np.eye(4))
    model = train_logistic(X, [F, M, F, M], epochs=25)
    assert len(model.training_trace) == 26
    assert np.all(np.isfinite(model.training_trace))


def test_zero_weights_tie_breaks_female():
    X = sp.csr_matrix(np.eye(2))
    model = train_logistic(X, [F, M], epochs=1, learning_rate=1e-12)
    proba = predict_proba(model, sp.csr_matrix((1, 2)))[0]
    assert proba == pytest.approx([0.5, 0.5])
    assert predict(model, sp.csr_matrix((1, 2))) == [F]


def test_flag_validation():
    X = sp.csr_matrix(np.eye(2))
    with pytest.raises(ConfigError):
        train_logistic(X, [F, M], learning_rate=0.0)
    with pytest.raises(ConfigError):
        train_logistic(X, [F, M], epochs=0)
    with pytest.raises(ConfigError):
        train_logistic(X, [F, M], l2=-1.0)


# --- the sigmoid against scipy.special.expit, bit for bit -------------------

def _sigmoid_inputs() -> np.ndarray:
    rng = np.random.default_rng(2023)
    return np.concatenate([
        rng.normal(size=600_000),
        rng.normal(scale=40.0, size=200_000),
        rng.uniform(-800.0, 800.0, size=200_000),
        # glibc's cexp rescales above 709; results here are subnormal or 0.
        rng.uniform(-745.2, -709.0, size=100_000),
        np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -709.0,
                  np.nextafter(-709.0, 0.0), np.nextafter(-709.0, -1e3),
                  -math.log(np.finfo(np.float64).max), -745.1332191019412,
                  -745.2, 36.0, 37.0, 40.0, 709.0, 800.0]),
    ])


def test_sigmoid_equals_expit_bit_for_bit():
    z = _sigmoid_inputs()
    expected = expit(z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sigmoid(z)
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    differ = np.flatnonzero(got.view(np.int64)[~nan] != expected.view(np.int64)[~nan])
    assert differ.size == 0, f"{differ.size} values differ, first at z={z[~nan][differ[0]]!r}"
    # The inputs reach every kind of result.
    tiny = np.finfo(np.float64).tiny
    assert np.any((expected > 0.0) & (expected < tiny))
    assert np.any(expected == 0.0) and np.any(expected == 1.0)


def test_proba_of_margins_beyond_exp_range_is_finite_and_silent():
    model = LRModel(weights=np.array([900.0, -900.0, 0.0]), bias=0.0, l2=0.0,
                    learning_rate=0.1, epochs=1)
    X = sp.csr_matrix(np.eye(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        proba = predict_proba(model, X)
    assert proba.tolist() == [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]
