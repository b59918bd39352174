import math
import warnings
from typing import Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gendec.errors import (
    ConfigError,
    DimensionMismatchError,
    LengthMismatchError,
    NonFiniteError,
)
from gendec.models import as_csr, logistic, predict, predict_proba, train_logistic
from gendec.models.common import MatrixLike, training_labels
from gendec.models.logistic import LRModel, _Products, loss_and_gradient, sigmoid
from gendec.name_core import Gender
from gendec.vectorize import (
    TokenizerConfig,
    TokenizerMode,
    Weighting,
    fit_vocabulary,
    transform,
)
from tests.conftest import finite_difference_gradient

sp = pytest.importorskip("scipy.sparse")
expit = pytest.importorskip("scipy.special").expit

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


# --- the products and the fit against scipy.sparse, bit for bit -------------

# Signed magnitudes from 1e-8 to 1e8, with +0.0 and -0.0 drawn often.
_values = st.one_of(st.sampled_from([0.0, -0.0]),
                    st.floats(min_value=-1e8, max_value=1e8, allow_nan=False))


@st.composite
def csr_inputs(draw):
    """(CSR-shaped object, n_cols) that may be non-canonical: rows store
    columns out of order and twice, empty rows are common, and one row may
    hold up to 60 entries."""
    n_rows = draw(st.integers(0, 8))
    n_cols = draw(st.integers(0, 64))
    entry = st.tuples(st.integers(0, max(n_cols - 1, 0)), _values)
    rows = [draw(st.lists(entry, max_size=4 if n_cols else 0)) for _ in range(n_rows)]
    if n_rows and n_cols and draw(st.booleans()):
        rows[draw(st.integers(0, n_rows - 1))] = draw(st.lists(entry, min_size=20, max_size=60))
    indptr = np.cumsum([0] + [len(row) for row in rows]).astype(np.int32)
    indices = np.array([col for row in rows for col, _ in row], dtype=np.int32)
    data = np.array([value for row in rows for _, value in row], dtype=np.float64)
    return sp.csr_matrix((data, indices, indptr), shape=(n_rows, n_cols)), n_cols


@settings(max_examples=400, deadline=None)
@given(data=st.data(), case=csr_inputs(), block=st.sampled_from([1, 3, logistic._BLOCK]))
def test_products_equal_scipy_bit_for_bit(data, case, block):
    raw, n_cols = case
    matrix = as_csr(raw)  # canonical, as train_logistic sees it
    reference = sp.csr_matrix((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)
    w = np.array(data.draw(st.lists(_values, min_size=n_cols, max_size=n_cols)),
                 dtype=np.float64)
    r = np.array(data.draw(st.lists(_values, min_size=matrix.shape[0],
                                    max_size=matrix.shape[0])), dtype=np.float64)
    with mock.patch.object(logistic, "_BLOCK", block):  # small blocks split ranks
        products = _Products(matrix)
    for _ in range(2):  # the buffers are reused across calls
        for got, want in ((products.dot(w), reference @ w),
                          (products.transpose_dot(r), reference.T @ r)):
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == np.asarray(want, dtype=np.float64).tobytes()


# The parent's scipy-based gradient step and fit, kept verbatim as the
# oracle for the numpy products (only the names differ).
def scipy_loss_and_gradient(
    matrix,
    y01: np.ndarray,
    weights: np.ndarray,
    bias: float,
    l2: float,
    transposed=None,
) -> tuple[float, np.ndarray, float]:
    """Regularized mean log loss and its analytic gradient, for a
    scipy.sparse ``matrix``; ``transposed`` is ``matrix.T``, formed here
    when not given.

    Uses log(1 + e^z) - y*z, which is stable for large |z|.  The bias is
    not regularized.
    """
    if transposed is None:
        transposed = matrix.T
    n = matrix.shape[0]
    with np.errstate(over="ignore"):  # divergence shows up as inf loss
        z = matrix @ weights + bias
        loss = float(np.mean(np.logaddexp(0.0, z) - y01 * z)) + 0.5 * l2 * float(
            weights @ weights
        )
        residual = sigmoid(z) - y01
        grad_w = (transposed @ residual) / n + l2 * weights
        grad_b = float(np.mean(residual))
    return loss, np.asarray(grad_w).ravel(), grad_b


def scipy_train_logistic(
    X: MatrixLike,
    y: Sequence[Gender],
    learning_rate: float = 0.1,
    epochs: int = 200,
    l2: float = 1e-4,
) -> LRModel:
    if not 0 < learning_rate < math.inf:
        raise ConfigError(f"learning_rate must be positive and finite, got {learning_rate}")
    if epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")
    if not 0 <= l2 < math.inf:
        raise ConfigError(f"l2 must be >= 0 and finite, got {l2}")
    from scipy.sparse import csr_matrix

    own = as_csr(X)
    matrix = csr_matrix((own.data, own.indices, own.indptr), shape=own.shape, copy=False)
    transposed = matrix.T
    y01 = training_labels(own, y).astype(np.float64)
    weights = np.zeros(matrix.shape[1], dtype=np.float64)
    bias = 0.0
    trace: list[float] = []
    for _ in range(epochs):
        loss, grad_w, grad_b = scipy_loss_and_gradient(matrix, y01, weights, bias, l2,
                                                       transposed)
        if not np.isfinite(loss):
            raise NonFiniteError(f"logistic loss diverged to {loss!r}")
        trace.append(loss)
        weights -= learning_rate * grad_w
        bias -= learning_rate * grad_b
    final_loss, _, _ = scipy_loss_and_gradient(matrix, y01, weights, bias, l2, transposed)
    if not np.isfinite(final_loss):
        raise NonFiniteError(f"logistic loss diverged to {final_loss!r}")
    trace.append(final_loss)
    return LRModel(
        weights=weights,
        bias=bias,
        l2=l2,
        learning_rate=learning_rate,
        epochs=epochs,
        training_trace=trace,
    )


def _assert_same_fit(got: LRModel, want: LRModel) -> None:
    assert got.weights.tobytes() == want.weights.tobytes()
    assert np.float64(got.bias).tobytes() == np.float64(want.bias).tobytes()
    assert np.array(got.training_trace).tobytes() == np.array(want.training_trace).tobytes()


def test_fit_equals_scipy_oracle_on_random_instances():
    rng = np.random.default_rng(16)
    for _ in range(60):
        matrix, y01 = _random_instance(rng, normalize=bool(rng.integers(0, 2)))
        y = [M if v else F for v in y01]
        kwargs = dict(learning_rate=float(rng.choice([0.05, 0.1, 1.0])),
                      epochs=int(rng.integers(1, 40)), l2=float(rng.choice([0.0, 1e-4])))
        _assert_same_fit(train_logistic(matrix, y, **kwargs),
                         scipy_train_logistic(matrix, y, **kwargs))


@pytest.mark.parametrize("block", [logistic._BLOCK, 5000], ids=["one-block", "blocks"])
@pytest.mark.parametrize("weighting", list(Weighting), ids=lambda w: w.value)
def test_fit_equals_scipy_oracle_on_char_ngrams(synthetic_corpus, weighting, block):
    texts = [record.romaji for record in synthetic_corpus]
    config = TokenizerConfig(TokenizerMode.CHAR_NGRAM, 2, 4)
    X = transform(texts, fit_vocabulary(texts, config, weighting), weighting)
    assert np.diff(X.matrix.indptr).max() >= 30
    assert X.matrix.nnz < logistic._BLOCK  # so the default is one block
    y = [record.gender for record in synthetic_corpus]
    with mock.patch.object(logistic, "_BLOCK", block):
        model = train_logistic(X, y)
    _assert_same_fit(model, scipy_train_logistic(X, y))


def test_loss_and_gradient_equal_scipy_oracle_on_a_scipy_matrix():
    rng = np.random.default_rng(17)
    for _ in range(50):
        matrix, y01 = _random_instance(rng, normalize=False)
        weights = rng.normal(size=matrix.shape[1])
        weights[rng.random(weights.size) < 0.2] = -0.0
        bias = float(rng.normal())
        got = loss_and_gradient(matrix, y01, weights, bias, 1e-4)
        want = scipy_loss_and_gradient(matrix, y01, weights, bias, 1e-4)
        assert got[0] == want[0] and got[2] == want[2]
        assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("n_targets, n_weights, error", [
    (2, 2, LengthMismatchError), (4, 2, LengthMismatchError),
    (3, 1, DimensionMismatchError), (3, 3, DimensionMismatchError),
], ids=["2-targets", "4-targets", "1-weight", "3-weights"])
def test_loss_and_gradient_checks_targets_and_weights(n_targets, n_weights, error):
    """One target per row and one weight per column of a 3 x 2 matrix, or
    a typed error, not a numpy broadcast error or a silently clipped
    column id."""
    with pytest.raises(error):
        loss_and_gradient(sp.csr_matrix(np.eye(3, 2)), np.zeros(n_targets),
                          np.zeros(n_weights), 0.0, 1e-4)
