"""Binary logistic regression trained by full-batch gradient descent.

The loss is L2-regularized mean log loss; weights and bias start at
zero, so the first recorded loss is ln 2.  The target encoding is
male = 1, female = 0; a sigmoid of exactly 0.5 predicts female.

This is the one module that uses scipy, and only inside
``train_logistic``: the ~400 matrix-vector products of a fit run on a
zero-copy ``scipy.sparse.csr_matrix`` view of the CSR (several times
faster than ``np.bincount`` for this many products).  Importing the
package, scoring an lr model and every other model kind never load scipy.

The sigmoid is ``1 / (1 + exp(-z))`` with the C library's ``exp``, the
same floats as ``scipy.special.expit`` without importing scipy.special.
numpy's real ``np.exp`` cannot give it: it is a SIMD kernel that differs
from the C library's ``exp`` in the last bit of some values (about 2% on
an AVX-512 host), which would move the weights.  numpy's complex ``exp``
calls the C library's ``cexp``, whose real part for a zero imaginary part
is exactly ``exp(x)`` while ``x <= 709``; above that glibc rescales, so
those few entries go through ``math.exp``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import ConfigError, NonFiniteError
from ..name_core import Gender, check_keys, json_count
from .common import MatrixLike, as_csr, number, training_labels, vector


@dataclass
class LRModel:
    weights: np.ndarray
    bias: float
    l2: float
    learning_rate: float
    epochs: int
    training_trace: list[float] = field(default_factory=list)

    @property
    def n_features(self) -> int:
        return len(self.weights)


# Above this, glibc's cexp computes exp(x) as exp(709) * exp(x - 709).
_CEXP_EXACT_MAX = 709.0


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def sigmoid(z: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-z))`` elementwise with the C library's ``exp``; equal
    bit for bit to ``scipy.special.expit``.  Overflow gives 0, silently."""
    neg = -np.asarray(z, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        exp_neg = np.exp(neg.astype(np.complex128)).real
    large = np.flatnonzero(neg > _CEXP_EXACT_MAX)
    if large.size:
        exp_neg[large] = [_exp_or_inf(x) for x in neg[large].tolist()]
    return 1.0 / (1.0 + exp_neg)


def loss_and_gradient(
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


def train_logistic(
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
        loss, grad_w, grad_b = loss_and_gradient(matrix, y01, weights, bias, l2, transposed)
        if not np.isfinite(loss):
            raise NonFiniteError(f"logistic loss diverged to {loss!r}")
        trace.append(loss)
        weights -= learning_rate * grad_w
        bias -= learning_rate * grad_b
    final_loss, _, _ = loss_and_gradient(matrix, y01, weights, bias, l2, transposed)
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


def lr_proba(scores: np.ndarray) -> np.ndarray:
    """(P(female), P(male)) from ``linear_scores``: a sigmoid of the margin."""
    p_male = sigmoid(scores[:, 1] - scores[:, 0])
    return np.column_stack([1.0 - p_male, p_male])


def lr_params(model: LRModel) -> dict:
    return {
        "weights": model.weights.tolist(),
        "bias": model.bias,
        "l2": model.l2,
        "learning_rate": model.learning_rate,
        "epochs": model.epochs,
        "training_trace": model.training_trace,
    }


def lr_from_params(doc: dict, n_features: int) -> LRModel:
    check_keys(doc, ("weights", "bias", "l2", "learning_rate", "epochs", "training_trace"),
               error=ValueError)
    return LRModel(
        weights=vector(doc["weights"], np.float64, n_features),
        bias=number(doc["bias"]),
        l2=number(doc["l2"]),
        learning_rate=number(doc["learning_rate"]),
        epochs=json_count(doc["epochs"]),
        training_trace=vector(doc["training_trace"], np.float64).tolist(),
    )
