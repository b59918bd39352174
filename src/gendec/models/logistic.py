"""Binary logistic regression trained by full-batch gradient descent.

The loss is L2-regularized mean log loss; weights and bias start at
zero, so the first recorded loss is ln 2.  The target encoding is
male = 1, female = 0; a sigmoid of exactly 0.5 predicts female.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from ..errors import ConfigError, NonFiniteError
from ..name_core import Gender
from .common import MatrixLike, as_csr, labels_to_ints, vector


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


def loss_and_gradient(
    matrix: sp.csr_matrix,
    y01: np.ndarray,
    weights: np.ndarray,
    bias: float,
    l2: float,
) -> tuple[float, np.ndarray, float]:
    """Regularized mean log loss and its analytic gradient.

    Uses log(1 + e^z) - y*z, which is stable for large |z|.  The bias is
    not regularized.
    """
    n = matrix.shape[0]
    with np.errstate(over="ignore"):  # divergence shows up as inf loss
        z = matrix @ weights + bias
        loss = float(np.mean(np.logaddexp(0.0, z) - y01 * z)) + 0.5 * l2 * float(
            weights @ weights
        )
        residual = expit(z) - y01
        grad_w = (matrix.T @ residual) / n + l2 * weights
        grad_b = float(np.mean(residual))
    return loss, np.asarray(grad_w).ravel(), grad_b


def train_logistic(
    X: MatrixLike,
    y: Sequence[Gender],
    learning_rate: float = 0.1,
    epochs: int = 200,
    l2: float = 1e-4,
) -> LRModel:
    if learning_rate <= 0:
        raise ConfigError(f"learning_rate must be positive, got {learning_rate}")
    if epochs < 1:
        raise ConfigError(f"epochs must be >= 1, got {epochs}")
    if l2 < 0:
        raise ConfigError(f"l2 must be >= 0, got {l2}")
    matrix = as_csr(X)
    y01 = labels_to_ints(y).astype(np.float64)
    weights = np.zeros(matrix.shape[1], dtype=np.float64)
    bias = 0.0
    trace: list[float] = []
    for _ in range(epochs):
        loss, grad_w, grad_b = loss_and_gradient(matrix, y01, weights, bias, l2)
        if not np.isfinite(loss):
            raise NonFiniteError(f"logistic loss diverged to {loss!r}")
        trace.append(loss)
        weights -= learning_rate * grad_w
        bias -= learning_rate * grad_b
    final_loss, _, _ = loss_and_gradient(matrix, y01, weights, bias, l2)
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
    p_male = expit(scores[:, 1] - scores[:, 0])
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
    return LRModel(
        weights=vector(doc["weights"], np.float64, n_features),
        bias=float(doc["bias"]),
        l2=float(doc["l2"]),
        learning_rate=float(doc["learning_rate"]),
        epochs=int(doc["epochs"]),
        training_trace=[float(x) for x in doc["training_trace"]],
    )
