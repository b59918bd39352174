"""Linear SVM trained with the Pegasos stochastic subgradient method.

Hinge loss with L2 regularization; labels map female -> -1, male -> +1.
The learning rate is 1/(lambda * t) and the weight vector is kept as a
scale factor times an unscaled accumulator so the per-step shrink is
O(1).  The bias is updated by the subgradient but not regularized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigError, NonFiniteError
from ..name_core import Gender
from .common import MatrixLike, as_csr, labels_to_ints, vector


@dataclass
class SVMModel:
    weights: np.ndarray
    bias: float
    lam: float
    epochs: int
    seed: int

    @property
    def n_features(self) -> int:
        return len(self.weights)


def hinge_loss(
    weights: np.ndarray, bias: float, X: MatrixLike, y: Sequence[Gender]
) -> float:
    """Mean hinge loss max(0, 1 - y*(w.x + b)) without the L2 term."""
    matrix = as_csr(X)
    signs = np.where(labels_to_ints(y) == 1, 1.0, -1.0)
    margins = signs * (np.asarray(matrix @ weights).ravel() + bias)
    return float(np.mean(np.maximum(0.0, 1.0 - margins)))


def train_svm(
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
    signs = np.where(labels_to_ints(y) == 1, 1.0, -1.0)
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


def svm_params(model: SVMModel) -> dict:
    return {
        "weights": model.weights.tolist(),
        "bias": model.bias,
        "lambda": model.lam,
        "epochs": model.epochs,
        "seed": model.seed,
    }


def svm_from_params(doc: dict, n_features: int) -> SVMModel:
    return SVMModel(
        weights=vector(doc["weights"], np.float64, n_features),
        bias=float(doc["bias"]),
        lam=float(doc["lambda"]),
        epochs=int(doc["epochs"]),
        seed=int(doc["seed"]),
    )
