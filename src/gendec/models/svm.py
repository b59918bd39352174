"""Linear SVM trained with the Pegasos stochastic subgradient method.

Hinge loss with L2 regularization; labels map female -> -1, male -> +1.
The learning rate is 1/(lambda * t) and the weight vector is kept as a
scale factor times an unscaled accumulator so the per-step shrink is
O(1).  The bias is updated by the subgradient but not regularized.

Each row's index/value views are taken once per fit, and the labels and
the visiting order are Python lists, so a step does no ``indptr`` lookups.
A step gathers ``u[cols]`` once (``take``) and reuses it for the margin
and the update (``put``).  The index views are ``intp``, sliced from one
copy of ``indices`` per fit: ``take`` and ``put`` cast an index array of
any other dtype (the package's int32 among them) on every call, which
doubles the cost of a short ``take``.  The margin stays a BLAS dot:
``ucols.dot(vals)`` calls the same ``ddot`` as ``ucols @ vals`` with less
call overhead, while a Python or ``np.add.reduceat`` sum adds in another
order and can differ in the last bit.  The margin reaches the weights
only through the ``margin < 1`` test, so such a bit seldom matters;
keeping the dot makes every step compute the same floats as before by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import NonFiniteError
from ..name_core import Gender, check_keys, check_values, seeded_rng
from .common import MatrixLike, as_csr, row_labels, training_labels, vector


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
    signs = np.where(row_labels(matrix, y) == 1, 1.0, -1.0)
    margins = signs * (matrix.dot(weights) + bias)
    return float(np.mean(np.maximum(0.0, 1.0 - margins)))


def train_svm(
    X: MatrixLike,
    y: Sequence[Gender],
    lam: float = 1e-4,
    epochs: int = 20,
    seed: int = 42,
) -> SVMModel:
    check_values(lam=lam, epochs=epochs, seed=seed)
    matrix = as_csr(X)
    signs = np.where(training_labels(matrix, y) == 1, 1.0, -1.0).tolist()
    n, V = matrix.shape
    bounds = matrix.indptr.tolist()
    indices = matrix.indices.astype(np.intp)
    rows = [(indices[start:stop], matrix.data[start:stop])
            for start, stop in zip(bounds, bounds[1:])]
    rng = seeded_rng(seed)

    u = np.zeros(V, dtype=np.float64)
    scale = 1.0
    bias = 0.0
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n).tolist():
            t += 1
            cols, vals = rows[i]
            ucols = u.take(cols)
            sign = signs[i]
            margin = sign * (scale * float(ucols.dot(vals)) + bias)
            if t > 1:
                scale *= 1.0 - 1.0 / t
            if margin < 1.0:
                eta = 1.0 / (lam * t)
                u.put(cols, ucols + (eta * sign / scale) * vals)
                bias += eta * sign
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
        "lam": model.lam,
        "epochs": model.epochs,
        "seed": model.seed,
    }


def svm_from_params(doc: dict, n_features: int) -> SVMModel:
    check_keys(doc, ("weights", "bias", "lam", "epochs", "seed"))
    check_values(bias=doc["bias"], lam=doc["lam"], epochs=doc["epochs"], seed=doc["seed"])
    return SVMModel(
        weights=vector(doc["weights"], np.float64, "weights", (n_features, "vocabulary token")),
        bias=doc["bias"],
        lam=doc["lam"],
        epochs=doc["epochs"],
        seed=doc["seed"],
    )
