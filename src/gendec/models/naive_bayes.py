"""Multinomial naive Bayes with Laplace smoothing, in log space.

Accepts count matrices; TF-IDF input also works under the usual
multinomial-with-fractional-counts convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import NonFiniteError
from ..name_core import Gender, check_keys, check_values
from ..vectorize import CSR
from .common import MatrixLike, as_csr, training_labels, vector


@dataclass
class NBModel:
    alpha: float
    class_log_prior: np.ndarray  # (2,)
    feature_log_prob: np.ndarray  # (2, V)

    @property
    def single_class(self) -> bool:
        """Trained on one class: the other's log prior is -Infinity."""
        return bool(np.isneginf(self.class_log_prior).any())

    @property
    def n_features(self) -> int:
        return self.feature_log_prob.shape[1]


def train_naive_bayes(
    X: MatrixLike, y: Sequence[Gender], alpha: float = 1.0
) -> NBModel:
    check_values(alpha=alpha)
    matrix = as_csr(X)
    labels = training_labels(matrix, y)
    n, V = matrix.shape
    class_counts = np.array([(labels == 0).sum(), (labels == 1).sum()], dtype=np.float64)
    with np.errstate(divide="ignore"):
        class_log_prior = np.log(class_counts / n)
    feature_log_prob = np.zeros((2, V), dtype=np.float64)
    if V:
        for c in (0, 1):
            token_counts = matrix.column_sums(labels == c)
            # Single log of the smoothed ratio (not a difference of logs),
            # so genuinely tied classes score bit-identically.
            with np.errstate(divide="ignore"):
                feature_log_prob[c] = np.log(
                    (token_counts + alpha) / (token_counts.sum() + alpha * V)
                )
    # An alpha such as 5e-324 or 1.7e308 underflows a ratio to 0, and no
    # model file holds the log of that.
    if not np.isfinite(feature_log_prob).all():
        raise NonFiniteError(f"naive Bayes feature log-probabilities are not finite "
                             f"with alpha={alpha!r}")
    return NBModel(
        alpha=alpha,
        class_log_prior=class_log_prior,
        feature_log_prob=feature_log_prob,
    )


def nb_joint_log_likelihood(model: NBModel, matrix: CSR) -> np.ndarray:
    """Unnormalized per-class log posterior, shape (n, 2)."""
    return matrix.dot(model.feature_log_prob.T) + model.class_log_prior


def nb_proba(scores: np.ndarray) -> np.ndarray:
    """Normalize joint log likelihoods into per-row class probabilities."""
    log_norm = np.logaddexp(scores[:, 0], scores[:, 1])
    return np.exp(scores - log_norm[:, None])


def nb_params(model: NBModel) -> dict:
    return {
        "alpha": model.alpha,
        "class_log_prior": model.class_log_prior.tolist(),
        "feature_log_prob": model.feature_log_prob.tolist(),
    }


def nb_from_params(doc: dict, n_features: int) -> NBModel:
    check_keys(doc, ("alpha", "class_log_prior", "feature_log_prob"))
    check_values(alpha=doc["alpha"])
    # The class a single-class model never saw has log prior -Infinity.
    class_log_prior = vector(doc["class_log_prior"], np.float64, "class_log_prior",
                             (2, "class"), neg_inf_ok=True)
    if np.isneginf(class_log_prior).all():
        raise ValueError("at most one class log prior may be -Infinity")
    rows = doc["feature_log_prob"]
    if not (isinstance(rows, list) and len(rows) == 2):
        raise ValueError("feature_log_prob must hold 2 rows, 1 per class")
    return NBModel(
        alpha=doc["alpha"],
        class_log_prior=class_log_prior,
        feature_log_prob=np.stack([
            vector(row, np.float64, "a feature_log_prob row", (n_features, "vocabulary token"))
            for row in rows]),
    )
