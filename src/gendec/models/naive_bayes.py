"""Multinomial naive Bayes with Laplace smoothing, in log space.

Accepts count matrices; TF-IDF input also works under the usual
multinomial-with-fractional-counts convention.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigError, SingleClassWarning
from ..name_core import Gender
from .common import MatrixLike, as_csr, check_n_features, labels_to_ints, vector


@dataclass
class NBModel:
    alpha: float
    class_log_prior: np.ndarray  # (2,)
    feature_log_prob: np.ndarray  # (2, V)
    n_features: int
    single_class: bool = False


def train_naive_bayes(
    X: MatrixLike, y: Sequence[Gender], alpha: float = 1.0
) -> NBModel:
    if alpha <= 0:
        raise ConfigError(f"alpha must be positive, got {alpha}")
    matrix = as_csr(X)
    labels = labels_to_ints(y)
    n, V = matrix.shape
    class_counts = np.array([(labels == 0).sum(), (labels == 1).sum()], dtype=np.float64)
    single_class = bool((class_counts == 0).any())
    if single_class:
        warnings.warn(
            "training labels contain a single class; predictions are constant",
            SingleClassWarning,
            stacklevel=2,
        )
    with np.errstate(divide="ignore"):
        class_log_prior = np.log(class_counts / n)
    feature_log_prob = np.zeros((2, V), dtype=np.float64)
    if V:
        for c in (0, 1):
            token_counts = np.asarray(matrix[labels == c].sum(axis=0)).ravel()
            # Single log of the smoothed ratio (not a difference of logs),
            # so genuinely tied classes score bit-identically.
            feature_log_prob[c] = np.log(
                (token_counts + alpha) / (token_counts.sum() + alpha * V)
            )
    return NBModel(
        alpha=alpha,
        class_log_prior=class_log_prior,
        feature_log_prob=feature_log_prob,
        n_features=V,
        single_class=single_class,
    )


def nb_joint_log_likelihood(model: NBModel, X: MatrixLike) -> np.ndarray:
    """Unnormalized per-class log posterior, shape (n, 2)."""
    matrix = as_csr(X)
    check_n_features(model.n_features, matrix)
    return matrix @ model.feature_log_prob.T + model.class_log_prior


def nb_proba(scores: np.ndarray) -> np.ndarray:
    """Normalize joint log likelihoods into per-row class probabilities."""
    log_norm = np.logaddexp(scores[:, 0], scores[:, 1])
    return np.exp(scores - log_norm[:, None])


def nb_params(model: NBModel) -> dict:
    return {
        "alpha": model.alpha,
        "class_log_prior": model.class_log_prior.tolist(),
        "feature_log_prob": model.feature_log_prob.tolist(),
        "single_class": model.single_class,
    }


def nb_from_params(doc: dict, n_features: int) -> NBModel:
    return NBModel(
        alpha=float(doc["alpha"]),
        class_log_prior=vector(doc["class_log_prior"], np.float64, 2),
        feature_log_prob=np.asarray(doc["feature_log_prob"], dtype=np.float64
                                    ).reshape(2, n_features),
        n_features=n_features,
        single_class=bool(doc["single_class"]),
    )
