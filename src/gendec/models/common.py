"""Shared label and matrix plumbing for the classifier implementations."""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from ..errors import DimensionMismatchError, LabelError
from ..name_core import GENDERS, Gender
from ..vectorize import FeatureMatrix

MatrixLike = Union[FeatureMatrix, sp.csr_matrix]


def as_csr(X: MatrixLike) -> sp.csr_matrix:
    matrix = X.matrix if isinstance(X, FeatureMatrix) else X
    return sp.csr_matrix(matrix, dtype=np.float64)


def labels_to_ints(y: Sequence[Gender]) -> np.ndarray:
    """Encode labels as int8: female -> 0, male -> 1."""
    out = np.empty(len(y), dtype=np.int8)
    for i, label in enumerate(y):
        if label is Gender.FEMALE:
            out[i] = 0
        elif label is Gender.MALE:
            out[i] = 1
        else:
            raise LabelError(f"labels must be Gender values, got {label!r}")
    return out


def ints_to_labels(values: np.ndarray) -> list[Gender]:
    return [GENDERS[int(v)] for v in values]


def male_wins(scores: np.ndarray) -> np.ndarray:
    """Per-row winner of (female, male) scores; ties break female-first."""
    return scores[:, 1] > scores[:, 0]


def count_proba(counts: np.ndarray) -> np.ndarray:
    """Per-row (female, male) counts as probabilities."""
    return counts / counts.sum(axis=1, keepdims=True)


def linear_scores(model, X: MatrixLike) -> np.ndarray:
    """(0, w.x + b) per row for a model with ``weights`` and ``bias``, so a
    margin of exactly 0 predicts female."""
    matrix = as_csr(X)
    check_n_features(model.n_features, matrix)
    margin = np.asarray(matrix @ model.weights).ravel() + model.bias
    return np.column_stack([np.zeros_like(margin), margin])


def vector(values, dtype, length: Optional[int] = None) -> np.ndarray:
    """A 1-D array read from a model document; any other shape is a ValueError."""
    array = np.asarray(values, dtype=dtype)
    if array.ndim != 1 or (length is not None and array.size != length):
        raise ValueError(f"expected a flat list of numbers, got shape {array.shape}")
    return array


def check_n_features(model_features: int, X: sp.csr_matrix) -> None:
    if X.shape[1] != model_features:
        raise DimensionMismatchError(
            f"matrix has {X.shape[1]} columns, model expects {model_features}"
        )
