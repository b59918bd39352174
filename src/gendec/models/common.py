"""Shared label and matrix plumbing for the classifier implementations."""

from __future__ import annotations

import warnings
from typing import Optional, Sequence, Union

import numpy as np

from ..errors import (
    DimensionMismatchError,
    EmptyInputError,
    LabelError,
    LengthMismatchError,
    SingleClassWarning,
    SparseFormatError,
)
from ..name_core import GENDERS, Gender
from ..vectorize import CSR, FeatureMatrix

# A FeatureMatrix, a CSR, or any CSR-shaped object such as a scipy.sparse
# csr_matrix/csr_array.
MatrixLike = Union[FeatureMatrix, CSR]
_CSR_FIELDS = ("indptr", "indices", "data", "shape")


def as_csr(X: MatrixLike) -> CSR:
    """``X`` as a checked float64 CSR, sharing its arrays when it is
    canonical: the one matrix check, where a matrix enters ``gendec.models``.

    Any object with ``indptr``, ``indices``, ``data`` and ``shape`` is read
    as CSR, so scipy matrices work without this package importing scipy; one
    that declares another ``format`` (a CSC also has ``indptr``) is refused,
    not silently read transposed.  Every CSR's fields, a package ``CSR``'s
    too, are read with ``np.asarray`` (``data`` as float64); ragged lists,
    data that is not real numbers, a shape that is not two integers, row
    pointers or column ids that are not integers, arrays that do not form
    a CSR of the given shape, or NaN or an infinity in ``data`` raise
    SparseFormatError.  A row that stores a column twice or out of order is
    made canonical: columns sorted and a column's entries summed (in stored
    order), as scipy and ``CSR.dot`` read it.  The trees rely on it: one
    value per column.
    """
    matrix = X.matrix if isinstance(X, FeatureMatrix) else X
    if not isinstance(matrix, CSR) and (
            not all(hasattr(matrix, name) for name in _CSR_FIELDS)
            or getattr(matrix, "format", "csr") != "csr"):
        raise SparseFormatError(
            f"expected a CSR matrix, got {type(matrix).__name__}"
            f" (format {getattr(matrix, 'format', None)!r})")
    fields = (matrix.indptr, matrix.indices, matrix.data)
    try:
        indptr, indices, data = (np.asarray(field) for field in fields)
    except ValueError as exc:  # ragged nested lists
        raise SparseFormatError(f"CSR fields must be flat arrays: {exc}") from None
    if data.dtype.kind not in "biuf":  # bool, integers or floats
        raise SparseFormatError(f"CSR data must be real numbers, got {data.dtype}")
    if data.dtype.kind == "f" and not np.isfinite(data).all():
        raise SparseFormatError(f"CSR data must be finite, got {data[~np.isfinite(data)][0]}")
    shape = matrix.shape
    if not (isinstance(shape, tuple) and len(shape) == 2
            and all(isinstance(n, (int, np.integer)) and n >= 0 for n in shape)):
        raise SparseFormatError(f"CSR shape must be two integers >= 0, got {shape!r}")
    arrays = (indptr, indices, data.astype(np.float64, copy=False))
    if not isinstance(matrix, CSR) or any(a is not f for a, f in zip(arrays, fields)):
        matrix = CSR(*arrays, shape=(int(shape[0]), int(shape[1])))
    _check_arrays(matrix)
    return _canonical(matrix)


def _check_arrays(matrix: CSR) -> None:
    """SparseFormatError unless ``indptr`` and ``indices`` are integers,
    ``indptr`` runs from 0 up to the entry count in ``n_rows + 1`` steps and
    every column id is in range."""
    indptr, indices = matrix.indptr, matrix.indices
    n_rows, n_cols = matrix.shape
    if not all(np.issubdtype(ids.dtype, np.integer) for ids in (indptr, indices)):
        raise SparseFormatError(f"CSR row pointers and column ids must be integers, "
                                f"got {indptr.dtype} and {indices.dtype}")
    if not (indptr.ndim == indices.ndim == matrix.data.ndim == 1
            and indptr.size == n_rows + 1 and indptr[0] == 0
            and indptr[-1] == indices.size == matrix.data.size
            and not (indptr[1:] < indptr[:-1]).any()
            and not (indices.size and (indices.min() < 0 or indices.max() >= n_cols))):
        raise SparseFormatError(
            f"CSR arrays do not form a {n_rows} x {n_cols} matrix"
            f" ({indptr.size} row pointers, {indices.size} column ids)")


def _canonical(matrix: CSR) -> CSR:
    """``matrix`` itself if every row's columns strictly increase, else a
    new CSR with each row's columns sorted and duplicates summed."""
    cols = matrix.indices
    # out_of_order[i]: entry i's column is not above entry i - 1's.  Row
    # starts are cleared (indptr[-1] is one past the last entry).
    out_of_order = np.zeros(cols.size + 1, dtype=bool)
    np.less_equal(cols[1:], cols[:-1], out=out_of_order[1:-1])
    out_of_order[matrix.indptr] = False
    if not out_of_order.any():
        return matrix
    rows = matrix.row_ids()
    order = np.lexsort((cols, rows))  # stable: duplicates keep stored order
    rows, cols = rows[order], cols[order]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    data = np.bincount(np.cumsum(first) - 1, weights=matrix.data[order])
    indptr = np.zeros_like(matrix.indptr)
    np.cumsum(np.bincount(rows[first], minlength=matrix.shape[0]), out=indptr[1:])
    return CSR(indptr=indptr, indices=cols[first], data=data, shape=matrix.shape)


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


def row_labels(matrix: CSR, y: Sequence[Gender]) -> np.ndarray:
    """``labels_to_ints(y)``: one label per row of ``matrix`` (else
    LengthMismatchError) and at least one row (else EmptyInputError)."""
    if len(y) != matrix.shape[0]:
        raise LengthMismatchError(f"{len(y)} labels for {matrix.shape[0]} matrix rows")
    if not len(y):
        raise EmptyInputError("cannot train on a matrix with no rows")
    return labels_to_ints(y)


def training_labels(matrix: CSR, y: Sequence[Gender]) -> np.ndarray:
    """``row_labels`` for a trainer; one class warns, as every kind then
    predicts it for any row."""
    labels = row_labels(matrix, y)
    if labels.min() == labels.max():
        warnings.warn("training labels contain a single class; predictions are constant",
                      SingleClassWarning, stacklevel=3)  # at the trainer's caller
    return labels


def ints_to_labels(values: np.ndarray) -> list[Gender]:
    return [GENDERS[int(v)] for v in values]


def male_wins(scores: np.ndarray) -> np.ndarray:
    """Per-row winner of (female, male) scores; ties break female-first."""
    return scores[:, 1] > scores[:, 0]


def count_proba(counts: np.ndarray) -> np.ndarray:
    """Per-row (female, male) counts as probabilities."""
    return counts / counts.sum(axis=1, keepdims=True)


def linear_scores(model, matrix: CSR) -> np.ndarray:
    """(0, w.x + b) per row for a model with ``weights`` and ``bias``, so a
    margin of exactly 0 predicts female."""
    margin = matrix.dot(model.weights) + model.bias
    return np.column_stack([np.zeros_like(margin), margin])


def vector(values, dtype, name: str, length: Optional[tuple[int, str]] = None,
           neg_inf_ok: bool = False) -> np.ndarray:
    """The finite 1-D array that the model document's list ``name`` holds,
    read as written: JSON integers for an integer ``dtype``, JSON floats
    for a float one, never a bool.  ``length``, when given, is the
    item count and what one item stands for, ``(n_inner, "inner node")``.
    Anything else, NaN or an infinity (-Infinity too, unless ``neg_inf_ok``)
    is a ValueError that names ``name``."""
    integers = np.issubdtype(dtype, np.integer)
    if not isinstance(values, list):
        raise ValueError(f"{name} must be a list, got {type(values).__name__}")
    kind = int if integers else float
    wrong = [value for value in values if type(value) is not kind]
    if wrong:
        raise ValueError(f"{name} must hold only {'integers' if integers else 'floats'}, "
                         f"got {wrong[0]!r}")
    if length is not None and len(values) != length[0]:
        count, unit = length
        raise ValueError(f"{name} must hold {count} number{'s' * (count != 1)}, "
                         f"1 per {unit}, got {len(values)}")
    array = np.array(values, dtype=dtype)
    bad = ~np.isfinite(array)
    if neg_inf_ok:
        bad &= ~np.isneginf(array)
    if bad.any():
        raise ValueError(f"{name} must hold finite numbers, got {float(array[bad][0])}")
    return array


def check_n_features(model_features: int, X: CSR) -> None:
    if X.shape[1] != model_features:
        raise DimensionMismatchError(
            f"matrix has {X.shape[1]} columns, model expects {model_features}"
        )
