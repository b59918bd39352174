"""Binary logistic regression trained by full-batch gradient descent.

The loss is L2-regularized mean log loss; weights and bias start at
zero, so the first recorded loss is ln 2.  The target encoding is
male = 1, female = 0; a sigmoid of exactly 0.5 predicts female.

A fit makes two sparse products per epoch, ``X @ w`` and ``X.T @ r``.
They run in numpy on a layout built once per fit (``_Products``) and give
scipy.sparse's floats bit for bit, because each adds the same products in
the same order from +0.0:

- scipy's ``csr_matvec`` adds a row's entries in stored order.  The
  layout is rank-major (jagged diagonal): rows ordered stably by
  decreasing length, the k-th entries of all rows stored contiguously.
  Rank k is then one in-place add over the leading rows that have a k-th
  entry, so every row still gets its entries one at a time, in order.
  ``np.add.reduceat`` and axis reductions sum pairwise and are not exact.
- ``X.T @ r`` is scipy's ``csc_matvec``, which adds into each column in
  entry order; ``np.bincount`` over the CSR's entries does the same.

The layout holds 24 bytes per stored entry beside the CSR: a column id
and a value in rank-major order for the first product, and the column
ids again as 8-byte integers for ``np.bincount``, which would otherwise
convert int32 ids on every call.  It is gathered rank by rank, with
temporaries of one row count each, so nothing else per entry is held
while it is built.  The first product's buffer holds one block of ranks
(``_BLOCK`` entries plus at most one rank), 8 bytes per entry on a
one-block matrix, and each ``X.T @ r`` allocates one 8-byte product per
entry while it runs: a fit's peak is about 40 bytes per entry beside
the CSR.

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

from ..errors import DimensionMismatchError, LengthMismatchError, NonFiniteError
from ..name_core import Gender, check_keys, check_values
from ..vectorize import CSR
from .common import MatrixLike, as_csr, training_labels, vector


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


# ``X @ w`` forms its products this many entries at a time (512 KB of
# float64), so they are added from cache: at 1.4M entries this took about
# a sixth off the product on a 2-core Xeon.  A smaller matrix is one block.
_BLOCK = 1 << 16


class _Products:
    """``X @ w`` and ``X.T @ r`` for one canonical CSR, equal bit for bit to
    scipy.sparse's (see the module docstring)."""

    def __init__(self, matrix: CSR):
        n = matrix.shape[0]
        self.shape = matrix.shape
        lengths = np.diff(matrix.indptr).astype(np.intp)
        # Rows by decreasing length, so the rows with a k-th entry come first.
        order = np.argsort(-lengths, kind="stable")
        self._position = np.empty(n, dtype=np.intp)
        self._position[order] = np.arange(n)
        rows_at_rank = n - np.cumsum(np.bincount(lengths))[:-1]  # rows longer than k
        starts = np.zeros(rows_at_rank.size, dtype=np.intp)
        np.cumsum(rows_at_rank[:-1], out=starts[1:])
        ranks = list(zip(starts.tolist(), rows_at_rank.tolist()))  # (start, count)
        # Rank by rank, the next entry of each leading row: no temporary
        # holds one item per entry.
        rank_cols = np.empty(matrix.nnz, dtype=np.intp)
        rank_data = np.empty(matrix.nnz)
        entry = matrix.indptr[order].astype(np.intp)  # each ordered row's next entry
        for start, count in ranks:
            at = entry[:count]
            rank_cols[start:start + count] = matrix.indices[at]
            rank_data[start:start + count] = matrix.data[at]
            at += 1
        self._sums = np.empty(n)
        # Blocks of whole ranks, each of _BLOCK entries or more (bar the
        # last): (column ids, values, products, [(leading sums, products
        # of one rank)]), all views made once.
        buffer = np.empty(min(matrix.nnz, _BLOCK + n))
        self._blocks = []
        first = 0
        for last, (start, count) in enumerate(ranks):
            begin, end = ranks[first][0], start + count
            if end - begin < _BLOCK and last + 1 < len(ranks):
                continue
            products = buffer[:end - begin]
            per_rank = [(self._sums[:c], products[s - begin:s - begin + c])
                        for s, c in ranks[first:last + 1]]
            self._blocks.append((rank_cols[begin:end], rank_data[begin:end], products,
                                 per_rank))
            first = last + 1
        self._lengths = lengths
        self._cols = matrix.indices.astype(np.intp)
        self._data = matrix.data

    def dot(self, w: np.ndarray) -> np.ndarray:
        """``X @ w``: each row's entries added in stored order from +0.0."""
        self._sums.fill(0.0)
        for cols, data, products, per_rank in self._blocks:
            # mode="raise" would buffer out=; the column ids are checked.
            np.take(w, cols, out=products, mode="clip")
            products *= data
            for sums, rank_products in per_rank:
                sums += rank_products
        return self._sums.take(self._position)

    def transpose_dot(self, r: np.ndarray) -> np.ndarray:
        """``X.T @ r``: each column's entries added in entry order from 0.0."""
        products = np.repeat(r, self._lengths)  # r of each entry's row
        products *= self._data
        sums = np.bincount(self._cols, weights=products, minlength=self.shape[1])
        return sums.astype(np.float64, copy=False)  # int64 when there are no entries


def loss_and_gradient(
    matrix: MatrixLike,
    y01: np.ndarray,
    weights: np.ndarray,
    bias: float,
    l2: float,
) -> tuple[float, np.ndarray, float]:
    """Regularized mean log loss and its analytic gradient for any CSR
    ``matrix`` (see ``as_csr``), one 0/1 target per row and one weight per
    column.

    Uses log(1 + e^z) - y*z, which is stable for large |z|.  The bias is
    not regularized.
    """
    matrix = as_csr(matrix)
    n_rows, n_cols = matrix.shape
    if np.shape(y01) != (n_rows,):
        raise LengthMismatchError(f"targets of shape {np.shape(y01)} for {n_rows} rows")
    if np.shape(weights) != (n_cols,):
        raise DimensionMismatchError(
            f"weights of shape {np.shape(weights)} for {n_cols} columns")
    return _loss_and_gradient(_Products(matrix), y01, weights, bias, l2)


def _loss_and_gradient(products: _Products, y01, weights, bias, l2):
    """``loss_and_gradient`` over the ``_Products`` of a checked matrix."""
    n = products.shape[0]
    with np.errstate(over="ignore"):  # divergence shows up as inf loss
        z = products.dot(weights) + bias
        loss = float(np.mean(np.logaddexp(0.0, z) - y01 * z)) + 0.5 * l2 * float(
            weights @ weights
        )
        residual = sigmoid(z) - y01
        grad_w = products.transpose_dot(residual) / n + l2 * weights
        grad_b = float(np.mean(residual))
    return loss, grad_w, grad_b


def train_logistic(
    X: MatrixLike,
    y: Sequence[Gender],
    learning_rate: float = 0.1,
    epochs: int = 200,
    l2: float = 1e-4,
) -> LRModel:
    check_values(learning_rate=learning_rate, epochs=epochs, l2=l2)
    matrix = as_csr(X)
    y01 = training_labels(matrix, y).astype(np.float64)
    products = _Products(matrix)
    weights = np.zeros(matrix.shape[1], dtype=np.float64)
    bias = 0.0
    trace: list[float] = []
    for _ in range(epochs):
        loss, grad_w, grad_b = _loss_and_gradient(products, y01, weights, bias, l2)
        if not np.isfinite(loss):
            raise NonFiniteError(f"logistic loss diverged to {loss!r}")
        trace.append(loss)
        weights -= learning_rate * grad_w
        bias -= learning_rate * grad_b
    final_loss, _, _ = _loss_and_gradient(products, y01, weights, bias, l2)
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
    check_keys(doc, ("weights", "bias", "l2", "learning_rate", "epochs", "training_trace"))
    check_values(bias=doc["bias"], l2=doc["l2"], learning_rate=doc["learning_rate"],
                 epochs=doc["epochs"])
    return LRModel(
        weights=vector(doc["weights"], np.float64, "weights", (n_features, "vocabulary token")),
        bias=doc["bias"],
        l2=doc["l2"],
        learning_rate=doc["learning_rate"],
        epochs=doc["epochs"],
        training_trace=vector(doc["training_trace"], np.float64, "training_trace").tolist(),
    )
