"""The package's own CSR kernels against scipy.sparse, compared exactly.

Each kernel adds a row's entries in stored order, as scipy does, so every
result must equal scipy's by ``np.array_equal``, not within a tolerance.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gendec.errors import GendecError, SparseFormatError
from gendec.models import as_csr
from gendec.vectorize import (
    CSR,
    FeatureMatrix,
    TokenizerConfig,
    TokenizerMode,
    fit_vocabulary,
    transform,
)
from tests.conftest import romaji_names, traced_peak

sp = pytest.importorskip("scipy.sparse")

_values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)


@st.composite
def matrices(draw):
    """A scipy CSR of up to 7 x 6 (zero rows or columns included) with about
    half its entries zero, so empty rows are common."""
    n_rows = draw(st.integers(0, 7))
    n_cols = draw(st.integers(0, 6))
    cells = draw(st.lists(st.one_of(st.just(0.0), _values),
                          min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    return sp.csr_matrix(np.array(cells, dtype=np.float64).reshape(n_rows, n_cols))


def _own(matrix: sp.csr_matrix) -> CSR:
    return CSR(matrix.indptr, matrix.indices, matrix.data, matrix.shape)


_SETTINGS = settings(max_examples=100, deadline=None)


@_SETTINGS
@given(data=st.data(), matrix=matrices())
def test_dot_equals_scipy(data, matrix):
    n_cols = matrix.shape[1]
    w = np.array(data.draw(st.lists(_values, min_size=n_cols, max_size=n_cols)))
    W = np.array(data.draw(st.lists(_values, min_size=2 * n_cols, max_size=2 * n_cols))
                 ).reshape(n_cols, 2)
    own = _own(matrix)
    for got, want in ((own.dot(w), matrix @ w), (own.dot(W), matrix @ W),
                      (own.dot(W.T.copy().T), matrix @ W)):  # the last W is strided
        assert got.dtype == np.float64 and np.array_equal(got, want)


@_SETTINGS
@given(data=st.data(), matrix=matrices())
def test_column_sums_equal_scipy(data, matrix):
    n_rows = matrix.shape[0]
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)),
                    dtype=bool)
    expected = np.asarray(matrix[mask].sum(axis=0)).ravel()
    got = _own(matrix).column_sums(mask)
    assert got.dtype == np.float64 and np.array_equal(got, expected)


@_SETTINGS
@given(data=st.data(), matrix=matrices())
def test_take_rows_equals_scipy_with_repeats(data, matrix):
    n_rows = matrix.shape[0]
    rows = data.draw(st.lists(st.integers(0, n_rows - 1), max_size=2 * n_rows)
                     if n_rows else st.just([]))
    taken = _own(matrix).take_rows(rows)
    expected = matrix[np.array(rows, dtype=np.int64)]
    assert taken.shape == expected.shape
    assert taken.nnz == expected.nnz
    for got, want in ((taken.indptr, expected.indptr), (taken.indices, expected.indices),
                      (taken.data, expected.data)):
        assert np.array_equal(got, want)
    assert np.array_equal(taken.toarray(), expected.toarray())


@_SETTINGS
@given(matrix=matrices())
def test_toarray_and_copy_equal_scipy(matrix):
    own = _own(matrix)
    assert np.array_equal(own.toarray(), matrix.toarray())
    copied = own.copy()
    copied.data += 1.0
    assert np.array_equal(own.toarray(), matrix.toarray())
    assert own.nnz == matrix.nnz


def test_dot_checks_the_inner_dimension():
    own = _own(sp.csr_matrix(np.eye(3)))
    with pytest.raises(GendecError):
        own.dot(np.ones(2))


def test_as_csr_reads_a_scipy_csr_without_copying():
    matrix = sp.csr_matrix(np.array([[0.0, 2.0], [1.0, 0.0], [0.0, 0.0]]))
    own = as_csr(matrix)
    assert own.indptr is matrix.indptr
    assert own.indices is matrix.indices
    assert own.data is matrix.data
    assert own.shape == (3, 2)
    assert as_csr(own) is own
    assert as_csr(FeatureMatrix(own)) is own
    assert np.array_equal(as_csr(sp.csr_array(matrix)).toarray(), matrix.toarray())


@_SETTINGS
@given(data=st.data())
def test_as_csr_sorts_columns_and_sums_duplicates_as_scipy(data):
    n_rows = data.draw(st.integers(0, 6))
    n_cols = data.draw(st.integers(1, 5))
    # Quarters add exactly, so any summation order gives scipy's values.
    entry = st.tuples(st.integers(0, n_cols - 1), st.integers(-8, 8).map(lambda q: q / 4))
    batch = data.draw(st.lists(st.lists(entry, max_size=6), min_size=n_rows,
                               max_size=n_rows))
    indptr = np.cumsum([0] + [len(row) for row in batch]).astype(np.int32)
    indices = np.array([col for row in batch for col, _ in row], dtype=np.int32)
    values = np.array([value for row in batch for _, value in row], dtype=np.float64)
    matrix = sp.csr_matrix((values, indices, indptr), shape=(n_rows, n_cols))
    canonical = matrix.copy()
    canonical.sum_duplicates()
    own = as_csr(matrix)
    for got, want in ((own.indptr, canonical.indptr), (own.indices, canonical.indices),
                      (own.data, canonical.data)):
        assert np.array_equal(got, want)
    assert own.data.dtype == np.float64
    assert (own.data is matrix.data) == matrix.has_canonical_format


def test_as_csr_of_a_canonical_matrix_allocates_little():
    """Checking a canonical matrix holds at most 2 traced bytes per entry:
    one bool per entry for the finite check, then one for the column order,
    where int64 row ids and three bool masks took 11."""
    docs = romaji_names(2000, seed=35)
    X = transform(docs, fit_vocabulary(docs, TokenizerConfig(TokenizerMode.CHAR_NGRAM, 2, 4)))
    assert as_csr(X) is X.matrix
    assert traced_peak(lambda: as_csr(X)) / X.matrix.nnz <= 2


@pytest.mark.parametrize("matrix", [
    sp.csc_matrix(np.eye(2)[:, ::-1]),
    sp.coo_matrix(np.eye(2)),
    np.eye(2),
], ids=["csc", "coo", "dense"])
def test_as_csr_refuses_other_formats(matrix):
    with pytest.raises(SparseFormatError):
        as_csr(matrix)


def _arrays(indptr, indices, data, shape):
    return SimpleNamespace(indptr=np.array(indptr, dtype=np.int64),
                           indices=np.array(indices, dtype=np.int64),
                           data=np.array(data, dtype=np.float64), shape=shape)


@pytest.mark.parametrize("matrix", [
    _arrays([0, 3, 3], [1, 0], [1.0, 2.0], (2, 2)),
    _arrays([0, 2], [0, 1], [1.0, 2.0], (2, 2)),
    _arrays([], [], [], (0, 2)),
    _arrays([1, 2, 2], [0, 1], [1.0, 2.0], (2, 2)),
    _arrays([0, 2, 1, 2], [0, 1], [1.0, 2.0], (3, 2)),
    _arrays([0, 1, 2], [0, 1], [1.0], (2, 2)),
    _arrays([0, 1, 2], [0, 5], [1.0, 2.0], (2, 2)),
    _arrays([0, 1, 2], [0, -1], [1.0, 2.0], (2, 2)),
], ids=["pointer-past-entries", "too-few-rows", "no-pointers", "nonzero-start",
        "decreasing", "short-data", "column-past-shape", "negative-column"])
def test_as_csr_refuses_arrays_that_are_not_a_csr(matrix):
    with pytest.raises(SparseFormatError):
        as_csr(matrix)
