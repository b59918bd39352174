"""Count and TF-IDF featurization of name text into sparse matrices.

Word mode splits on single spaces; char_ngram mode slides n-grams over
the text with spaces replaced by the boundary marker '_'.  Vocabulary
columns are lexicographically sorted so fitted models serialize
byte-reproducibly.  TF-IDF uses the smoothed formulation
``ln((1 + N) / (1 + df)) + 1`` followed by L2 row normalization.

Python handles the tokens in one pass per document: ``fit_vocabulary``
adds one set per document to the document frequencies, and ``transform``
maps a document's tokens to column ids with one ``map``.  The rest is
numpy: one in-place sort of ``doc * V + column`` keys orders the entries
of all documents at once, and its runs of equal keys give the counts.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatchError, EmptyInputError
from .name_core import check_keys, check_values, enum_member


class TokenizerMode(str, Enum):
    WORD = "word"
    CHAR_NGRAM = "char_ngram"


class Weighting(str, Enum):
    """Feature encodings, in canonical report order."""

    COUNT = "count"
    TFIDF = "tfidf"


@dataclass(frozen=True)
class TokenizerConfig:
    mode: TokenizerMode = TokenizerMode.WORD
    ngram_min: int = 1
    ngram_max: int = 1

    def __post_init__(self) -> None:
        enum_member(TokenizerMode, self.mode, "tokenizer mode")
        check_values(ngram_min=self.ngram_min, ngram_max=self.ngram_max)
        if self.ngram_min > self.ngram_max:
            raise ConfigError("ngram_min must be <= ngram_max, "
                              f"got ({self.ngram_min}, {self.ngram_max})")
        if self.mode is TokenizerMode.WORD and self.ngram_max != 1:
            raise ConfigError("a word tokenizer's ngram_min and ngram_max must be 1, "
                              f"got ({self.ngram_min}, {self.ngram_max})")

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode.value,
            "ngram_min": self.ngram_min,
            "ngram_max": self.ngram_max,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TokenizerConfig":
        """Config from its JSON object; a missing or unknown key, or a value
        that breaks its rule, is a ConfigError (an unknown mode a ValueError)."""
        check_keys(doc, ("mode", "ngram_min", "ngram_max"))
        return cls(TokenizerMode(doc["mode"]), doc["ngram_min"], doc["ngram_max"])


def tokenize(text: str, config: TokenizerConfig) -> list[str]:
    if config.mode is TokenizerMode.WORD:
        return [tok for tok in text.split(" ") if tok]
    marked = text.replace(" ", "_")
    return [marked[i : i + n]
            for n in range(config.ngram_min, config.ngram_max + 1)
            for i in range(len(marked) - n + 1)]


@dataclass(frozen=True)
class Vocabulary:
    """Column tokens, in column order, with optional per-column idf weights.

    The tokens (a tuple or a list) are distinct strings in ascending order,
    as ``fit_vocabulary`` writes them and a model file stores them, so any
    vocabulary saves to a file that loads back; a repeated token would hide
    a column's weights from the token index.  ``idf`` is one finite float64
    weight per token.
    """

    tokens: tuple[str, ...]
    tokenizer: TokenizerConfig
    idf: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        tokens, idf = self.tokens, self.idf
        if not (isinstance(tokens, (list, tuple)) and set(map(type, tokens)) <= {str}
                and all(map(operator.lt, tokens, tokens[1:]))):
            raise ConfigError("vocabulary tokens must be distinct strings in ascending order")
        if idf is not None and not (isinstance(idf, np.ndarray) and idf.dtype == np.float64
                                    and idf.shape == (len(tokens),) and np.isfinite(idf).all()):
            raise ConfigError("vocabulary idf must be one finite float64 weight per token")

    @cached_property
    def token_to_index(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.tokens)}

    @property
    def size(self) -> int:
        return len(self.tokens)


def _index_dtype(limit: int) -> type:
    """int32 while every index and offset fits, as scipy.sparse picks."""
    return np.int32 if limit <= np.iinfo(np.int32).max else np.int64


def _sums(ids: np.ndarray, weights: np.ndarray, length: int) -> np.ndarray:
    """float64 sum of ``weights`` per id in [0, length), added in array order.

    ``np.bincount`` returns int64 zeros when ``ids`` is empty.
    """
    sums = np.bincount(ids, weights=weights, minlength=length)
    return sums.astype(np.float64, copy=False)


@dataclass(eq=False)
class CSR:
    """Compressed sparse row matrix with the few operations the models use.

    Row ``i`` holds columns ``indices[indptr[i]:indptr[i + 1]]`` with values
    ``data[indptr[i]:indptr[i + 1]]``.  Every kernel is an ``np.bincount`` /
    ``np.repeat`` over these arrays that adds the entries of a row in stored
    order, which is the order scipy.sparse adds them in, so results equal
    scipy's bit for bit.  ``scipy.sparse.csr_matrix((m.data, m.indices,
    m.indptr), shape=m.shape)`` is the same matrix, without a copy.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def row_ids(self) -> np.ndarray:
        """The row of each stored entry, int64."""
        return np.repeat(np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr))

    def copy(self) -> "CSR":
        return CSR(self.indptr.copy(), self.indices.copy(), self.data.copy(), self.shape)

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=self.data.dtype)
        np.add.at(dense, (self.row_ids(), self.indices), self.data)
        return dense

    def take_rows(self, rows) -> "CSR":
        """The rows ``rows`` (ids in [0, n_rows), repeats allowed), in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows].astype(np.int64)
        lengths = self.indptr[rows + 1] - starts
        total = int(lengths.sum())
        indptr = np.zeros(len(rows) + 1, dtype=_index_dtype(max(total, self.shape[1])))
        np.cumsum(lengths, out=indptr[1:])
        entries = np.repeat(starts - indptr[:-1], lengths) + np.arange(total)
        return CSR(indptr, self.indices[entries], self.data[entries],
                   (len(rows), self.shape[1]))

    def dot(self, w) -> np.ndarray:
        """``X @ w`` for a vector (n,) or a matrix with one row per column (n, k)."""
        w = np.asarray(w, dtype=np.float64)
        if w.shape[:1] != (self.shape[1],):
            raise DimensionMismatchError(
                f"cannot multiply a {self.shape} matrix by shape {w.shape}")
        rows = self.row_ids()
        n = self.shape[0]
        if w.ndim == 1:
            return _sums(rows, self.data * w[self.indices], n)
        products = self.data[:, None] * w[self.indices]
        out = np.empty((n, w.shape[1]))
        for k in range(w.shape[1]):
            out[:, k] = _sums(rows, products[:, k], n)
        return out

    def column_sums(self, row_mask) -> np.ndarray:
        """Per-column sum over the rows where ``row_mask`` is true."""
        keep = np.asarray(row_mask, dtype=bool)[self.row_ids()]
        return _sums(self.indices[keep], self.data[keep], self.shape[1])


@dataclass(frozen=True)
class FeatureMatrix:
    """Sparse document-term matrix."""

    matrix: CSR


def fit_vocabulary(
    docs: Sequence[str],
    config: TokenizerConfig = TokenizerConfig(),
    weighting: Weighting = Weighting.COUNT,
) -> Vocabulary:
    """Fit the token-to-column map; compute idf when fitting for TF-IDF."""
    enum_member(Weighting, weighting, "weighting")
    if len(docs) == 0:
        raise EmptyInputError("cannot fit a vocabulary on zero documents")
    df: Counter = Counter()
    for doc in docs:
        df.update(set(tokenize(doc, config)))
    tokens = tuple(sorted(df))
    idf = None
    if weighting is Weighting.TFIDF:
        n = len(docs)
        idf = np.array(
            [np.log((1.0 + n) / (1.0 + df[tok])) + 1.0 for tok in tokens],
            dtype=np.float64,
        )
    return Vocabulary(tokens=tokens, tokenizer=config, idf=idf)


def transform(
    docs: Sequence[str],
    vocab: Vocabulary,
    weighting: Weighting = Weighting.COUNT,
) -> FeatureMatrix:
    """Vectorize documents against a fitted vocabulary.

    One pass maps each document's tokens to column ids, unseen tokens to
    -1.  The ids become one int64 array of ``doc * V + column`` keys, the
    unseen ones dropped, and one in-place sort puts every row's columns in
    ascending order.  A run of equal keys is one entry, its length the
    count; ``indptr`` is where each row's first key would sort, and a key
    modulo ``V`` is its column.  Each temporary is dropped once used,
    which keeps the traced peak near 25 bytes per token, the token list
    included.  TF-IDF is ``tfidf_from_counts`` of the count matrix.
    """
    enum_member(Weighting, weighting, "weighting")
    index = vocab.token_to_index
    V = vocab.size
    cols: list[int] = []
    lengths: list[int] = []
    for doc in docs:
        tokens = tokenize(doc, vocab.tokenizer)
        lengths.append(len(tokens))
        cols.extend(map(index.get, tokens, repeat(-1)))
    n = len(docs)
    keys = np.array(cols, dtype=np.int64)
    del cols
    known = keys >= 0
    keys += np.repeat(np.arange(n, dtype=np.int64) * V, lengths)
    keys = keys[known]
    del known
    keys.sort()
    # Run bounds: each run's first key, then one past the last key.
    bounds = np.ones(keys.size + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=bounds[1:-1])
    bounds = np.flatnonzero(bounds)
    keys = keys[bounds[:-1]]
    data = np.empty(keys.size, dtype=np.float64)
    np.subtract(bounds[1:], bounds[:-1], out=data)
    del bounds
    index_dtype = _index_dtype(max(keys.size, V))
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * V)
    np.remainder(keys, V, out=keys)  # empty when V is 0
    matrix = CSR(
        indptr=indptr.astype(index_dtype),
        indices=keys.astype(index_dtype),
        data=data,
        shape=(n, V),
    )
    counts_matrix = FeatureMatrix(matrix=matrix)
    if weighting is Weighting.COUNT:
        return counts_matrix
    return tfidf_from_counts(counts_matrix, vocab)


def tfidf_from_counts(counts: FeatureMatrix, vocab: Vocabulary) -> FeatureMatrix:
    """TF-IDF of a count matrix: counts times idf, then each row L2-normalized.

    All-zero rows stay all-zero.  The result is a new matrix; ``counts`` is
    never written to, so one count matrix can serve many callers.
    """
    if vocab.idf is None:
        raise ConfigError("vocabulary was fitted without idf weights")
    matrix = counts.matrix.copy()
    if matrix.nnz:
        n_rows = matrix.shape[0]
        matrix.data *= vocab.idf[matrix.indices]
        row_ids = matrix.row_ids()
        row_norms = np.sqrt(_sums(row_ids, matrix.data ** 2, n_rows))
        scale = np.ones(n_rows)
        nonzero = row_norms > 0
        scale[nonzero] = 1.0 / row_norms[nonzero]
        matrix.data *= scale[row_ids]
    return FeatureMatrix(matrix=matrix)
