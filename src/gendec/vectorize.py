"""Count and TF-IDF featurization of name text into sparse matrices.

Word mode splits on single spaces; char_ngram mode slides n-grams over
the text with spaces replaced by the boundary marker '_'.  Vocabulary
columns are lexicographically sorted so fitted models serialize
byte-reproducibly.  TF-IDF uses the smoothed formulation
``ln((1 + N) / (1 + df)) + 1`` followed by L2 row normalization.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, EmptyCorpusError, MissingIdfError
from .name_core import json_count


class TokenizerMode(str, Enum):
    WORD = "word"
    CHAR_NGRAM = "char_ngram"


class Weighting(str, Enum):
    COUNT = "count"
    TFIDF = "tfidf"


@dataclass(frozen=True)
class TokenizerConfig:
    mode: TokenizerMode = TokenizerMode.WORD
    ngram_min: int = 1
    ngram_max: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.ngram_min <= self.ngram_max <= 8:
            raise ConfigError(
                f"need 1 <= ngram_min <= ngram_max <= 8, "
                f"got ({self.ngram_min}, {self.ngram_max})"
            )

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode.value,
            "ngram_min": self.ngram_min,
            "ngram_max": self.ngram_max,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TokenizerConfig":
        return cls(
            mode=TokenizerMode(doc["mode"]),
            ngram_min=json_count(doc["ngram_min"]),
            ngram_max=json_count(doc["ngram_max"]),
        )


def tokenize(text: str, config: TokenizerConfig) -> list[str]:
    if config.mode is TokenizerMode.WORD:
        return [tok for tok in text.split(" ") if tok]
    marked = text.replace(" ", "_")
    tokens = []
    for n in range(config.ngram_min, config.ngram_max + 1):
        tokens.extend(marked[i : i + n] for i in range(len(marked) - n + 1))
    return tokens


@dataclass(frozen=True)
class Vocabulary:
    """Token-to-column map with optional per-column idf weights."""

    tokens: tuple[str, ...]
    token_to_index: dict[str, int]
    tokenizer: TokenizerConfig
    idf: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class FeatureMatrix:
    """Sparse document-term matrix with its weighting scheme."""

    matrix: sp.csr_matrix
    weighting: Weighting

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.matrix.shape[1]


def fit_vocabulary(
    docs: Sequence[str],
    config: TokenizerConfig = TokenizerConfig(),
    weighting: Weighting = Weighting.COUNT,
) -> Vocabulary:
    """Fit the token-to-column map; compute idf when fitting for TF-IDF."""
    if len(docs) == 0:
        raise EmptyCorpusError("cannot fit a vocabulary on zero documents")
    df: Counter = Counter()
    seen: set[str] = set()
    for doc in docs:
        doc_tokens = set(tokenize(doc, config))
        seen.update(doc_tokens)
        df.update(doc_tokens)
    tokens = tuple(sorted(seen))
    token_to_index = {tok: i for i, tok in enumerate(tokens)}
    idf = None
    if weighting is Weighting.TFIDF:
        n = len(docs)
        idf = np.array(
            [np.log((1.0 + n) / (1.0 + df[tok])) + 1.0 for tok in tokens],
            dtype=np.float64,
        )
    return Vocabulary(tokens=tokens, token_to_index=token_to_index,
                      tokenizer=config, idf=idf)


def transform(
    docs: Sequence[str],
    vocab: Vocabulary,
    weighting: Weighting = Weighting.COUNT,
) -> FeatureMatrix:
    """Vectorize documents against a fitted vocabulary.

    Unseen tokens are silently dropped.  TF-IDF is ``tfidf_from_counts``
    of the count matrix.
    """
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    index = vocab.token_to_index
    for row, doc in enumerate(docs):
        counts: Counter = Counter()
        for token in tokenize(doc, vocab.tokenizer):
            col = index.get(token)
            if col is not None:
                counts[col] += 1
        for col in sorted(counts):
            rows.append(row)
            cols.append(col)
            vals.append(float(counts[col]))
    matrix = sp.csr_matrix(
        (vals, (rows, cols)), shape=(len(docs), vocab.size), dtype=np.float64
    )
    counts_matrix = FeatureMatrix(matrix=matrix, weighting=Weighting.COUNT)
    if weighting is Weighting.COUNT:
        return counts_matrix
    return tfidf_from_counts(counts_matrix, vocab)


def tfidf_from_counts(counts: FeatureMatrix, vocab: Vocabulary) -> FeatureMatrix:
    """TF-IDF of a count matrix: counts times idf, then each row L2-normalized.

    All-zero rows stay all-zero.  The result is a new matrix; ``counts`` is
    never written to, so one count matrix can serve many callers.
    """
    if vocab.idf is None:
        raise MissingIdfError("vocabulary was fitted without idf weights")
    matrix = counts.matrix.copy()
    if matrix.nnz:
        n_rows = matrix.shape[0]
        matrix.data *= vocab.idf[matrix.indices]
        row_ids = np.repeat(np.arange(n_rows), np.diff(matrix.indptr))
        row_norms = np.zeros(n_rows)
        np.add.at(row_norms, row_ids, matrix.data ** 2)
        row_norms = np.sqrt(row_norms)
        scale = np.ones(n_rows)
        nonzero = row_norms > 0
        scale[nonzero] = 1.0 / row_norms[nonzero]
        matrix.data *= scale[row_ids]
    return FeatureMatrix(matrix=matrix, weighting=Weighting.TFIDF)
