import string
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gendec.errors import ConfigError, EmptyCorpusError, MissingIdfError
from gendec.vectorize import (
    TokenizerConfig,
    TokenizerMode,
    Weighting,
    fit_vocabulary,
    tfidf_from_counts,
    tokenize,
    transform,
)
from tests.conftest import to_scipy

CHAR_24 = TokenizerConfig(mode=TokenizerMode.CHAR_NGRAM, ngram_min=2, ngram_max=4)


def test_word_tokens_sorted_into_vocabulary():
    vocab = fit_vocabulary(["tamai kazuyoshi", "iwama satoko"])
    assert vocab.tokens == ("iwama", "kazuyoshi", "satoko", "tamai")
    assert vocab.token_to_index == {"iwama": 0, "kazuyoshi": 1, "satoko": 2, "tamai": 3}


def test_idf_token_in_every_doc_is_one():
    vocab = fit_vocabulary(["a"], weighting=Weighting.TFIDF)
    assert vocab.tokens == ("a",)
    assert vocab.idf[0] == pytest.approx(1.0)


def test_char_bigram_single_token():
    vocab = fit_vocabulary(["ab"], TokenizerConfig(TokenizerMode.CHAR_NGRAM, 2, 2))
    assert vocab.tokens == ("ab",)


def test_char_ngrams_cover_space_marker():
    tokens = tokenize("ab cd", TokenizerConfig(TokenizerMode.CHAR_NGRAM, 2, 2))
    assert tokens == ["ab", "b_", "_c", "cd"]


def test_ngram_bounds_validated():
    with pytest.raises(ConfigError):
        TokenizerConfig(TokenizerMode.CHAR_NGRAM, 0, 2)
    with pytest.raises(ConfigError):
        TokenizerConfig(TokenizerMode.CHAR_NGRAM, 3, 2)
    with pytest.raises(ConfigError):
        TokenizerConfig(TokenizerMode.CHAR_NGRAM, 2, 9)


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpusError):
        fit_vocabulary([])


def test_count_transform_reference_doc():
    vocab = fit_vocabulary(["tamai kazuyoshi", "iwama satoko"])
    X = transform(["tamai kazuyoshi"], vocab)
    assert X.matrix.toarray().tolist() == [[0.0, 1.0, 0.0, 1.0]]


def test_full_oov_row_is_zero():
    vocab = fit_vocabulary(["tamai kazuyoshi", "iwama satoko"])
    X = transform(["unknownname"], vocab)
    assert X.matrix.nnz == 0


def test_tfidf_equal_weights_normalize():
    vocab = fit_vocabulary(
        ["tamai kazuyoshi", "iwama satoko"], weighting=Weighting.TFIDF
    )
    X = transform(["tamai kazuyoshi"], vocab, Weighting.TFIDF)
    row = X.matrix.toarray()[0]
    expected = 1.0 / np.sqrt(2.0)
    assert row == pytest.approx([0.0, expected, 0.0, expected])


def test_tfidf_requires_idf():
    vocab = fit_vocabulary(["a b"])
    with pytest.raises(MissingIdfError):
        transform(["a"], vocab, Weighting.TFIDF)


def _count_oracle(docs, vocab):
    """Naive per-document token counting."""
    dense = np.zeros((len(docs), vocab.size))
    for i, doc in enumerate(docs):
        for token, count in Counter(tokenize(doc, vocab.tokenizer)).items():
            if token in vocab.token_to_index:
                dense[i, vocab.token_to_index[token]] = count
    return dense


@pytest.mark.parametrize("config", [TokenizerConfig(), CHAR_24])
def test_count_matches_oracle_on_random_strings(config):
    rng = np.random.default_rng(123)
    alphabet = list(string.ascii_lowercase[:6]) + [" "]
    docs = [
        "".join(rng.choice(alphabet, size=rng.integers(1, 14)))
        for _ in range(300)
    ]
    vocab = fit_vocabulary(docs, config)
    X = transform(docs, vocab)
    assert np.array_equal(X.matrix.toarray(), _count_oracle(docs, vocab))


def test_tfidf_rows_unit_norm(synthetic_corpus):
    docs = [r.romaji.lower() for r in synthetic_corpus[:400]]
    vocab = fit_vocabulary(docs, weighting=Weighting.TFIDF)
    X = transform(docs, vocab, Weighting.TFIDF)
    matrix = to_scipy(X.matrix)
    norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
    assert np.all(np.abs(norms - 1.0) < 1e-9)


def test_fit_transform_no_zero_rows_when_docs_tokenize():
    docs = ["aa bb", "cc", "aa"]
    vocab = fit_vocabulary(docs)
    X = transform(docs, vocab)
    assert np.all(np.diff(X.matrix.indptr) > 0)


def test_row_permutation_permutes_rows():
    docs = ["aa bb", "cc dd", "aa cc", "bb"]
    vocab = fit_vocabulary(docs)
    base = transform(docs, vocab).matrix.toarray()
    perm = [2, 0, 3, 1]
    permuted = transform([docs[i] for i in perm], vocab).matrix.toarray()
    assert np.array_equal(permuted, base[perm])


def test_column_order_stable_across_runs():
    docs = ["b a", "c a"]
    assert fit_vocabulary(docs).tokens == fit_vocabulary(list(docs)).tokens == ("a", "b", "c")


@given(st.lists(st.text(alphabet="abc ", min_size=1, max_size=10), min_size=1, max_size=8))
def test_count_entries_are_integers(docs):
    vocab = fit_vocabulary(docs)
    X = transform(docs, vocab)
    assert np.array_equal(X.matrix.data, np.round(X.matrix.data))


_DOCS = st.lists(st.text(alphabet="abc d", max_size=12), min_size=1, max_size=10)


@given(fit_docs=_DOCS, docs=_DOCS, char=st.booleans())
def test_tfidf_is_tfidf_from_counts_and_leaves_counts_alone(fit_docs, docs, char):
    """``transform(TFIDF)`` is ``tfidf_from_counts`` of ``transform(COUNT)``,
    array for array, and the count matrix is not written to; unseen tokens
    and empty docs give all-zero rows."""
    vocab = fit_vocabulary(fit_docs, CHAR_24 if char else TokenizerConfig(), Weighting.TFIDF)
    counts = transform(docs, vocab, Weighting.COUNT)
    before = [a.copy() for a in (counts.matrix.data, counts.matrix.indices,
                                 counts.matrix.indptr)]
    direct = transform(docs, vocab, Weighting.TFIDF).matrix
    split = tfidf_from_counts(counts, vocab)
    assert split.weighting is Weighting.TFIDF
    assert direct.shape == split.matrix.shape
    for a, b in ((direct.data, split.matrix.data), (direct.indices, split.matrix.indices),
                 (direct.indptr, split.matrix.indptr)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    after = (counts.matrix.data, counts.matrix.indices, counts.matrix.indptr)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
