import string
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gendec.errors import ConfigError, EmptyInputError
from gendec.vectorize import (
    CSR,
    FeatureMatrix,
    TokenizerConfig,
    TokenizerMode,
    Vocabulary,
    Weighting,
    _index_dtype,
    fit_vocabulary,
    tfidf_from_counts,
    tokenize,
    transform,
)
from tests.conftest import romaji_names, traced_peak

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


@pytest.mark.parametrize("ngrams", [(2, 4), (1, 2), (2, 2)])
def test_word_tokens_take_no_ngram_range(ngrams):
    # A word tokenizer used to accept a range and ignore it: fit_vocabulary
    # then gave ('kazu', 'tamai').
    with pytest.raises(ConfigError) as refused:
        fit_vocabulary(["tamai kazu"], TokenizerConfig(TokenizerMode.WORD, *ngrams))
    assert str(refused.value) == ("a word tokenizer's ngram_min and ngram_max must be 1, "
                                  f"got {ngrams}")
    assert TokenizerConfig(TokenizerMode.WORD, 1, 1) == TokenizerConfig()


@pytest.mark.parametrize("mode", ["word", "char_ngram", "bytes"])
def test_mode_must_be_a_tokenizer_mode(mode):
    # A plain "word" used to tokenize as character n-grams.
    with pytest.raises(ConfigError) as refused:
        TokenizerConfig(mode)
    assert str(refused.value) == f"tokenizer mode must be a TokenizerMode, got {mode!r}"


def test_empty_corpus_rejected():
    with pytest.raises(EmptyInputError, match="cannot fit a vocabulary on zero documents"):
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
    with pytest.raises(ConfigError, match="vocabulary was fitted without idf weights"):
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
    norms = np.linalg.norm(X.matrix.toarray(), axis=1)
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
    assert direct.shape == split.matrix.shape
    for a, b in ((direct.data, split.matrix.data), (direct.indices, split.matrix.indices),
                 (direct.indptr, split.matrix.indptr)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    after = (counts.matrix.data, counts.matrix.indices, counts.matrix.indptr)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


# --- the numpy text path against the Counter-based code it replaced ---
# Verbatim copies of ``tokenize``, ``fit_vocabulary``, ``transform`` and
# ``tfidf_from_counts`` as they were before, except that they call each
# other instead of the package's current functions.

def extend_tokenize(text: str, config: TokenizerConfig) -> list[str]:
    if config.mode is TokenizerMode.WORD:
        return [tok for tok in text.split(" ") if tok]
    marked = text.replace(" ", "_")
    tokens = []
    for n in range(config.ngram_min, config.ngram_max + 1):
        tokens.extend(marked[i : i + n] for i in range(len(marked) - n + 1))
    return tokens


def counter_fit_vocabulary(docs, config=TokenizerConfig(), weighting=Weighting.COUNT):
    if len(docs) == 0:
        raise EmptyInputError("cannot fit a vocabulary on zero documents")
    df: Counter = Counter()
    seen: set[str] = set()
    for doc in docs:
        doc_tokens = set(extend_tokenize(doc, config))
        seen.update(doc_tokens)
        df.update(doc_tokens)
    tokens = tuple(sorted(seen))
    idf = None
    if weighting is Weighting.TFIDF:
        n = len(docs)
        idf = np.array(
            [np.log((1.0 + n) / (1.0 + df[tok])) + 1.0 for tok in tokens],
            dtype=np.float64,
        )
    return Vocabulary(tokens=tokens, tokenizer=config, idf=idf)


def counter_transform(docs, vocab, weighting=Weighting.COUNT):
    indptr = [0]
    cols: list[int] = []
    vals: list[float] = []
    index = vocab.token_to_index
    for doc in docs:
        counts: Counter = Counter()
        for token in extend_tokenize(doc, vocab.tokenizer):
            col = index.get(token)
            if col is not None:
                counts[col] += 1
        for col in sorted(counts):
            cols.append(col)
            vals.append(float(counts[col]))
        indptr.append(len(cols))
    index_dtype = _index_dtype(max(len(cols), vocab.size))
    matrix = CSR(
        indptr=np.asarray(indptr, dtype=index_dtype),
        indices=np.asarray(cols, dtype=index_dtype),
        data=np.asarray(vals, dtype=np.float64),
        shape=(len(docs), vocab.size),
    )
    counts_matrix = FeatureMatrix(matrix=matrix)
    if weighting is Weighting.COUNT:
        return counts_matrix
    return add_at_tfidf_from_counts(counts_matrix, vocab)


def add_at_tfidf_from_counts(counts, vocab):
    if vocab.idf is None:
        raise ConfigError("vocabulary was fitted without idf weights")
    matrix = counts.matrix.copy()
    if matrix.nnz:
        n_rows = matrix.shape[0]
        matrix.data *= vocab.idf[matrix.indices]
        row_ids = matrix.row_ids()
        row_norms = np.zeros(n_rows)
        np.add.at(row_norms, row_ids, matrix.data ** 2)
        row_norms = np.sqrt(row_norms)
        scale = np.ones(n_rows)
        nonzero = row_norms > 0
        scale[nonzero] = 1.0 / row_norms[nonzero]
        matrix.data *= scale[row_ids]
    return FeatureMatrix(matrix=matrix)


def assert_same_csr(new: CSR, old: CSR) -> None:
    assert new.shape == old.shape
    for a, b in ((new.indptr, old.indptr), (new.indices, old.indices),
                 (new.data, old.data)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def text_cases(draw):
    """A tokenizer (word, or char n-grams anywhere in 1-8), documents to
    fit on and documents to transform.  The small alphabets repeat tokens;
    ``c`` and ``d`` appear only in transformed documents, so some of their
    tokens are unseen; empty and all-space documents tokenize to nothing."""
    if draw(st.booleans()):
        config = TokenizerConfig()
    else:
        low = draw(st.integers(1, 8))
        config = TokenizerConfig(TokenizerMode.CHAR_NGRAM, low, draw(st.integers(low, 8)))
    fit_docs = draw(st.lists(st.text(alphabet="ab _", max_size=14), min_size=1, max_size=8))
    docs = draw(st.lists(st.text(alphabet="abcd _", max_size=14)
                         | st.sampled_from(fit_docs), max_size=8))
    return config, fit_docs, docs


@settings(max_examples=400, deadline=None)
@given(case=text_cases(), weighting=st.sampled_from(Weighting))
@example(case=(TokenizerConfig(), ["", "  "], ["a b", ""]), weighting=Weighting.TFIDF)
@example(case=(TokenizerConfig(TokenizerMode.CHAR_NGRAM, 5, 8), ["ab"], ["abcdef"]),
         weighting=Weighting.COUNT)
@example(case=(TokenizerConfig(TokenizerMode.CHAR_NGRAM, 1, 8), ["abab a", "b"], []),
         weighting=Weighting.TFIDF)
@example(case=(TokenizerConfig(), [""], []), weighting=Weighting.COUNT)
def test_text_path_equals_counter_oracle(case, weighting):
    """Vocabulary tokens, idf bytes, and the bytes and dtypes of every
    CSR array equal the old code's, with an empty vocabulary (V=0) and
    zero transformed documents among the inputs."""
    config, fit_docs, docs = case
    for doc in fit_docs + docs:
        assert tokenize(doc, config) == extend_tokenize(doc, config)
    vocab = fit_vocabulary(fit_docs, config, weighting)
    oracle = counter_fit_vocabulary(fit_docs, config, weighting)
    assert vocab.tokens == oracle.tokens
    assert vocab.token_to_index == oracle.token_to_index
    assert (vocab.idf is None) == (oracle.idf is None)
    if vocab.idf is not None:
        assert vocab.idf.dtype == oracle.idf.dtype
        assert vocab.idf.tobytes() == oracle.idf.tobytes()
    X = transform(docs, vocab, weighting)
    expected = counter_transform(docs, oracle, weighting)
    assert_same_csr(X.matrix, expected.matrix)


@st.composite
def count_matrices(draw):
    """A count matrix (empty rows likely) with arbitrary positive idf
    weights, so a row's sum of squares depends on the order it is added in."""
    n = draw(st.integers(0, 10))
    V = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dense = np.ceil(rng.random((n, V)) * 5) * (rng.random((n, V)) < draw(st.floats(0.0, 1.0)))
    rows, cols = np.nonzero(dense)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    matrix = CSR(indptr, cols.astype(np.int32), dense[rows, cols], (n, V))
    idf = np.exp(rng.normal(size=V) * draw(st.floats(0.0, 20.0)))
    vocab = Vocabulary(tokens=tuple(f"{i:02d}" for i in range(V)), tokenizer=TokenizerConfig(),
                       idf=idf)
    return FeatureMatrix(matrix=matrix), vocab


@settings(max_examples=300, deadline=None)
@given(case=count_matrices())
def test_bincount_row_norms_equal_add_at(case):
    counts, vocab = case
    assert_same_csr(tfidf_from_counts(counts, vocab).matrix,
                    add_at_tfidf_from_counts(counts, vocab).matrix)


def test_transform_peak_memory_per_token():
    """``transform`` holds at most 48 traced bytes per token occurrence at its
    peak, over what it returns too: the token list, the sorted key array and
    its run bounds, where an ``np.unique`` of the keys with its masked
    copies and ``divmod`` pair reaches about 70."""
    docs = romaji_names(2000, seed=31)
    vocab = fit_vocabulary(docs[:1500], CHAR_24)  # the rest holds unseen tokens
    n_tokens = sum(len(tokenize(doc, CHAR_24)) for doc in docs)
    vocab.token_to_index  # built once per vocabulary, before any transform
    assert traced_peak(lambda: transform(docs, vocab)) / n_tokens <= 48


def test_tfidf_peak_memory_per_entry_and_shared_index_arrays():
    """``tfidf_from_counts`` holds at most 26 traced bytes per stored entry
    at its peak, its values included: the values, the row ids and their
    squares for the row norms, where weighting a copy of the count matrix
    reached 29.  The result reads the count matrix's index arrays."""
    docs = romaji_names(2000, seed=34)
    vocab = fit_vocabulary(docs, CHAR_24, Weighting.TFIDF)
    counts = transform(docs, vocab)
    tfidf = tfidf_from_counts(counts, vocab)
    assert tfidf.matrix.indptr is counts.matrix.indptr
    assert tfidf.matrix.indices is counts.matrix.indices
    assert traced_peak(lambda: tfidf_from_counts(counts, vocab)) / counts.matrix.nnz <= 26
