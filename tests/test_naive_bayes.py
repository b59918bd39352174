import itertools
import math
import warnings

import numpy as np
import pytest

from gendec.models import NBModel, predict, predict_proba, train_naive_bayes
from gendec.models.naive_bayes import nb_from_params, nb_params
from gendec.errors import (
    ConfigError, DimensionMismatchError, NonFiniteError, SingleClassWarning,
)
from gendec.name_core import Gender
from gendec.vectorize import Weighting, fit_vocabulary, transform
from tests.conftest import brute_force_predict

sp = pytest.importorskip("scipy.sparse")

F, M = Gender.FEMALE, Gender.MALE


def test_toy_posterior():
    docs = ["a b", "a c"]
    y = [M, F]
    vocab = fit_vocabulary(docs)
    X = transform(docs, vocab)
    model = train_naive_bayes(X, y, alpha=1.0)
    assert model.class_log_prior == pytest.approx([math.log(0.5)] * 2)
    X_test = transform(["b"], vocab)
    assert predict(model, X_test) == [M]
    proba = predict_proba(model, X_test)[0]
    assert proba == pytest.approx([1 / 3, 2 / 3])


def test_balanced_classes_prior():
    X = sp.csr_matrix(np.eye(4))
    model = train_naive_bayes(X, [F, M, F, M])
    assert model.class_log_prior == pytest.approx([math.log(0.5)] * 2)


def test_all_zero_row_predicts_prior_argmax():
    X = sp.csr_matrix(np.ones((3, 2)))
    model = train_naive_bayes(X, [M, M, F])
    zero = sp.csr_matrix((1, 2))
    assert predict(model, zero) == [M]
    # Equal priors tie-break female-first.
    balanced = train_naive_bayes(sp.csr_matrix(np.ones((2, 2))), [M, F])
    assert predict(balanced, zero) == [F]


def test_feature_log_prob_rows_normalize():
    X = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]]))
    model = train_naive_bayes(X, [F, M], alpha=0.5)
    sums = np.exp(model.feature_log_prob).sum(axis=1)
    assert sums == pytest.approx([1.0, 1.0], abs=1e-9)


def test_single_class_warns_and_predicts_constant():
    X = sp.csr_matrix(np.eye(3))
    with pytest.warns(SingleClassWarning):
        model = train_naive_bayes(X, [M, M, M])
    assert model.single_class
    assert predict(model, X) == [M, M, M]
    # The flag is not stored: the loader reads it off the -Infinity prior.
    loaded = nb_from_params(nb_params(model), 3)
    assert "single_class" not in nb_params(model)
    assert loaded.single_class
    assert not train_naive_bayes(X, [M, F, M]).single_class


def test_width_comes_from_the_feature_table():
    model = NBModel(alpha=1.0, class_log_prior=np.log([0.5, 0.5]),
                    feature_log_prob=np.zeros((2, 3)))
    assert model.n_features == 3
    for width in (2, 5):
        with pytest.raises(DimensionMismatchError,
                           match=f"^matrix has {width} columns, model expects 3$"):
            predict(model, sp.csr_matrix(np.ones((1, width))))


def test_alpha_must_be_positive():
    with pytest.raises(ConfigError):
        train_naive_bayes(sp.csr_matrix(np.eye(2)), [F, M], alpha=0.0)


@pytest.mark.parametrize("alpha", [5e-324, 1.7e308])
def test_alpha_that_underflows_a_log_probability_raises(alpha):
    """A smoothed ratio that rounds to 0 (a tiny alpha over a count of 2, or
    alpha * V past the float range) has no finite log, and no loader would
    accept the model; training fails instead, with no RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="^naive Bayes feature log-probabilities "
                                                 "are not finite with alpha="):
            train_naive_bayes(sp.csr_matrix(2 * np.eye(2)), [F, M], alpha=alpha)


def test_exhaustive_small_instances_match_oracle():
    """Every corpus with <= 3 docs over 2 tokens and count values 0..2."""
    labels = (F, M)
    doc_space = list(itertools.product(range(3), repeat=2))
    checked = 0
    for n_docs in (1, 2, 3):
        for docs in itertools.product(doc_space, repeat=n_docs):
            X = sp.csr_matrix(np.array(docs, dtype=float))
            for y in itertools.product(labels, repeat=n_docs):
                if len(set(y)) == 1:
                    continue  # single-class warning path tested separately
                model = train_naive_bayes(X, list(y), alpha=1.0)
                X_test = sp.csr_matrix(np.array(doc_space, dtype=float))
                expected = brute_force_predict(
                    X.toarray(), list(y), X_test.toarray(), 1.0
                )
                assert predict(model, X_test) == expected
                checked += 1
    assert checked > 500


def test_random_instances_match_oracle():
    rng = np.random.default_rng(42)
    for _ in range(60):
        n_docs = int(rng.integers(2, 6))
        n_tokens = int(rng.integers(1, 7))
        dense = rng.integers(0, 4, size=(n_docs, n_tokens)).astype(float)
        y = [M if v else F for v in rng.integers(0, 2, size=n_docs)]
        if len(set(y)) == 1:
            y[0] = F if y[0] is M else M
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        model = train_naive_bayes(sp.csr_matrix(dense), y, alpha=alpha)
        test_dense = rng.integers(0, 4, size=(5, n_tokens)).astype(float)
        expected = brute_force_predict(dense, y, test_dense, alpha)
        assert predict(model, sp.csr_matrix(test_dense)) == expected


def test_tfidf_input_accepted():
    docs = ["aa bb", "cc dd", "aa cc"]
    vocab = fit_vocabulary(docs, weighting=Weighting.TFIDF)
    X = transform(docs, vocab, Weighting.TFIDF)
    model = train_naive_bayes(X, [F, M, F])
    assert len(predict(model, X)) == 3
