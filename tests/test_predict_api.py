"""Cross-model prediction contract: proba rows sum to 1, argmax equals
predict with the female-first tie rule, dimension checks."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from gendec.errors import (
    ConfigError,
    DimensionMismatchError,
    EmptyInputError,
    LengthMismatchError,
    SparseFormatError,
)
from gendec.models import (
    MODEL_KINDS,
    ModelKind,
    hinge_loss,
    predict,
    predict_proba,
    supports_proba,
    train_forest,
    train_logistic,
    train_naive_bayes,
    train_svm,
    train_tree,
)
from gendec.name_core import GENDERS, Gender
from gendec.vectorize import CSR

sp = pytest.importorskip("scipy.sparse")

F, M = Gender.FEMALE, Gender.MALE

TRAINERS = {
    "nb": lambda X, y: train_naive_bayes(X, y),
    "lr": lambda X, y: train_logistic(X, y, epochs=40),
    "dt": lambda X, y: train_tree(X, y),
    "rf": lambda X, y: train_forest(X, y, n_trees=5, seed=4),
    "svm": lambda X, y: train_svm(X, y, epochs=8, seed=4),
}


@pytest.fixture(scope="module")
def toy_data():
    rng = np.random.default_rng(17)
    dense = np.round(rng.random((30, 6)) * 2) * (rng.random((30, 6)) > 0.5)
    y = [M if b else F for b in rng.integers(0, 2, size=30)]
    return sp.csr_matrix(dense), y


@pytest.mark.parametrize("kind", list(TRAINERS))
def test_proba_rows_sum_to_one(kind, toy_data):
    X, y = toy_data
    model = TRAINERS[kind](X, y)
    if not supports_proba(model):
        pytest.skip("no probabilities for this model kind")
    proba = predict_proba(model, X)
    assert proba.shape == (30, 2)
    assert np.all(np.abs(proba.sum(axis=1) - 1.0) < 1e-9)
    assert np.all(proba >= 0.0)


@pytest.mark.parametrize("kind", list(TRAINERS))
def test_predict_is_argmax_of_proba(kind, toy_data):
    X, y = toy_data
    model = TRAINERS[kind](X, y)
    if not supports_proba(model):
        pytest.skip("no probabilities for this model kind")
    proba = predict_proba(model, X)
    expected = [GENDERS[1] if p[1] > p[0] else GENDERS[0] for p in proba]
    assert predict(model, X) == expected


@pytest.mark.parametrize("kind", list(TRAINERS))
def test_dimension_mismatch_raises(kind, toy_data):
    X, y = toy_data
    model = TRAINERS[kind](X, y)
    with pytest.raises(DimensionMismatchError):
        predict(model, sp.csr_matrix((2, 7)))


@pytest.mark.parametrize("kind", list(TRAINERS))
def test_deterministic_across_runs(kind, toy_data):
    X, y = toy_data
    a = TRAINERS[kind](X, y)
    b = TRAINERS[kind](X, y)
    assert predict(a, X) == predict(b, X)


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("n_rows, n_labels, error", [
    (3, 2, LengthMismatchError), (3, 5, LengthMismatchError), (0, 0, EmptyInputError),
], ids=["2-labels-3-rows", "5-labels-3-rows", "0-rows"])
def test_trainer_checks_labels_against_rows(kind, n_rows, n_labels, error):
    X = sp.csr_matrix(np.eye(n_rows, 2))
    y = [F, M] * 3
    with pytest.raises(error):
        MODEL_KINDS[kind].train(X, y[:n_labels])


@pytest.mark.parametrize("trainer, name", [
    (train_naive_bayes, "alpha"), (train_logistic, "learning_rate"),
    (train_logistic, "l2"), (train_svm, "lam"),
], ids=["nb-alpha", "lr-learning_rate", "lr-l2", "svm-lam"])
@pytest.mark.parametrize("value", [math.nan, math.inf], ids=str)
def test_trainer_refuses_non_finite_hyperparameter(trainer, name, value):
    """A library call is refused as an input error (exit 2 at the CLI), not
    trained into NaN parameters or reported as a numerical failure."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError):
            trainer(sp.csr_matrix(np.eye(4)), [F, M, F, M], **{name: value})


@pytest.mark.parametrize("trainer, name, value", [
    (train_tree, "max_depth", math.nan), (train_tree, "max_depth", 2.5),
    (train_tree, "min_samples_leaf", math.nan), (train_tree, "min_samples_leaf", 1.5),
    (train_logistic, "epochs", math.nan), (train_logistic, "epochs", 2.5),
    (train_svm, "epochs", math.nan), (train_forest, "n_trees", math.nan),
    (train_forest, "features_per_split", 1.5), (train_forest, "max_depth", 2.5),
], ids=["dt-max_depth-nan", "dt-max_depth-2.5", "dt-min_samples_leaf-nan",
        "dt-min_samples_leaf-1.5", "lr-epochs-nan", "lr-epochs-2.5", "svm-epochs-nan",
        "rf-n_trees-nan", "rf-features_per_split-1.5", "rf-max_depth-2.5"])
def test_trainer_refuses_non_integer_hyperparameter(trainer, name, value):
    """An integer hyperparameter given as NaN or a fraction is refused as an
    input error, not trained or left to fail inside the loop."""
    with pytest.raises(ConfigError, match=name):
        trainer(sp.csr_matrix(np.eye(4)), [F, M, F, M], **{name: value})


def test_hinge_loss_checks_labels_against_rows():
    with pytest.raises(LengthMismatchError):
        hinge_loss(np.zeros(2), 0.0, sp.csr_matrix(np.eye(3, 2)), [F, M])


def test_hinge_loss_on_one_class_does_not_warn():
    """hinge_loss scores labels; only a trainer warns about a single class."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hinge_loss(np.zeros(2), 0.0, sp.csr_matrix(np.eye(2)), [M, M]) == 1.0


# CSRs whose fields do not form a 2 x 3 matrix: arrays that break its
# layout, lists (read as arrays), and row pointers or column ids that are
# not integers, in a package CSR and in a foreign one.
MALFORMED_CSRS = {
    "column-out-of-range": CSR(indptr=np.array([0, 1, 2]), indices=np.array([0, 7]),
                               data=np.ones(2), shape=(2, 3)),
    "indptr-short-of-nnz": CSR(indptr=np.array([0, 1, 1]), indices=np.array([0, 2]),
                               data=np.ones(2), shape=(2, 3)),
    "lists-column-out-of-range": CSR(indptr=[0, 1, 2], indices=[0, 7], data=[1.0, 1.0],
                                     shape=(2, 3)),
    **{f"{holder.__name__.lower()}-float-{field}": holder(
        indptr=np.array([0, 1, 2], dtype=np.float64 if field == "indptr" else np.int64),
        indices=np.array([0, 2], dtype=np.float64 if field == "indices" else np.int64),
        data=np.ones(2), shape=(2, 3))
       for holder in (CSR, SimpleNamespace) for field in ("indptr", "indices")},
    "lists-string-data": CSR(indptr=[0, 1, 2], indices=[0, 2], data=["a", "b"],
                             shape=(2, 3)),
    "lists-ragged-data": CSR(indptr=[0, 1, 2], indices=[0, 2], data=[[1.0], [1.0, 2.0]],
                             shape=(2, 3)),
    "simplenamespace-3d-shape": SimpleNamespace(indptr=np.array([0, 1, 2]),
                                                indices=np.array([0, 2]), data=np.ones(2),
                                                shape=(2, 3, 1)),
    "csr-1d-shape": CSR(indptr=np.array([0, 1, 2]), indices=np.array([0, 2]),
                        data=np.ones(2), shape=(2,)),
    # Not read into a 1-node tree, a skipped svm row, NaN probabilities or a
    # fit that seems to diverge.
    **{f"{holder.__name__.lower()}-{value}-data": holder(
        indptr=np.array([0, 1, 2]), indices=np.array([0, 2]), data=np.array([1.0, value]),
        shape=(2, 3))
       for holder in (CSR, SimpleNamespace) for value in (math.nan, math.inf, -math.inf)},
}


@pytest.mark.parametrize("kind", list(TRAINERS))
@pytest.mark.parametrize("malformed", list(MALFORMED_CSRS))
def test_package_csr_is_checked_like_a_foreign_one(kind, malformed):
    """Each trainer and ``predict`` refuse a malformed CSR, a package one as
    they do the same arrays in a foreign one, not with a raw numpy error or
    a silent result."""
    X = MALFORMED_CSRS[malformed]
    with pytest.raises(SparseFormatError):
        TRAINERS[kind](X, [F, M])
    model = TRAINERS[kind](sp.csr_matrix(np.eye(2, 3)), [F, M])
    with pytest.raises(SparseFormatError):
        predict(model, X)


@pytest.mark.parametrize("kind", list(TRAINERS))
def test_package_csr_with_list_fields_reads_as_arrays(kind):
    """A package CSR's fields are read with ``np.asarray``, as a foreign
    CSR's are, so lists give the model and predictions of the arrays."""
    lists = CSR(indptr=[0, 1, 2], indices=[0, 2], data=[1.0, 1.0], shape=(2, 3))
    arrays = sp.csr_matrix((np.ones(2), [0, 2], [0, 1, 2]), shape=(2, 3))
    model = TRAINERS[kind](lists, [F, M])
    to_params = MODEL_KINDS[ModelKind(kind)].to_params
    assert to_params(model) == to_params(TRAINERS[kind](arrays, [F, M]))
    assert predict(model, lists) == predict(model, arrays) == [F, M]
