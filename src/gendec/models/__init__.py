"""Five classical binary classifiers implemented natively.

``MODEL_KINDS`` is the one place that knows the kinds: how each trains,
its default hyperparameters, its (female, male) scores, its optional
probabilities and its model-file parameters.  Every prediction derives
from one scoring call and every tie breaks female-first (the canonical
gender order), so ``predict`` always equals the argmax of
``predict_proba`` where the latter exists.  SVM models expose no
probabilities.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Optional, Union

import numpy as np

from ..errors import ConfigError, UnsupportedModelError
from ..name_core import Gender
from . import forest, logistic, naive_bayes, svm, tree
from .common import (
    MatrixLike,
    as_csr,
    count_proba,
    ints_to_labels,
    labels_to_ints,
    linear_scores,
    male_wins,
)
from .forest import ForestModel, train_forest
from .logistic import LRModel, loss_and_gradient, train_logistic
from .naive_bayes import NBModel, train_naive_bayes
from .svm import SVMModel, hinge_loss, train_svm
from .tree import TreeModel, train_tree

TrainedModel = Union[NBModel, LRModel, TreeModel, ForestModel, SVMModel]


class ModelKind(str, Enum):
    """Classifier families, in canonical report order."""

    NB = "nb"
    LR = "lr"
    DT = "dt"
    RF = "rf"
    SVM = "svm"


@dataclass(frozen=True)
class KindSpec:
    """Everything the package does with one classifier kind."""

    model_class: type
    train: Callable[..., Any]  # train(X, y, **defaults) -> model
    defaults: dict  # hyperparameter name -> default value
    seeded: bool  # whether train also takes the run seed
    scores: Callable[[Any, MatrixLike], np.ndarray]  # (n, 2): female, male
    proba: Optional[Callable[[np.ndarray], np.ndarray]]  # scores -> probabilities
    to_params: Callable[[Any], dict]
    from_params: Callable[[dict, int], Any]  # (parameters, n_features) -> model


MODEL_KINDS: dict[ModelKind, KindSpec] = {
    ModelKind.NB: KindSpec(
        NBModel, train_naive_bayes, {"alpha": 1.0}, False,
        naive_bayes.nb_joint_log_likelihood, naive_bayes.nb_proba,
        naive_bayes.nb_params, naive_bayes.nb_from_params,
    ),
    ModelKind.LR: KindSpec(
        LRModel, train_logistic, {"learning_rate": 0.1, "epochs": 200, "l2": 1e-4},
        False, linear_scores, logistic.lr_proba, logistic.lr_params,
        logistic.lr_from_params,
    ),
    ModelKind.DT: KindSpec(
        TreeModel, train_tree, {"max_depth": None, "min_samples_leaf": 1}, False,
        tree.tree_leaf_counts, count_proba, tree.tree_params, tree.tree_from_params,
    ),
    ModelKind.RF: KindSpec(
        ForestModel, train_forest,
        {"n_trees": 100, "features_per_split": None, "bootstrap": True,
         "max_depth": None, "min_samples_leaf": 1, "exhaust_on_miss": True},
        True, forest.forest_vote_counts, count_proba, forest.forest_params,
        forest.forest_from_params,
    ),
    ModelKind.SVM: KindSpec(
        SVMModel, train_svm, {"lam": 1e-4, "epochs": 20}, True,
        linear_scores, None, svm.svm_params, svm.svm_from_params,
    ),
}

_KIND_OF_CLASS = {spec.model_class: kind for kind, spec in MODEL_KINDS.items()}


def kind_of(model: TrainedModel) -> ModelKind:
    try:
        return _KIND_OF_CLASS[type(model)]
    except KeyError:
        raise UnsupportedModelError(f"unknown model type {type(model).__name__}") from None


_KIND_NAMES = [kind.value for kind in ModelKind]
# A value must have its default's type; None defaults take integers.
_ACCEPTED = {
    bool: bool,
    int: numbers.Integral,
    float: numbers.Real,
    type(None): (numbers.Integral, type(None)),
}


def check_hyperparameters(hyperparameters: dict) -> None:
    """Raise ConfigError unless every kind, name and value type is known."""
    if not isinstance(hyperparameters, dict):
        raise ConfigError("hyperparameters must be an object keyed by model kind")
    for kind, params in hyperparameters.items():
        if kind not in _KIND_NAMES or not isinstance(params, dict):
            raise ConfigError(f"hyperparameters: {kind!r} must be one of "
                              f"{_KIND_NAMES} and map to an object")
        defaults = MODEL_KINDS[ModelKind(kind)].defaults
        for name, value in params.items():
            if name not in defaults:
                raise ConfigError(f"unknown {kind} hyperparameter {name!r}; "
                                  f"expected one of {sorted(defaults)}")
            default = defaults[name]
            if (not isinstance(value, _ACCEPTED[type(default)])
                    or isinstance(value, bool) != isinstance(default, bool)):
                raise ConfigError(f"{kind} hyperparameter {name!r} must be like "
                                  f"{default!r}, got {value!r}")


def predict_with_proba(
    model: TrainedModel, X: MatrixLike
) -> tuple[list[Gender], Optional[np.ndarray]]:
    """Labels, and probabilities where the kind has them, from one scoring call."""
    spec = MODEL_KINDS[kind_of(model)]
    scores = spec.scores(model, X)
    proba = None if spec.proba is None else spec.proba(scores)
    return ints_to_labels(male_wins(scores)), proba


def predict(model: TrainedModel, X: MatrixLike) -> list[Gender]:
    return ints_to_labels(male_wins(MODEL_KINDS[kind_of(model)].scores(model, X)))


def predict_proba(model: TrainedModel, X: MatrixLike) -> np.ndarray:
    """Per-row (P(female), P(male)); rows sum to 1."""
    spec = MODEL_KINDS[kind_of(model)]
    if spec.proba is None:
        raise UnsupportedModelError(
            f"{type(model).__name__} does not provide class probabilities"
        )
    return spec.proba(spec.scores(model, X))


def supports_proba(model: TrainedModel) -> bool:
    return MODEL_KINDS[kind_of(model)].proba is not None


__all__ = [
    "ModelKind",
    "KindSpec",
    "MODEL_KINDS",
    "NBModel",
    "LRModel",
    "TreeModel",
    "ForestModel",
    "SVMModel",
    "TrainedModel",
    "train_naive_bayes",
    "train_logistic",
    "train_tree",
    "train_forest",
    "train_svm",
    "kind_of",
    "check_hyperparameters",
    "predict",
    "predict_proba",
    "predict_with_proba",
    "supports_proba",
    "loss_and_gradient",
    "hinge_loss",
    "labels_to_ints",
    "ints_to_labels",
    "as_csr",
]
