"""Random forest: bagged CART trees with per-split feature sampling.

Each tree gets its own RNG stream derived from (seed, tree index), so
results do not depend on training order and a one-tree forest without
bootstrap or feature sampling reproduces ``train_tree`` exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import ConfigError
from ..name_core import Gender
from .common import MatrixLike, as_csr, labels_to_ints, male_wins
from .tree import (
    TreeModel,
    _grow_tree,
    tree_from_nodes,
    tree_leaf_counts,
    tree_nodes_params,
)


@dataclass
class ForestModel:
    trees: list[TreeModel]
    n_trees: int
    features_per_split: int
    bootstrap: bool
    seed: int
    max_depth: Optional[int]
    min_samples_leaf: int
    exhaust_on_miss: bool
    n_features: int


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tree_index])))


def train_forest(
    X: MatrixLike,
    y: Sequence[Gender],
    n_trees: int = 100,
    features_per_split: Optional[int] = None,
    bootstrap: bool = True,
    seed: int = 42,
    max_depth: Optional[int] = None,
    min_samples_leaf: int = 1,
    exhaust_on_miss: bool = True,
) -> ForestModel:
    """Train ``n_trees`` CART trees on bootstrap samples.

    ``features_per_split`` defaults to ceil(sqrt(V)).  When the sampled
    columns admit no valid split, ``exhaust_on_miss`` widens the search
    to every column, matching the behavior of the usual library
    implementations; set it to False for strict subset-only searches.
    """
    if n_trees < 1:
        raise ConfigError(f"n_trees must be >= 1, got {n_trees}")
    matrix = as_csr(X)
    labels = labels_to_ints(y)
    n, V = matrix.shape
    if features_per_split is None:
        features_per_split = max(1, math.isqrt(V) + (math.isqrt(V) ** 2 < V))
    if not 1 <= features_per_split <= max(V, 1):
        raise ConfigError(
            f"features_per_split must be in [1, {V}], got {features_per_split}"
        )
    trees = []
    for index in range(n_trees):
        rng = _tree_rng(seed, index)
        if bootstrap:
            sample = rng.integers(0, n, size=n)
            tree_matrix = matrix[sample]
            tree_labels = labels[sample]
        else:
            tree_matrix = matrix
            tree_labels = labels
        if features_per_split < V:
            def sampler(rng=rng):
                return np.sort(rng.choice(V, size=features_per_split, replace=False))
        else:
            sampler = None
        trees.append(
            _grow_tree(
                tree_matrix,
                tree_labels,
                max_depth,
                min_samples_leaf,
                feature_sampler=sampler,
                exhaust_on_miss=exhaust_on_miss,
            )
        )
    return ForestModel(
        trees=trees,
        n_trees=n_trees,
        features_per_split=features_per_split,
        bootstrap=bootstrap,
        seed=seed,
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        exhaust_on_miss=exhaust_on_miss,
        n_features=V,
    )


def forest_vote_counts(model: ForestModel, X: MatrixLike) -> np.ndarray:
    """Per-row (female votes, male votes) over the forest's trees."""
    matrix = as_csr(X)
    male_votes = np.zeros(matrix.shape[0], dtype=np.int64)
    for tree in model.trees:
        male_votes += male_wins(tree_leaf_counts(tree, matrix))
    female_votes = model.n_trees - male_votes
    return np.column_stack([female_votes, male_votes]).astype(np.float64)


def forest_params(model: ForestModel) -> dict:
    return {
        "n_trees": model.n_trees,
        "features_per_split": model.features_per_split,
        "bootstrap": model.bootstrap,
        "seed": model.seed,
        "max_depth": model.max_depth,
        "min_samples_leaf": model.min_samples_leaf,
        "exhaust_on_miss": model.exhaust_on_miss,
        "tree_streams": list(range(model.n_trees)),
        "trees": [tree_nodes_params(tree) for tree in model.trees],
    }


def forest_from_params(doc: dict, n_features: int) -> ForestModel:
    min_samples_leaf = int(doc["min_samples_leaf"])
    return ForestModel(
        trees=[tree_from_nodes(t, n_features, doc["max_depth"], min_samples_leaf)
               for t in doc["trees"]],
        n_trees=int(doc["n_trees"]),
        features_per_split=int(doc["features_per_split"]),
        bootstrap=bool(doc["bootstrap"]),
        seed=int(doc["seed"]),
        max_depth=doc["max_depth"],
        min_samples_leaf=min_samples_leaf,
        exhaust_on_miss=bool(doc["exhaust_on_miss"]),
        n_features=n_features,
    )
