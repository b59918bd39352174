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
from ..name_core import Gender, check_keys, check_values, seeded_rng
from ..vectorize import CSR
from .common import MatrixLike, as_csr, training_labels
from .tree import TreeModel, _grow_tree, exit_leaves, tree_from_nodes, tree_nodes_params


@dataclass
class ForestModel:
    trees: list[TreeModel]
    features_per_split: int
    bootstrap: bool
    seed: int
    max_depth: Optional[int]
    min_samples_leaf: int
    n_features: int

    @property
    def n_trees(self) -> int:
        return len(self.trees)


def train_forest(
    X: MatrixLike,
    y: Sequence[Gender],
    n_trees: int = 100,
    features_per_split: Optional[int] = None,
    bootstrap: bool = True,
    seed: int = 42,
    max_depth: Optional[int] = None,
    min_samples_leaf: int = 1,
) -> ForestModel:
    """Train ``n_trees`` CART trees on bootstrap samples.

    ``features_per_split`` defaults to ceil(sqrt(V)).  When the sampled
    columns admit no valid split, the search widens to every column.
    """
    check_values(n_trees=n_trees, features_per_split=features_per_split,
                 bootstrap=bootstrap, seed=seed, max_depth=max_depth,
                 min_samples_leaf=min_samples_leaf)
    matrix = as_csr(X)
    labels = training_labels(matrix, y)
    n, V = matrix.shape
    if features_per_split is None:
        features_per_split = max(1, math.isqrt(V) + (math.isqrt(V) ** 2 < V))
    if features_per_split > max(V, 1):
        raise ConfigError(
            f"features_per_split must be in [1, {V}], got {features_per_split}"
        )
    trees = []
    for index in range(n_trees):
        rng = seeded_rng(seed, index)
        if bootstrap:
            sample = rng.integers(0, n, size=n)
            tree_matrix = matrix.take_rows(sample)
            tree_labels = labels[sample]
        else:
            tree_matrix = matrix
            tree_labels = labels
        if features_per_split < V:
            def sampler(rng=rng):
                return np.sort(rng.choice(V, size=features_per_split, replace=False))
        else:
            sampler = None
        trees.append(_grow_tree(tree_matrix, tree_labels, max_depth, min_samples_leaf,
                                feature_sampler=sampler))
    return ForestModel(
        trees=trees,
        features_per_split=features_per_split,
        bootstrap=bootstrap,
        seed=seed,
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
        n_features=V,
    )


def forest_vote_counts(model: ForestModel, matrix: CSR) -> np.ndarray:
    """Per-row (female votes, male votes) over the forest's trees; a tree
    whose leaf counts tie votes female, as ``male_wins`` breaks ties."""
    male_leaf = np.concatenate([tree.count_male > tree.count_female for tree in model.trees])
    male_votes = male_leaf[exit_leaves(model.trees, matrix)].sum(axis=1)
    return np.column_stack([model.n_trees - male_votes, male_votes]).astype(np.float64)


def forest_params(model: ForestModel) -> dict:
    return {
        "features_per_split": model.features_per_split,
        "bootstrap": model.bootstrap,
        "seed": model.seed,
        "max_depth": model.max_depth,
        "min_samples_leaf": model.min_samples_leaf,
        "trees": [tree_nodes_params(tree) for tree in model.trees],
    }


def forest_from_params(doc: dict, n_features: int) -> ForestModel:
    check_keys(doc, ("features_per_split", "bootstrap", "seed", "max_depth",
                     "min_samples_leaf", "trees"))
    values = {name: doc[name] for name in ("features_per_split", "bootstrap", "seed",
                                           "max_depth", "min_samples_leaf")}
    check_values(**values)
    if values["features_per_split"] is None:
        raise ValueError("features_per_split must be the integer the forest used, got null")
    if not isinstance(doc["trees"], list) or not doc["trees"]:
        raise ValueError("trees must be a non-empty list")
    trees = [tree_from_nodes(t, n_features, values["max_depth"], values["min_samples_leaf"])
             for t in doc["trees"]]
    return ForestModel(trees=trees, n_features=n_features, **values)
