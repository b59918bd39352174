"""CART decision tree over non-negative sparse features, Gini criterion.

The split search enumerates, per column, the midpoints between sorted
distinct values (the implicit zeros of a sparse column included) and is
fully vectorized over all candidate boundaries of a node at once.  Ties
break toward the lowest column index, then the lowest threshold.  Trees
are stored as flat parallel arrays, which keeps serialization cheap and
lets prediction route whole row sets down the tree instead of walking
row by row.

Feature values must be non-negative (count or TF-IDF weights); this is
what lets the zero group sort below every stored value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from ..errors import ConfigError
from ..name_core import Gender
from .common import MatrixLike, as_csr, check_n_features, labels_to_ints, vector

# A sampler returns the sorted candidate column ids for one split search.
FeatureSampler = Callable[[], np.ndarray]


@dataclass
class TreeModel:
    """Flat-array binary tree; feature == -1 marks a leaf."""

    feature: np.ndarray  # (nodes,) int32, -1 for leaves
    threshold: np.ndarray  # (nodes,) float64, 0.0 for leaves
    left: np.ndarray  # (nodes,) int32, -1 for leaves
    right: np.ndarray  # (nodes,) int32, -1 for leaves
    count_female: np.ndarray  # (nodes,) int64 training labels reaching the node
    count_male: np.ndarray  # (nodes,) int64
    n_features: int
    max_depth: Optional[int]
    min_samples_leaf: int

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


def _entry_arrays(matrix: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-nonzero (local row, column, value) arrays for a CSR matrix."""
    rows = np.repeat(
        np.arange(matrix.shape[0], dtype=np.int64), np.diff(matrix.indptr)
    )
    return rows, matrix.indices.astype(np.int64), matrix.data.astype(np.float64)


def _best_split(
    ec: np.ndarray,
    ev: np.ndarray,
    eg: np.ndarray,
    n: int,
    nf: int,
    nm: int,
    min_samples_leaf: int,
    allowed: Optional[np.ndarray],
) -> Optional[tuple[int, float]]:
    """Lowest-weighted-Gini (column, threshold) over all boundaries, or None.

    ec/ev/eg are the node's nonzero entries: column, value (> 0), and the
    0/1 label of the owning row.  Boundaries are evaluated in (column,
    value) order, so the first minimum realizes the documented tie-break.
    """
    if allowed is not None:
        keep = np.isin(ec, allowed)
        ec, ev, eg = ec[keep], ev[keep], eg[keep]
    if ec.size == 0:
        return None
    order = np.lexsort((ev, ec))
    c = ec[order]
    v = ev[order]
    g = eg[order]
    m = c.size

    new_col = np.empty(m, dtype=bool)
    new_col[0] = True
    np.not_equal(c[1:], c[:-1], out=new_col[1:])
    seg = np.cumsum(new_col) - 1
    starts = np.flatnonzero(new_col)
    ends = np.append(starts[1:], m)

    cum_f = np.concatenate(([0], np.cumsum(g == 0, dtype=np.int64)))
    seg_start = starts[seg]
    positions = np.arange(m, dtype=np.int64)
    prefix_f = cum_f[positions] - cum_f[seg_start]
    prefix_n = positions - seg_start
    col_f = cum_f[ends[seg]] - cum_f[seg_start]
    col_n = ends[seg] - seg_start
    zero_f = nf - col_f
    zero_n = n - col_n

    v_prev = np.empty_like(v)
    v_prev[0] = 0.0
    v_prev[1:] = v[:-1]
    zero_boundary = new_col & (zero_n > 0)
    value_boundary = ~new_col & (v != v_prev)
    candidate = zero_boundary | value_boundary

    left_f = zero_f + prefix_f
    left_n = zero_n + prefix_n
    valid = candidate & (left_n >= min_samples_leaf) & (n - left_n >= min_samples_leaf)
    idx = np.flatnonzero(valid)
    if idx.size == 0:
        return None

    lf = left_f[idx].astype(np.float64)
    ln = left_n[idx].astype(np.float64)
    lm = ln - lf
    rf = nf - lf
    rn = n - ln
    rm = rn - rf
    # n * weighted Gini; same argmin as the weighted Gini itself.
    score = (ln - (lf * lf + lm * lm) / ln) + (rn - (rf * rf + rm * rm) / rn)
    best = int(idx[int(np.argmin(score))])
    threshold = v[best] / 2.0 if new_col[best] else (v_prev[best] + v[best]) / 2.0
    return int(c[best]), float(threshold)


def _grow_tree(
    matrix: sp.csr_matrix,
    labels: np.ndarray,
    max_depth: Optional[int],
    min_samples_leaf: int,
    feature_sampler: Optional[FeatureSampler] = None,
    exhaust_on_miss: bool = True,
) -> TreeModel:
    """Depth-first growth with an explicit stack (trees can be very deep).

    When a feature sampler is given, the split search is restricted to
    its columns; if none of them yields a valid split and
    ``exhaust_on_miss`` is set, the search falls back to all columns so
    impure nodes are not stranded by an unlucky draw.
    """
    if matrix.nnz and matrix.data.min() < 0:
        raise ConfigError("tree features must be non-negative")
    n, _V = matrix.shape
    er, ec, ev = _entry_arrays(matrix)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    count_f: list[int] = []
    count_m: list[int] = []

    def new_node(nf: int, nm: int) -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        count_f.append(nf)
        count_m.append(nm)
        return len(feature) - 1

    root_nf = int((labels == 0).sum())
    root = new_node(root_nf, len(labels) - root_nf)
    # Stack entries: (node id, depth, row labels, entry rows/cols/vals).
    stack = [(root, 0, labels, er, ec, ev)]
    while stack:
        node, depth, ly, ner, nec, nev = stack.pop()
        size = len(ly)
        nf = count_f[node]
        nm = count_m[node]
        if (
            nf == 0
            or nm == 0
            or (max_depth is not None and depth >= max_depth)
            or size < 2 * min_samples_leaf
        ):
            continue
        eg = ly[ner]
        split = None
        if feature_sampler is not None:
            split = _best_split(
                nec, nev, eg, size, nf, nm, min_samples_leaf, feature_sampler()
            )
            if split is None and not exhaust_on_miss:
                continue
        if split is None:
            split = _best_split(nec, nev, eg, size, nf, nm, min_samples_leaf, None)
        if split is None:
            continue
        col, thr = split

        on_col = nec == col
        right_rows = ner[on_col][nev[on_col] > thr]
        side = np.zeros(size, dtype=bool)
        side[right_rows] = True
        n_right = int(side.sum())
        if n_right == 0 or n_right == size:
            continue  # degenerate midpoint rounding; keep the node a leaf

        left_index = np.cumsum(~side) - 1
        right_index = np.cumsum(side) - 1
        entry_side = side[ner]
        ly_left, ly_right = ly[~side], ly[side]
        nf_left = int((ly_left == 0).sum())
        nf_right = nf - nf_left

        feature[node] = col
        threshold[node] = thr
        left_id = new_node(nf_left, len(ly_left) - nf_left)
        right_id = new_node(nf_right, len(ly_right) - nf_right)
        left[node] = left_id
        right[node] = right_id
        # Push right first so the left child is processed (and draws any
        # sampled features) first: deterministic depth-first, left-first.
        stack.append(
            (
                right_id,
                depth + 1,
                ly_right,
                right_index[ner[entry_side]],
                nec[entry_side],
                nev[entry_side],
            )
        )
        stack.append(
            (
                left_id,
                depth + 1,
                ly_left,
                left_index[ner[~entry_side]],
                nec[~entry_side],
                nev[~entry_side],
            )
        )

    return TreeModel(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        count_female=np.asarray(count_f, dtype=np.int64),
        count_male=np.asarray(count_m, dtype=np.int64),
        n_features=matrix.shape[1],
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
    )


def train_tree(
    X: MatrixLike,
    y: Sequence[Gender],
    max_depth: Optional[int] = None,
    min_samples_leaf: int = 1,
) -> TreeModel:
    if max_depth is not None and max_depth < 1:
        raise ConfigError(f"max_depth must be >= 1, got {max_depth}")
    if min_samples_leaf < 1:
        raise ConfigError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
    return _grow_tree(as_csr(X), labels_to_ints(y), max_depth, min_samples_leaf)


def tree_apply(model: TreeModel, X: MatrixLike) -> np.ndarray:
    """Leaf node id per row, routing row sets down the tree."""
    matrix = as_csr(X)
    check_n_features(model.n_features, matrix)
    n = matrix.shape[0]
    out = np.zeros(n, dtype=np.int64)
    if n == 0:
        return out
    er, ec, ev = _entry_arrays(matrix)
    rows = np.arange(n, dtype=np.int64)
    stack = [(0, rows, er, ec, ev)]
    while stack:
        node, nrows, ner, nec, nev = stack.pop()
        if nrows.size == 0:
            continue
        col = model.feature[node]
        if col < 0:
            out[nrows] = node
            continue
        on_col = nec == col
        right_rows = ner[on_col][nev[on_col] > model.threshold[node]]
        side = np.zeros(nrows.size, dtype=bool)
        side[right_rows] = True
        left_index = np.cumsum(~side) - 1
        right_index = np.cumsum(side) - 1
        entry_side = side[ner]
        stack.append(
            (
                int(model.right[node]),
                nrows[side],
                right_index[ner[entry_side]],
                nec[entry_side],
                nev[entry_side],
            )
        )
        stack.append(
            (
                int(model.left[node]),
                nrows[~side],
                left_index[ner[~entry_side]],
                nec[~entry_side],
                nev[~entry_side],
            )
        )
    return out


def tree_leaf_counts(model: TreeModel, X: MatrixLike) -> np.ndarray:
    """Per-row (female, male) training counts of the reached leaf."""
    leaves = tree_apply(model, X)
    return np.column_stack(
        [model.count_female[leaves], model.count_male[leaves]]
    ).astype(np.float64)


# The flat node arrays as stored in model files, with their dtypes.
_NODE_ARRAYS = {
    "feature": np.int32,
    "threshold": np.float64,
    "left": np.int32,
    "right": np.int32,
    "count_female": np.int64,
    "count_male": np.int64,
}


def tree_nodes_params(tree: TreeModel) -> dict:
    return {name: getattr(tree, name).tolist() for name in _NODE_ARRAYS}


def tree_from_nodes(
    doc: dict, n_features: int, max_depth: Optional[int], min_samples_leaf: int
) -> TreeModel:
    n_nodes = len(doc["feature"])
    return TreeModel(
        **{name: vector(doc[name], dtype, n_nodes) for name, dtype in _NODE_ARRAYS.items()},
        n_features=n_features,
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
    )


def tree_params(model: TreeModel) -> dict:
    return {
        "max_depth": model.max_depth,
        "min_samples_leaf": model.min_samples_leaf,
        "nodes": tree_nodes_params(model),
    }


def tree_from_params(doc: dict, n_features: int) -> TreeModel:
    return tree_from_nodes(
        doc["nodes"], n_features, doc["max_depth"], int(doc["min_samples_leaf"])
    )
