"""CART decision tree over non-negative sparse features, Gini criterion.

The split search enumerates, per column, the midpoints between sorted
distinct values (the implicit zeros of a sparse column included) and is
fully vectorized over all candidate boundaries of a node at once.  Ties
break toward the lowest column index, then the lowest threshold.

A tree sorts its matrix entries by (column, value) once, at the root.
Each split partitions the entries stably, so every child keeps that
order and no node sorts again.  A node on the grower's stack is only its
entries (with global row ids, by which labels are read) and its two label
counts: a canonical CSR holds a row at most once per column, so the split
column's right-going entries are the right child's rows.

In that order a column's entries at a node are one contiguous range, so
a forest's sampled columns and a split's column are found as
``np.searchsorted`` ranges, with no pass that tests every entry.  The
scan counts each boundary's right side as the rest of its column (the
column's end minus the position) and takes the right-side label counts
from one cumsum over the node's entries.

Trees are stored as flat parallel arrays, which keeps serialization
cheap and lets prediction move every row of a batch down one level per
step instead of walking row by row.  ``tree_apply`` and the scorers take
the CSR that ``as_csr`` checked and made canonical where the matrix
entered a trainer or a predict function, and check nothing again.

Feature values must be non-negative (count or TF-IDF weights); this is
what lets the zero group sort below every stored value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import ConfigError
from ..name_core import Gender, check_keys, check_values
from ..vectorize import CSR
from .common import MatrixLike, as_csr, training_labels, vector

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


def _best_split(
    c: np.ndarray,
    v: np.ndarray,
    g: np.ndarray,
    n: int,
    nf: int,
    min_samples_leaf: int,
    allowed: Optional[np.ndarray],
) -> Optional[tuple[int, float]]:
    """Lowest-weighted-Gini (column, threshold) over all boundaries, or None.

    c/v/g are the node's nonzero entries in (column, value) order: column,
    value (> 0), and the 0/1 label of the owning row.  ``allowed``, when
    given, holds sorted column ids.  A boundary sits before each entry that
    starts a column or a new value; its right side is the rest of the
    column, its left side the column's zeros and the values below.
    Boundaries are evaluated in entry order, so the first minimum realizes
    the documented tie-break.
    """
    if allowed is not None:
        # Each allowed column's entries are one range of ``c``.
        lo = c.searchsorted(allowed)
        lengths = c.searchsorted(allowed, side="right") - lo
        shift = np.repeat(lo - (lengths.cumsum() - lengths), lengths)
        take = shift + np.arange(shift.size)
        c, v, g = c[take], v[take], g[take]
    m = c.size
    if m == 0:
        return None

    # edge[p]: a column starts at entry p; edge[m] closes the last one.
    edge = np.ones(m + 1, dtype=bool)
    np.not_equal(c[1:], c[:-1], out=edge[1:m])
    new_col = edge[:m]
    candidate = np.ones(m, dtype=bool)
    np.not_equal(v[1:], v[:-1], out=candidate[1:])
    candidate |= new_col
    # The entries from a boundary to its column's end are right of it; the
    # zero boundary's left side is the column's zeros, so the
    # ``left_n >= min_samples_leaf`` test also requires one zero there.
    bounds = edge.nonzero()[0]
    ends = bounds[1:]
    right_n = ends.repeat(ends - bounds[:-1]) - np.arange(m)
    left_n = n - right_n
    valid = candidate & (left_n >= min_samples_leaf) & (right_n >= min_samples_leaf)
    idx = valid.nonzero()[0]
    if idx.size == 0:
        return None

    cum_f = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(g == 0, out=cum_f[1:])
    right_f = cum_f[idx + right_n[idx]] - cum_f[idx]
    lf = (nf - right_f).astype(np.float64)
    ln = left_n[idx].astype(np.float64)
    lm = ln - lf
    rf = nf - lf
    rn = n - ln
    rm = rn - rf
    # n * weighted Gini; same argmin as the weighted Gini itself.
    score = (ln - (lf * lf + lm * lm) / ln) + (rn - (rf * rf + rm * rm) / rn)
    best = int(idx[int(score.argmin())])
    threshold = v[best] / 2.0 if new_col[best] else (v[best - 1] + v[best]) / 2.0
    return int(c[best]), float(threshold)


def _grow_tree(
    matrix: CSR,
    labels: np.ndarray,
    max_depth: Optional[int],
    min_samples_leaf: int,
    feature_sampler: Optional[FeatureSampler] = None,
) -> TreeModel:
    """Depth-first growth with an explicit stack (trees can be very deep).

    ``matrix`` is canonical (``as_csr``'s output): one entry per (row,
    column).  When a feature sampler is given, the split search is first
    restricted to its columns; if none of them yields a valid split, it
    falls back to all columns so impure nodes are not stranded by an
    unlucky draw.
    """
    if matrix.nnz and matrix.data.min() < 0:
        raise ConfigError("tree features must be non-negative")
    # One (column, value) order for the whole tree; lexsort is stable, so
    # every child's stable partition of it is the order a per-node sort
    # would give, ties included.
    order = np.lexsort((matrix.data, matrix.indices))
    er = matrix.row_ids()[order]
    ec = matrix.indices[order].astype(np.int64)
    ev = matrix.data[order].astype(np.float64)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    count_f: list[int] = []
    count_m: list[int] = []

    def new_node(n_rows: int, n_female: int) -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        count_f.append(n_female)
        count_m.append(n_rows - n_female)
        return len(feature) - 1

    # Scratch marks of one node's right rows, cleared after each split.
    goes_right = np.zeros(labels.size, dtype=bool)
    # Stack entries: (node id, depth, entry rows/cols/vals); entry rows are
    # global row ids and index ``labels`` at every node.
    stack = [(new_node(labels.size, int(np.count_nonzero(labels == 0))), 0, er, ec, ev)]
    while stack:
        node, depth, ner, nec, nev = stack.pop()
        nf = count_f[node]
        n = nf + count_m[node]
        if (
            nf == 0
            or nf == n
            or (max_depth is not None and depth >= max_depth)
            or n < 2 * min_samples_leaf
        ):
            continue
        eg = labels[ner]
        split = None
        if feature_sampler is not None:
            split = _best_split(nec, nev, eg, n, nf, min_samples_leaf, feature_sampler())
        if split is None:
            split = _best_split(nec, nev, eg, n, nf, min_samples_leaf, None)
        if split is None:
            continue
        col, thr = split

        # The split column's entries are one range of ``nec``, with each of
        # the node's rows at most once: ``marked`` is the right child's rows.
        lo = nec.searchsorted(col)
        hi = nec.searchsorted(col, side="right")
        marked = ner[lo:hi][nev[lo:hi] > thr]
        if marked.size == 0 or marked.size == n:
            continue  # degenerate midpoint rounding; keep the node a leaf
        goes_right[marked] = True
        entry_side = goes_right[ner]
        goes_right[marked] = False

        nf_right = int(np.count_nonzero(labels[marked] == 0))
        feature[node] = col
        threshold[node] = thr
        left[node] = left_id = new_node(n - marked.size, nf - nf_right)
        right[node] = right_id = new_node(marked.size, nf_right)
        # Push right first so the left child is processed (and draws any
        # sampled features) first: deterministic depth-first, left-first.
        stack.append((right_id, depth + 1, ner[entry_side], nec[entry_side],
                      nev[entry_side]))
        stack.append((left_id, depth + 1, ner[~entry_side], nec[~entry_side],
                      nev[~entry_side]))

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
    check_values(max_depth=max_depth, min_samples_leaf=min_samples_leaf)
    matrix = as_csr(X)
    return _grow_tree(matrix, training_labels(matrix, y), max_depth, min_samples_leaf)


def tree_apply(model: TreeModel, matrix: CSR) -> np.ndarray:
    """Leaf node id per row of ``as_csr``'s output, one value per row and
    column.  Every row moves down one level per step: right when its value
    on the node's column exceeds the threshold, else left (a missing entry
    is a zero).  Rows at a leaf leave the step once they are half of it.  A
    walk longer than ``n_nodes`` steps has met a cycle and raises ValueError.
    """
    leaf = model.feature < 0
    left = np.where(leaf, np.arange(model.n_nodes), model.left)
    node = np.zeros(matrix.shape[0], dtype=np.int64)
    live = np.arange(node.size)
    rows, cols, vals = matrix.row_ids(), matrix.indices, matrix.data
    for _ in range(model.n_nodes):
        here = node[live]
        inner = ~leaf[here]
        if not inner.any():
            return node
        at = node[rows]
        if 2 * np.count_nonzero(inner) <= live.size:
            live, here = live[inner], here[inner]
            keep = ~leaf[at]
            rows, cols, vals, at = rows[keep], cols[keep], vals[keep], at[keep]
        on = np.flatnonzero(cols == model.feature[at])
        on = on[vals[on] > model.threshold[at[on]]]
        node[live] = left[here]
        node[rows[on]] = model.right[at[on]]
    raise ValueError("a tree walk passed n_nodes levels; the tree has a cycle")


def tree_leaf_counts(model: TreeModel, matrix: CSR) -> np.ndarray:
    """Per-row (female, male) training counts of the reached leaf."""
    leaves = tree_apply(model, matrix)
    return np.column_stack([model.count_female[leaves], model.count_male[leaves]]
                           ).astype(np.float64)


# The flat node arrays as stored in model files, with their dtypes; ``right``
# is not stored, as an inner node's right child is always ``left + 1``.
_NODE_ARRAYS = {
    "feature": np.int32,
    "threshold": np.float64,
    "left": np.int32,
    "count_female": np.int64,
    "count_male": np.int64,
}


def tree_nodes_params(tree: TreeModel) -> dict:
    return {name: getattr(tree, name).tolist() for name in _NODE_ARRAYS}


def tree_from_nodes(
    doc: dict, n_features: int, max_depth: Optional[int], min_samples_leaf: int
) -> TreeModel:
    """Tree from its node arrays in a model file.

    A ConfigError unless the node arrays are the known ones, and a
    ValueError unless the tree has a node, every inner node splits a known
    column and its left child comes after it with room for the right child
    (``left + 1``) below the node count, every node but the root is the
    child of exactly one node, every leaf has feature and left -1, and
    every node's (female, male) counts are non-negative with a positive
    sum.  ``_grow_tree`` appends the two children of a node back to back
    after their parent and gives each node at least one row, so a trained
    tree passes; the order also bounds ``tree_apply`` at ``n_nodes`` steps.
    ``right`` is rebuilt as ``left + 1`` at inner nodes.
    """
    check_keys(doc, tuple(_NODE_ARRAYS))
    n_nodes = len(doc["feature"])
    arrays = {name: vector(doc[name], dtype, n_nodes) for name, dtype in _NODE_ARRAYS.items()}
    if n_nodes == 0:
        raise ValueError("a tree needs at least one node")
    feature, left = arrays["feature"], arrays["left"]
    inner = feature >= 0
    if (feature[inner] >= n_features).any():
        raise ValueError(f"a node splits column {feature[inner].max()} of {n_features}")
    left_children = left[inner]
    if ((left_children <= np.flatnonzero(inner)) | (left_children >= n_nodes - 1)).any():
        raise ValueError(f"a left child id must be above its parent's and below "
                         f"{n_nodes - 1}")
    children = np.concatenate([left_children, left_children + 1])
    parent_counts = np.bincount(children, minlength=n_nodes)
    if (parent_counts[1:] != 1).any():
        raise ValueError("every node but the root must be the child of exactly one node")
    if ((feature[~inner] != -1) | (left[~inner] != -1)).any():
        raise ValueError("a leaf must have feature and left both -1")
    female, male = arrays["count_female"], arrays["count_male"]
    if ((female < 0) | (male < 0) | (female + male == 0)).any():
        raise ValueError("every node needs non-negative counts with a positive sum")
    return TreeModel(**arrays, right=np.where(inner, left + 1, -1).astype(np.int32),
                     n_features=n_features, max_depth=max_depth,
                     min_samples_leaf=min_samples_leaf)


def tree_params(model: TreeModel) -> dict:
    return {
        "max_depth": model.max_depth,
        "min_samples_leaf": model.min_samples_leaf,
        "nodes": tree_nodes_params(model),
    }


def tree_from_params(doc: dict, n_features: int) -> TreeModel:
    check_keys(doc, ("max_depth", "min_samples_leaf", "nodes"))
    check_values(max_depth=doc["max_depth"], min_samples_leaf=doc["min_samples_leaf"])
    return tree_from_nodes(doc["nodes"], n_features, doc["max_depth"],
                           doc["min_samples_leaf"])
