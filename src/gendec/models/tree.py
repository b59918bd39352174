"""CART decision tree over non-negative sparse features, Gini criterion.

The split search enumerates, per column, the midpoints between sorted
distinct values (the implicit zeros of a sparse column included) and is
fully vectorized over all candidate boundaries of a node at once.  Ties
break toward the lowest column index, then the lowest threshold.

A tree sorts its matrix entries by (column, value) once, at the root,
and keeps that one order for the whole tree, as SLIQ's class list does
(Mehta, Agrawal & Rissanen, EDBT 1996): a row-to-slot table names the
node that holds each row, and a node's entries are the root's entries
whose row is in its slot, in the root's order, ties included.  A node on
the grower's stack is numbers only: its depth, its row, female and entry
counts, its slot, and a range of ascending entry positions that holds its
entries among at most as many of other nodes'.  A node that holds fewer
than half of its range copies its own positions past the range and reads
only them from then on, so a search reads at most twice the node's
entries and a larger child reads its parent's range without a copy.  A
split moves only the right child's rows to a fresh slot; a canonical CSR
holds a row at most once per column, so those rows are the node's
entries above the threshold in the split column.

In that order a column's entries are one contiguous range, found through
a column pointer, so a node finds a forest's sampled columns and a
split's column in its range by binary search, with no pass over its
other entries.  The scan counts each boundary's right side as the rest
of its column (the column's end minus the position) and takes the
right-side label counts from one cumsum over the node's entries.

A tree holds what its model file stores: ``feature`` per node (-1 at a
leaf), ``threshold`` per inner node and the label counts per leaf.  Node
ids are depth-first pre-order (the grower numbers a node when it pops
it, left child first), so an inner node's left child is the next id, its
subtree is one contiguous id range, and the leaves in id order run left
to right.  ``exit_leaves`` scores the CSR that ``as_csr`` checked and
made canonical, feature-major and in a fixed number of vectorized passes
whatever the depth, and checks nothing again.

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
    """Binary tree with node ids in depth-first pre-order, held as the
    arrays its model file stores."""

    feature: np.ndarray  # (nodes,) int32 split column, -1 at a leaf
    threshold: np.ndarray  # (inner nodes,) float64, in id order
    count_female: np.ndarray  # (leaves,) int64 training labels, left to right
    count_male: np.ndarray  # (leaves,) int64
    n_features: int
    max_depth: Optional[int]
    min_samples_leaf: int

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    # Child ids (-1 at a leaf) derived on each read, for ``bench/traced.py``.
    @property
    def left(self) -> np.ndarray:
        return np.where(self.feature >= 0, np.arange(1, self.n_nodes + 1), -1).astype(np.int32)

    @property
    def right(self) -> np.ndarray:
        ends = np.append(_subtree_ends(self.feature)[1:], -1)
        return np.where(self.feature >= 0, ends, -1).astype(np.int32)


def _ranges(lo: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Every position of the ranges ``lo[i]:lo[i] + lengths[i]``, range by
    range."""
    return np.repeat(lo - (lengths.cumsum() - lengths), lengths) + np.arange(lengths.sum())


def _best_split(
    c: np.ndarray,
    v: np.ndarray,
    g: np.ndarray,
    n: int,
    nf: int,
    min_samples_leaf: int,
) -> Optional[tuple[int, float]]:
    """Lowest-weighted-Gini (column, threshold) over all boundaries, or None.

    c/v/g are the node's nonzero entries in (column, value) order: column,
    value (> 0), and the 0/1 label of the owning row.  A boundary sits
    before each entry that starts a column or a new value; its right side
    is the rest of the column, its left side the column's zeros and the
    values below.  Boundaries are evaluated in entry order, so the first
    minimum realizes the documented tie-break.
    """
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
    column).  The entries stay in their root (column, value) order, and
    ``slot[row]`` names the node that holds the row: a split keeps its
    left rows in the node's slot and moves its right rows to slot
    ``len(feature)``, one past the node's id, which no earlier split handed
    out.  A node reads the range ``pos[a:b]``: ascending entry positions,
    its own among at most as many of other nodes'.  When a node holds
    fewer than half of its range, it copies its own to ``pos[b:]``, which
    only finished nodes have written, and reads that copy instead; the
    copies along a path at least halve, so ``pos`` needs 2 * nnz slots.
    When a feature sampler is given, the split search is first restricted
    to its columns' entries; if none of them yields a valid split, it
    falls back to all columns so impure nodes are not stranded by an
    unlucky draw.
    """
    if matrix.nnz and matrix.data.min() < 0:
        raise ConfigError("tree features must be non-negative")
    # One (column, value) order for the whole tree; lexsort is stable, so a
    # node's entries in it are the order a per-node sort would give, ties
    # included.
    order = np.lexsort((matrix.data, matrix.indices))
    er = matrix.row_ids()[order]
    ec = matrix.indices[order].astype(np.int64)
    ev = matrix.data[order].astype(np.float64)
    eg = labels[er]
    col_ptr = ec.searchsorted(np.arange(matrix.shape[1] + 1))
    row_nnz = np.diff(matrix.indptr)
    slot = np.zeros(labels.size, dtype=np.int32)
    pos = np.arange(2 * ec.size)

    feature: list[int] = []
    threshold: list[float] = []
    count_f: list[int] = []
    count_m: list[int] = []

    # Stack entries: (depth, row count, female count, slot, range start,
    # range end, entry count).  A node takes the next id when it is
    # popped, so ids run in pre-order.
    stack = [(0, labels.size, int(np.count_nonzero(labels == 0)), 0, 0, ec.size, ec.size)]
    while stack:
        depth, n, nf, s, a, b, k = stack.pop()
        feature.append(-1)  # a leaf until it splits
        count_f.append(nf)
        count_m.append(n - nf)
        if (nf in (0, n) or (max_depth is not None and depth >= max_depth)
                or n < 2 * min_samples_leaf):
            continue
        span = pos[a:b]
        if span.size > 2 * k:
            a, b = b, b + k
            span = pos[a:b] = span[slot[er[span]] == s]
        split = None
        if feature_sampler is not None:
            columns = feature_sampler()
            lo = span.searchsorted(col_ptr[columns])
            sampled = span[_ranges(lo, span.searchsorted(col_ptr[columns + 1]) - lo)]
            sampled = sampled[slot[er[sampled]] == s]
            split = _best_split(ec[sampled], ev[sampled], eg[sampled], n, nf, min_samples_leaf)
        if split is None:
            # These stay bound until the next full search replaces them:
            # freed at every node, they let glibc trim its heap, and the
            # pages fault back in at the next node.
            at = span if span.size == k else span[slot[er[span]] == s]
            c, v, g = ec[at], ev[at], eg[at]
            split = _best_split(c, v, g, n, nf, min_samples_leaf)
        if split is None:
            continue
        col, thr = split

        # The node's entries above ``thr`` in the split column are the
        # right child's rows, each at most once.
        right = span[slice(*span.searchsorted(col_ptr[col:col + 2]))]
        right = right[(slot[er[right]] == s) & (ev[right] > thr)]
        if right.size == 0 or right.size == n:
            continue  # degenerate midpoint rounding; keep the node a leaf
        slot[er[right]] = len(feature)
        k_right = int(row_nnz[er[right]].sum())

        nf_right = int(np.count_nonzero(eg[right] == 0))
        feature[-1] = col
        threshold.append(thr)
        del count_f[-1], count_m[-1]  # only leaves keep their counts
        # Push right first so the left child is processed (and draws any
        # sampled features) first: deterministic depth-first, left-first.
        stack.append((depth + 1, right.size, nf_right, len(feature), a, b, k_right))
        stack.append((depth + 1, n - right.size, nf - nf_right, s, a, b, k - k_right))

    return TreeModel(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        count_female=np.asarray(count_f, dtype=np.int64),
        count_male=np.asarray(count_m, dtype=np.int64),
        n_features=matrix.shape[1],
        max_depth=max_depth,
        min_samples_leaf=min_samples_leaf,
    )


def _levels(feature: np.ndarray) -> np.ndarray:
    """``level[i]``, i in 0..n: +1 per inner node and -1 per leaf below id i."""
    level = np.zeros(feature.size + 1, dtype=np.int64)
    np.cumsum(np.where(feature >= 0, 1, -1), out=level[1:])
    return level


def _subtree_ends(feature: np.ndarray) -> np.ndarray:
    """One past the last id of each node's subtree, for the ``feature``
    flags of one or more trees listed back to back, each in pre-order.

    A subtree's flags sum to -1 and every proper prefix of them to 0 or
    more, so node i's subtree ends at the first id after i whose level is
    ``level[i] - 1``.  One sort of (level, id) keys puts each level's ids in
    order, and a search finds that id.
    """
    n = feature.size
    level = _levels(feature)
    keys = (level - level.min()) * (n + 1) + np.arange(n + 1)
    keys.sort()
    below = (level[:-1] - 1 - level.min()) * (n + 1) + np.arange(1, n + 1)
    return keys[keys.searchsorted(below)] % (n + 1)


def train_tree(
    X: MatrixLike,
    y: Sequence[Gender],
    max_depth: Optional[int] = None,
    min_samples_leaf: int = 1,
) -> TreeModel:
    check_values(max_depth=max_depth, min_samples_leaf=min_samples_leaf)
    matrix = as_csr(X)
    return _grow_tree(matrix, training_labels(matrix, y), max_depth, min_samples_leaf)


def exit_leaves(trees: Sequence[TreeModel], matrix: CSR) -> np.ndarray:
    """(rows, trees) exit leaf of each row of ``as_csr``'s output (one
    value per row and column) in each tree, numbered over the trees' leaves
    listed back to back, each tree's left to right.

    A row goes right at a node when it stores a value above the node's
    threshold on the node's column; a missing entry goes left.  So an entry
    (c, v) makes each node that splits column c at a threshold below v a
    false node, and a false node excludes the leaves of its left subtree
    (ids ``p + 1`` to that subtree's end).  The exit leaf is the tree's
    first leaf that no excluded interval covers: the path never excludes
    it, and each leaf to its left lies in the left subtree of the path node
    where the two part, which the row leaves to the right.
    """
    flags = np.concatenate([tree.feature for tree in trees])
    split = np.flatnonzero(flags >= 0)
    # leaf_id[i]: the leaves with an id below i, over the trees back to back.
    leaf_id = np.zeros(flags.size + 1, dtype=np.int64)
    np.cumsum(flags < 0, out=leaf_id[1:])
    sizes = [tree.n_nodes for tree in trees]
    first_leaf = leaf_id[np.cumsum([0] + sizes[:-1])]
    node_tree = np.repeat(np.arange(len(trees)), sizes)[split]
    node_col = flags[split]
    node_start = leaf_id[split]
    node_end = leaf_id[_subtree_ends(flags)[split + 1]]

    # Merge the inner nodes with the entries by (column, value), an entry
    # before a node of its own value: a node is false below a greater value.
    rows, cols = matrix.row_ids(), matrix.indices
    values = np.concatenate([tree.threshold for tree in trees] + [matrix.data])
    is_node = np.arange(values.size) < split.size
    order = np.lexsort((is_node, values, np.concatenate([node_col, cols])))
    merged_node = is_node[order]
    nodes = order[merged_node]  # the inner nodes in (column, threshold) order
    entry = order[~merged_node] - split.size
    # An entry's false nodes run from its column's first node to the last
    # node merged before it.
    hi = np.cumsum(merged_node)[~merged_node]
    lo = node_col[nodes].searchsorted(cols[entry])
    count = hi - lo
    node = nodes[_ranges(lo, count)]
    row = np.repeat(rows[entry], count)

    # Sort the excluded intervals by (row, tree, start): with each row's leaf
    # ids shifted above the last row's, that is the order of their starts.
    shift = row * leaf_id[-1]
    by = np.argsort(node_start[node] + shift)
    node, row, shift = node[by], row[by], shift[by]
    start, end, tree = node_start[node] + shift, node_end[node] + shift, node_tree[node]
    # Before each interval its (row, tree) pair is covered up to its tree's
    # first leaf or the furthest end so far; the exit leaf is the first such
    # point that the next interval starts past, else the furthest end.
    reach = np.maximum.accumulate(end)
    covered = np.maximum(np.append(0, reach[:-1]), first_leaf[tree] + shift)
    head = np.flatnonzero(np.diff(row * len(trees) + tree, prepend=-1))
    last = np.append(head, start.size)[1:] - 1
    gap = np.where(start > covered, covered, np.iinfo(np.int64).max)
    out = np.tile(first_leaf, (matrix.shape[0], 1))
    out[row[head], tree[head]] = (np.minimum(np.minimum.reduceat(gap, head), reach[last])
                                  - shift[head])
    return out


def tree_leaf_counts(model: TreeModel, matrix: CSR) -> np.ndarray:
    """Per-row (female, male) training counts of the reached leaf."""
    leaves = exit_leaves([model], matrix)[:, 0]
    return np.column_stack([model.count_female[leaves], model.count_male[leaves]]
                           ).astype(np.float64)


def tree_nodes_params(tree: TreeModel) -> dict:
    """A tree's node blocks in a model file, its four arrays as lists."""
    return {name: getattr(tree, name).tolist()
            for name in ("feature", "threshold", "count_female", "count_male")}


def tree_from_nodes(
    doc: dict, n_features: int, max_depth: Optional[int], min_samples_leaf: int
) -> TreeModel:
    """Tree from its node blocks in a model file.

    A ConfigError unless the blocks are the known ones, and a ValueError
    unless every ``feature`` is -1 or a known column, the flags list one
    tree in pre-order (their level stays at 0 or above up to the last node
    and is -1 after it), ``threshold`` holds one number per inner node and
    each count list one per leaf, and every leaf's (female, male) counts
    are non-negative with a positive sum.  A tree that ``_grow_tree`` grew
    passes and loads equal to it.
    """
    check_keys(doc, ("feature", "threshold", "count_female", "count_male"))
    feature = vector(doc["feature"], np.int32, "feature")
    if ((feature < -1) | (feature >= n_features)).any():
        raise ValueError(f"a node's feature must be -1 or a column below {n_features}")
    level = _levels(feature)
    if level[-1] != -1 or level[1:-1].min(initial=0) < 0:
        raise ValueError("feature must list one tree in pre-order: its leaf flags (-1) "
                         "must close the tree at the last node, not before or after")
    n_inner = int(np.count_nonzero(feature >= 0))
    threshold = vector(doc["threshold"], np.float64, "threshold", (n_inner, "inner node"))
    female, male = (vector(doc[name], np.int64, name, (feature.size - n_inner, "leaf"))
                    for name in ("count_female", "count_male"))
    if ((female < 0) | (male < 0) | (female + male == 0)).any():
        raise ValueError("every leaf needs non-negative counts with a positive sum")
    return TreeModel(feature=feature, threshold=threshold, count_female=female,
                     count_male=male, n_features=n_features, max_depth=max_depth,
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
