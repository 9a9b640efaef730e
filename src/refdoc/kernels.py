"""Hot tree-construction kernels, vectorized with numpy.

Tree split search dominates training time. Feature matrices arrive as
CSC-style arrays whose entries are sorted by (column, value, row);
`col_of` carries the column id of every entry.

Boosted trees grow in lock-step, one tree per class, and each leaf keeps
its own entry list: the indices of the entries whose rows it holds, in
that sorted order. One `gbt_best_split` call scores a batch of leaves
from any mix of classes; `gbt_partition` divides one leaf's list when it
splits. Forest trees keep the sample-to-node assignment in `node_of`;
rows with node_of == -1 (out-of-bag rows under bootstrap weights) belong
to no node. `rf_best_candidate` scores all random candidates of a node in
one pass: it gathers their column entries together, masks them to the
node and counts classes per (candidate, class) bin with bincount.
"""

from __future__ import annotations

import sys

import numpy as np

from .features import column_view


def build_sorted_csc(X_csr):
    """(indptr, rows, vals, col_of) with entries sorted by (col, val, row)."""
    indptr, rows, cols, vals = column_view(X_csr)
    # lexsort is stable, so rows still ascend among equal values
    order = np.lexsort((vals, cols))
    return (indptr, rows[order], vals[order].astype(np.float64, copy=False),
            cols[order].astype(np.int64, copy=False))


def gbt_best_split(rows, vals, col_of, entries, cls, count, sum_g, sum_h,
                   g, h, min_leaf):
    """Best (gain, feature, threshold) for each leaf of a batch.

    Leaf i holds the entry list entries[i] of class cls[i], with count[i]
    rows and gradient sums sum_g[i], sum_h[i]; g[c] and h[c] are the
    per-row gradients and hessians of class c. Gain is the Newton
    objective improvement (lg^2/lh + rg^2/rh - parent); candidate
    thresholds sit between distinct in-leaf feature values with the
    implicit zero block at the left end. Prefix sums come from one
    sequential cumsum over each leaf's whole entry list, so a leaf's
    result does not depend on the rest of the batch. Ties go to the first
    candidate in scan order. Returns three arrays, with feature -1 where
    no candidate improves on the parent or a gain is not finite.
    """
    n_leaves = len(entries)
    best_gain = np.zeros(n_leaves)
    best_feat = np.full(n_leaves, -1, dtype=np.int64)
    best_thr = np.zeros(n_leaves)
    start = np.zeros(n_leaves + 1, dtype=np.int64)
    np.cumsum([e.size for e in entries], out=start[1:])
    total = int(start[-1])
    if total == 0:
        return best_gain, best_feat, best_thr

    ent = np.concatenate(entries)
    r = rows[ent]
    cg = np.empty(total)
    ch = np.empty(total)
    for k in range(n_leaves):
        s, e = start[k], start[k + 1]
        np.cumsum(g[cls[k]][r[s:e]], out=cg[s:e])
        np.cumsum(h[cls[k]][r[s:e]], out=ch[s:e])

    # segments: runs of one feature inside one leaf
    feats = col_of[ent]
    new_seg = np.empty(total + 1, dtype=bool)
    new_seg[0] = new_seg[total] = True
    np.not_equal(feats[1:], feats[:-1], out=new_seg[1:total])
    new_seg[start[1:-1]] = True
    bounds = np.flatnonzero(new_seg)
    first, seg_n = bounds[:-1], np.diff(bounds)
    # a segment with fewer than min_leaf entries never gives a legal split
    keep = seg_n >= min_leaf
    first, seg_n = first[keep], seg_n[keep]
    seg_leaf = np.searchsorted(start, first, side="right") - 1
    at_start = first == start[seg_leaf]
    base_g = np.where(at_start, 0.0, cg[first - 1])
    base_h = np.where(at_start, 0.0, ch[first - 1])
    leaf_g = np.asarray(sum_g, dtype=np.float64)[seg_leaf]
    leaf_h = np.asarray(sum_h, dtype=np.float64)[seg_leaf]
    parent = (leaf_g * leaf_g) / leaf_h
    last = first + seg_n - 1
    zero_n = np.asarray(count, dtype=np.int64)[seg_leaf] - seg_n
    zero_g = leaf_g - (cg[last] - base_g)
    zero_h = leaf_h - (ch[last] - base_h)

    def scored(s, lg, lh):
        """Gains of the candidates of segments s whose sides have hessian."""
        rg, rh = leaf_g[s] - lg, leaf_h[s] - lh
        ok = (lh > 0.0) & (rh > 0.0)
        lg, lh, rg, rh, s = lg[ok], lh[ok], rg[ok], rh[ok], s[ok]
        return ok, (lg * lg) / lh + (rg * rg) / rh - parent[s]

    # zeros-vs-nonzeros boundary, one per segment, scan key 2*first; its
    # right side is the segment, which has at least min_leaf rows
    a_seg = np.flatnonzero((zero_n > 0) & (zero_n >= min_leaf))
    ok, a_gain = scored(a_seg, zero_g[a_seg], zero_h[a_seg])
    a_seg = a_seg[ok]

    # boundary after entry i = first + p of a segment, scan key 2*i + 1;
    # only p with zero_n + p + 1 >= min_leaf and seg_n - p - 1 >= min_leaf
    # and a larger value at i + 1 are candidates
    lo = np.maximum(min_leaf - 1 - zero_n, 0)
    n_pos = np.maximum(seg_n - max(min_leaf, 1) - lo, 0)
    b_seg = np.repeat(np.arange(first.size), n_pos)
    i = np.arange(b_seg.size) + np.repeat(
        first + lo - (np.cumsum(n_pos) - n_pos), n_pos)
    v_at = vals[ent[i]]
    v_next = vals[ent[i + 1]]
    up = v_next > v_at
    b_seg, i, v_at, v_next = b_seg[up], i[up], v_at[up], v_next[up]
    ok, b_gain = scored(b_seg, zero_g[b_seg] + (cg[i] - base_g[b_seg]),
                        zero_h[b_seg] + (ch[i] - base_h[b_seg]))
    b_seg, i, v_at, v_next = b_seg[ok], i[ok], v_at[ok], v_next[ok]

    # per leaf: the largest gain, then the smallest scan key
    cand_seg = np.concatenate((a_seg, b_seg))
    cand_leaf = seg_leaf[cand_seg]
    gain = np.concatenate((a_gain, b_gain))
    top = np.full(n_leaves, -np.inf)
    np.maximum.at(top, cand_leaf, gain)          # NaN propagates
    tied = np.flatnonzero(gain == top[cand_leaf])
    tied = tied[np.isfinite(gain[tied]) & (gain[tied] > 0.0)]
    key = np.concatenate((2 * first[a_seg], 2 * i + 1))[tied]
    first_key = np.full(n_leaves, 2 * total, dtype=np.int64)
    np.minimum.at(first_key, cand_leaf[tied], key)
    pick = tied[key == first_key[cand_leaf[tied]]]
    won = cand_leaf[pick]
    best_gain[won] = gain[pick]
    best_feat[won] = feats[first[cand_seg[pick]]]
    thr = np.concatenate((0.5 * vals[ent[first[a_seg]]],
                          0.5 * (v_at + v_next)))
    best_thr[won] = thr[pick]
    return best_gain, best_feat, best_thr


def gbt_partition(indptr, rows, vals, node_of, entries, feature, threshold,
                  new_node, g, h):
    """Move a leaf's rows with value > threshold to new_node.

    Returns (left entries, right entries, right count, right sum of g,
    right sum of h); both entry lists keep their order.
    """
    lo, hi = np.searchsorted(entries, indptr[feature:feature + 2])
    col = entries[lo:hi]
    moved = rows[col[vals[col] > threshold]]
    node_of[moved] = new_node
    right = node_of[rows[entries]] == new_node
    return (entries[~right], entries[right], int(moved.size),
            float(g[moved].sum()), float(h[moved].sum()))


def _gini(counts, total):
    """Gini impurity of each row of class counts, with the row totals."""
    p = counts / np.asarray(total)[..., None]
    return 1.0 - np.sum(p * p, axis=-1)


def rf_best_candidate(indptr, rows, vals, node_of, node, y, weights,
                      n_classes, cand_feats, cand_fracs, node_counts,
                      count, min_leaf):
    """Best of the random (feature, threshold) candidates for one node.

    Thresholds interpolate between the in-node min and max of the candidate
    feature; Gini impurity decrease decides, first best wins on ties.
    Returns (0.0, -1, 0.0) when no legal candidate has positive gain.

    All candidates are scored at once. Values are sorted within a column,
    so a candidate's in-node min and max are its first and last in-node
    entries. Class counts come from one bincount over (candidate, class)
    bins for the in-node entries and one for those at or below the
    threshold; the weights are integer-valued, so the counts are exact.
    """
    fail = 0.0, -1, 0.0
    n_cand = cand_feats.size
    start = indptr[cand_feats]
    length = indptr[cand_feats + 1] - start
    seg = np.repeat(np.arange(n_cand), length)
    ent = np.arange(seg.size) + np.repeat(start - (np.cumsum(length) - length),
                                          length)
    r = rows[ent]
    inside = node_of[r] == node
    seg, ent, r = seg[inside], ent[inside], r[inside]
    if not seg.size:
        return fail
    v = vals[ent]
    w = weights[r].astype(np.float64)
    bins = seg * n_classes + y[r]
    n_bins = n_cand * n_classes
    nz = np.bincount(bins, weights=w, minlength=n_bins).reshape(n_cand, -1)

    lo = np.searchsorted(seg, np.arange(n_cand))
    hi = np.searchsorted(seg, np.arange(n_cand), side="right")
    zero_n = count - nz.sum(axis=1)
    vmin = np.where(zero_n > 0, 0.0, v[np.minimum(lo, v.size - 1)])
    vmax = v[hi - 1]
    thr = vmin + cand_fracs * (vmax - vmin)
    thr = np.where(thr >= vmax, vmin, thr)

    lm = v <= thr[seg]
    left_nz = np.bincount(bins[lm], weights=w[lm],
                          minlength=n_bins).reshape(n_cand, -1)
    node_counts = node_counts.astype(np.float64)
    left = (node_counts - nz) + left_nz
    ln = left.sum(axis=1)
    rn = count - ln
    legal = (hi > lo) & (vmax > vmin) & (ln >= min_leaf) & (rn >= min_leaf)

    gain = np.full(n_cand, -np.inf)
    ln, rn, left = ln[legal], rn[legal], left[legal]
    parent = _gini(node_counts, float(count))
    gain[legal] = parent - (ln * _gini(left, ln)
                            + rn * _gini(node_counts - left, rn)) / count
    gain[~(gain > 0.0)] = -np.inf
    best = int(np.argmax(gain))
    if not gain[best] > 0.0:
        return fail
    return float(gain[best]), int(cand_feats[best]), float(thr[best])


def rf_partition(indptr, rows, vals, node_of, node, feature, threshold,
                 new_node, y, weights, n_classes):
    """Move in-node rows with value > threshold to new_node; return their class counts."""
    s, e = indptr[feature], indptr[feature + 1]
    rws = rows[s:e]
    m = (node_of[rws] == node) & (vals[s:e] > threshold)
    moved = rws[m]
    node_of[moved] = new_node
    counts = np.bincount(y[moved], weights=weights[moved].astype(np.float64),
                         minlength=n_classes)
    return counts.astype(np.int64)


def get_kernels():
    """This module; the tree code looks its kernels up here per call."""
    return sys.modules[__name__]
