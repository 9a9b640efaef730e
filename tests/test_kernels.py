"""Tree kernels and the boosted-tree grower against independent references.

Two kinds of reference live here. The per-leaf numpy split search, the
one-class-at-a-time leaf-wise grower that the batched, lock-step code
replaced, and the per-candidate forest loop that the batched candidate
scan replaced are kept verbatim: models must match them bit for bit. Plain
loops over dense rows that enumerate every threshold are the brute-force
oracles for the boosted and forest split kernels and for build_sorted_csc.
"""

import math

import numpy as np
import pytest
from scipy import sparse

from refdoc import trees
from refdoc.classifiers import ModelConfig, make_estimator
from refdoc.kernels import build_sorted_csc, get_kernels
from refdoc.trees import BoostedClassifier, Tree, sigmoid

KERNEL_NAMES = ("gbt_best_split", "gbt_partition", "rf_best_candidate",
                "rf_partition")


def estimator(algorithm, **hyperparameters):
    """The untrained estimator, defaults filled in from the one table."""
    return make_estimator(ModelConfig(algorithm=algorithm,
                                      hyperparameters=hyperparameters))


# ---------------------------------------------------------------------------
# reference: per-leaf split search and grower, one class at a time
# ---------------------------------------------------------------------------

def reference_best_split(indptr, rows, vals, col_of, node_of, node, g, h,
                         sum_g, sum_h, count, min_leaf):
    sel = np.flatnonzero(node_of[rows] == node)
    if sel.size == 0:
        return 0.0, -1, 0.0
    feats = col_of[sel]
    v = vals[sel]
    gg = g[rows[sel]]
    hh = h[rows[sel]]

    new_seg = np.empty(sel.size, dtype=bool)
    new_seg[0] = True
    np.not_equal(feats[1:], feats[:-1], out=new_seg[1:])
    first = np.flatnonzero(new_seg)
    seg = np.cumsum(new_seg) - 1
    last = np.r_[first[1:], sel.size] - 1

    cg = np.cumsum(gg)
    ch = np.cumsum(hh)
    base_g = np.where(first > 0, cg[first - 1], 0.0)
    base_h = np.where(first > 0, ch[first - 1], 0.0)
    prefix_g = cg - base_g[seg]
    prefix_h = ch - base_h[seg]
    prefix_n = np.arange(sel.size) - first[seg] + 1

    seg_n = last - first + 1
    seg_g = prefix_g[last]
    seg_h = prefix_h[last]
    zero_n = count - seg_n
    zero_g = sum_g - seg_g
    zero_h = sum_h - seg_h

    parent = (sum_g * sum_g) / sum_h

    def gains_of(ln, lg, lh, rn, rg, rh):
        ok = (ln >= min_leaf) & (rn >= min_leaf) & (lh > 0.0) & (rh > 0.0)
        lh_safe = np.where(ok, lh, 1.0)
        rh_safe = np.where(ok, rh, 1.0)
        gain = (lg * lg) / lh_safe + (rg * rg) / rh_safe - parent
        return np.where(ok, gain, -np.inf)

    a_ok = zero_n > 0
    a_gain = np.where(
        a_ok,
        gains_of(zero_n, zero_g, zero_h,
                 count - zero_n, sum_g - zero_g, sum_h - zero_h),
        -np.inf,
    )
    a_thr = 0.5 * v[first]
    a_feat = feats[first]
    a_key = first - 0.5

    b_idx = np.flatnonzero((seg[:-1] == seg[1:]) & (v[1:] > v[:-1]))
    ln = zero_n[seg[b_idx]] + prefix_n[b_idx]
    lg = zero_g[seg[b_idx]] + prefix_g[b_idx]
    lh = zero_h[seg[b_idx]] + prefix_h[b_idx]
    b_gain = gains_of(ln, lg, lh, count - ln, sum_g - lg, sum_h - lh)
    b_thr = 0.5 * (v[b_idx] + v[b_idx + 1])
    b_feat = feats[b_idx]
    b_key = b_idx + 0.5

    gain = np.r_[a_gain, b_gain]
    thr = np.r_[a_thr, b_thr]
    feat = np.r_[a_feat, b_feat]
    key = np.r_[a_key, b_key]
    order = np.argsort(key)
    gain, thr, feat = gain[order], thr[order], feat[order]

    best = int(np.argmax(gain))
    if not np.isfinite(gain[best]) or gain[best] <= 0.0:
        return 0.0, -1, 0.0
    return float(gain[best]), int(feat[best]), float(thr[best])


def reference_partition(indptr, rows, vals, node_of, node, feature,
                        threshold, new_node, g, h):
    s, e = indptr[feature], indptr[feature + 1]
    rws = rows[s:e]
    m = (node_of[rws] == node) & (vals[s:e] > threshold)
    moved = rws[m]
    node_of[moved] = new_node
    return int(moved.size), float(g[moved].sum()), float(h[moved].sum())


def reference_leaf_value(sum_g, sum_h):
    if sum_h < 1e-12:
        return 0.0
    return float(np.clip(sum_g / sum_h, -trees.MAX_LEAF_VALUE,
                         trees.MAX_LEAF_VALUE))


def reference_tree(csc, n_rows, g, h, max_leaves, min_leaf):
    indptr, rows, vals, col_of = csc
    node_of = np.zeros(n_rows, dtype=np.int64)
    tree = Tree()
    sum_g = float(np.sum(g))
    sum_h = float(np.sum(h))
    root = tree.add_leaf(reference_leaf_value(sum_g, sum_h))
    leaves = {}

    def evaluate(pid, tree_node, count, sg, sh):
        if count >= 2 * min_leaf and sh > 0.0:
            gain, feat, thr = reference_best_split(
                indptr, rows, vals, col_of, node_of, pid, g, h,
                sg, sh, count, min_leaf)
        else:
            gain, feat, thr = 0.0, -1, 0.0
        leaves[pid] = (tree_node, count, sg, sh, gain, feat, thr)

    evaluate(0, root, n_rows, sum_g, sum_h)
    next_pid = 1
    while len(leaves) < max_leaves:
        best_pid = -1
        best_gain = 0.0
        for pid in sorted(leaves):
            gain = leaves[pid][4]
            if gain > best_gain:
                best_gain = gain
                best_pid = pid
        if best_pid < 0:
            break
        tree_node, count, sg, sh, _, feat, thr = leaves.pop(best_pid)
        right_pid = next_pid
        next_pid += 1
        rn, rg, rh = reference_partition(
            indptr, rows, vals, node_of, best_pid, feat, thr, right_pid, g, h)
        ln, lg, lh = count - rn, sg - rg, sh - rh
        left_node = tree.add_leaf(reference_leaf_value(lg, lh))
        right_node = tree.add_leaf(reference_leaf_value(rg, rh))
        tree.make_split(tree_node, feat, thr, left_node, right_node)
        evaluate(best_pid, left_node, ln, lg, lh)
        evaluate(right_pid, right_node, rn, rg, rh)

    leaf_value = np.zeros(next_pid, dtype=np.float64)
    for pid, (tree_node, *_rest) in leaves.items():
        leaf_value[pid] = tree.value[tree_node]
    return tree, leaf_value[node_of]


def reference_boosted(X, y_idx, n_classes, n_trees, max_leaves, min_leaf,
                      learning_rate):
    """BoostedClassifier.to_dict() of the one-class-at-a-time grower."""
    csc = build_sorted_csc(X)
    n = X.shape[0]
    f0s, all_trees = [], []
    for c in range(n_classes):
        y = (y_idx == c).astype(np.float64)
        pbar = min(max(float(y.mean()), 1e-12), 1.0 - 1e-12)
        f0 = math.log(pbar / (1.0 - pbar))
        margins = np.full(n, f0, dtype=np.float64)
        class_trees = []
        for _ in range(n_trees):
            p = sigmoid(margins)
            tree, pred = reference_tree(csc, n, y - p, p * (1.0 - p),
                                        max_leaves, min_leaf)
            margins = margins + learning_rate * pred
            class_trees.append(tree.to_dict())
        f0s.append(f0)
        all_trees.append(class_trees)
    return {"f0": f0s, "trees": all_trees}


# ---------------------------------------------------------------------------
# brute-force oracles over dense rows
# ---------------------------------------------------------------------------

def oracle_gbt_candidates(dense, leaf_rows, g, h, min_leaf):
    """Every legal (gain, feature, threshold) of one leaf, by enumeration."""
    sum_g = sum(g[r] for r in leaf_rows)
    sum_h = sum(h[r] for r in leaf_rows)
    parent = sum_g * sum_g / sum_h
    out = []
    for j in range(dense.shape[1]):
        values = sorted({float(dense[r, j]) for r in leaf_rows})
        for lo, hi in zip(values, values[1:]):
            thr = 0.5 * (lo + hi)
            left = [r for r in leaf_rows if dense[r, j] <= thr]
            right = [r for r in leaf_rows if dense[r, j] > thr]
            lg = sum(g[r] for r in left)
            lh = sum(h[r] for r in left)
            rg = sum(g[r] for r in right)
            rh = sum(h[r] for r in right)
            if (len(left) >= min_leaf and len(right) >= min_leaf
                    and lh > 0.0 and rh > 0.0):
                out.append((lg * lg / lh + rg * rg / rh - parent, j, thr))
    return out


def oracle_rf_best(dense, node_rows, y, weights, n_classes, cand_feats,
                   cand_fracs, min_leaf):
    """Best random candidate of one forest node, by direct counting."""
    def gini(counts, total):
        acc = 0.0
        for c in counts:
            p = c / total
            acc += p * p
        return 1.0 - acc

    counts = [0.0] * n_classes
    for r in node_rows:
        counts[y[r]] += float(weights[r])
    count = int(sum(weights[r] for r in node_rows))
    parent = gini(counts, float(count))
    best = (0.0, -1, 0.0)
    for j, frac in zip(cand_feats, cand_fracs):
        column = [float(dense[r, j]) for r in node_rows]
        vmin, vmax = min(column), max(column)
        if vmax <= vmin:
            continue
        thr = vmin + float(frac) * (vmax - vmin)
        if thr >= vmax:
            thr = vmin
        left = [0.0] * n_classes
        for r in node_rows:
            if dense[r, j] <= thr:
                left[y[r]] += float(weights[r])
        ln = sum(left)
        rn = count - ln
        if ln < min_leaf or rn < min_leaf:
            continue
        right = [counts[c] - left[c] for c in range(n_classes)]
        gain = parent - (ln * gini(left, ln) + rn * gini(right, rn)) / count
        if gain > best[0]:
            best = (gain, int(j), thr)
    return best


# ---------------------------------------------------------------------------
# reference: the per-candidate forest loop that the batched scan replaced
# ---------------------------------------------------------------------------

def _gini_from_counts(counts, total):
    p = counts / total
    return 1.0 - np.sum(p * p)


def reference_rf_best_candidate(indptr, rows, vals, node_of, node, y, weights,
                                n_classes, cand_feats, cand_fracs,
                                node_counts, count, min_leaf):
    """Best of the random (feature, threshold) candidates for one node.

    Thresholds interpolate between the in-node min and max of the candidate
    feature; Gini impurity decrease decides, first best wins on ties.
    """
    parent = _gini_from_counts(node_counts.astype(np.float64), float(count))
    best_gain, best_feat, best_thr = 0.0, -1, 0.0
    for c in range(cand_feats.size):
        j = int(cand_feats[c])
        s, e = indptr[j], indptr[j + 1]
        rws = rows[s:e]
        m = node_of[rws] == node
        if not m.any():
            continue
        rsel = rws[m]
        vsel = vals[s:e][m]
        wsel = weights[rsel]
        nz_n = int(wsel.sum())
        zero_n = count - nz_n
        vmin = 0.0 if zero_n > 0 else float(vsel[0])
        vmax = float(vsel[-1])
        if vmax <= vmin:
            continue
        thr = vmin + float(cand_fracs[c]) * (vmax - vmin)
        if thr >= vmax:
            thr = vmin
        nz_counts = np.bincount(y[rsel], weights=wsel.astype(np.float64),
                                minlength=n_classes)
        lm = vsel <= thr
        left_nz = np.bincount(y[rsel[lm]], weights=wsel[lm].astype(np.float64),
                              minlength=n_classes)
        left = (node_counts.astype(np.float64) - nz_counts) + left_nz
        ln = float(left.sum())
        rn = count - ln
        if ln < min_leaf or rn < min_leaf:
            continue
        right = node_counts.astype(np.float64) - left
        gain = parent - (ln * _gini_from_counts(left, ln)
                         + rn * _gini_from_counts(right, rn)) / count
        if gain > best_gain:
            best_gain, best_feat, best_thr = float(gain), j, float(thr)
    return best_gain, best_feat, best_thr


# ---------------------------------------------------------------------------
# random problems
# ---------------------------------------------------------------------------

def random_matrix(rng, n, d, density, ties):
    values = rng.random((n, d))
    if ties:
        values = np.ceil(values * 4) / 4          # four distinct values
    dense = np.where(rng.random((n, d)) < density, values, 0.0)
    dense[rng.random(n) < 0.1] = 0.0              # some empty documents
    if ties and d > 3:
        dense[:, d - 1] = dense[:, 0]             # duplicated columns
        dense[:, d - 2] = dense[:, 1]
    return dense


def random_gradients(rng, n, ties):
    if ties:                                      # dyadic: sums are exact
        g = rng.integers(-8, 9, size=n) / 8.0
        h = rng.integers(1, 9, size=n) / 16.0
    else:
        g = rng.normal(size=n)
        p = rng.uniform(0.05, 0.95, size=n)
        h = p * (1 - p)
    return g, h


def leaf_entries(csc, leaf_rows, n):
    """Entry indices of the rows in leaf_rows, in CSC order."""
    in_leaf = np.zeros(n, dtype=bool)
    in_leaf[leaf_rows] = True
    return np.flatnonzero(in_leaf[csc[1]])


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(12))
def test_batched_split_matches_per_leaf_reference(seed):
    rng = np.random.default_rng(seed)
    n, d = 60, 20
    ties = seed % 2 == 0
    dense = random_matrix(rng, n, d, 0.3, ties)
    n_classes = int(rng.integers(2, 5))
    grads = [random_gradients(rng, n, ties) for _ in range(n_classes)]
    g = [gg for gg, _ in grads]
    h = [hh for _, hh in grads]
    if seed % 4 == 3:                             # gains overflow to inf
        h[0][rng.random(n) < 0.3] = 5e-324
    min_leaf = int(rng.integers(1, 6))
    csc = build_sorted_csc(sparse.csr_matrix(dense))
    indptr, rows, vals, col_of = csc

    leaves, cls, count, sum_g, sum_h = [], [], [], [], []
    for _ in range(int(rng.integers(1, 9))):
        c = int(rng.integers(n_classes))
        leaf_rows = np.flatnonzero(rng.random(n) < rng.uniform(0.2, 1.0))
        leaves.append(leaf_rows)
        cls.append(c)
        count.append(leaf_rows.size)
        sum_g.append(float(g[c][leaf_rows].sum()))
        sum_h.append(float(h[c][leaf_rows].sum()))
    gains, feats, thrs = get_kernels().gbt_best_split(
        rows, vals, col_of, [leaf_entries(csc, r, n) for r in leaves], cls,
        count, sum_g, sum_h, g, h, min_leaf)
    for i, leaf_rows in enumerate(leaves):
        node_of = np.full(n, -1, dtype=np.int64)
        node_of[leaf_rows] = 0
        want = reference_best_split(
            indptr, rows, vals, col_of, node_of, 0, g[cls[i]], h[cls[i]],
            sum_g[i], sum_h[i], count[i], min_leaf)
        assert (float(gains[i]), int(feats[i]), float(thrs[i])) == want


@pytest.mark.parametrize("x, g, h, want", [
    # the zero boundary and the boundary after the first entry tie: scan
    # order puts the zero boundary first
    ([0, 0, 1, 2, 2], [1, 1, 0, -1, -1], [1] * 5, (0, 0.5)),
    # subnormal hessians make the only gain overflow to inf: no split
    ([0, 1, 1], [1, -0.5, -0.5], [4e-309] * 3, (-1, 0.0)),
    # a zero left hessian rules the zero boundary out, not the leaf
    ([0, 1, 2], [0.5, 1, -1], [0, 0.25, 0.25], (0, 1.5)),
])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_hand_made_leaves_match_reference(x, g, h, want):
    dense = np.array(x, dtype=np.float64)[:, None]
    g, h = np.array(g, dtype=np.float64), np.array(h, dtype=np.float64)
    indptr, rows, vals, col_of = build_sorted_csc(sparse.csr_matrix(dense))
    n = dense.shape[0]
    sum_g, sum_h = float(g.sum()), float(h.sum())
    gains, feats, thrs = get_kernels().gbt_best_split(
        rows, vals, col_of, [np.arange(rows.size)], [0], [n], [sum_g],
        [sum_h], [g], [h], 1)
    assert (int(feats[0]), float(thrs[0])) == want
    assert (float(gains[0]), int(feats[0]), float(thrs[0])) == \
        reference_best_split(indptr, rows, vals, col_of,
                             np.zeros(n, dtype=np.int64), 0, g, h, sum_g,
                             sum_h, n, 1)


@pytest.mark.parametrize("seed", range(8))
def test_boosted_model_matches_reference_grower(seed):
    rng = np.random.default_rng(100 + seed)
    n, d = 50, 15
    dense = random_matrix(rng, n, d, 0.25, ties=seed % 2 == 0)
    n_classes = 2 + seed % 3
    y = rng.integers(0, n_classes, size=n).astype(np.int64)
    y[:n_classes] = np.arange(n_classes)
    min_leaf = 1 + seed % 5
    X = sparse.csr_matrix(dense)
    model = estimator("gbt", n_trees=6, max_leaves=8,
                      min_samples_per_leaf=min_leaf).fit(X, y, n_classes)
    assert model.to_dict() == reference_boosted(
        X, y, n_classes, n_trees=6, max_leaves=8, min_leaf=min_leaf,
        learning_rate=model.learning_rate)


def test_boosted_model_on_corpus_matches_reference_grower(small_dataset,
                                                          monkeypatch):
    from refdoc import pipeline

    captured = {}
    real_fit = BoostedClassifier.fit

    def capture(self, X, y_idx, n_classes):
        captured.update(X=X, y=y_idx, k=n_classes)
        return real_fit(self, X, y_idx, n_classes)

    monkeypatch.setattr(BoostedClassifier, "fit", capture)
    model = pipeline.fit(small_dataset, ModelConfig(
        algorithm="gbt", hyperparameters={"n_trees": 10}))
    est = model.estimator
    assert est.to_dict() == reference_boosted(
        captured["X"], captured["y"], captured["k"], n_trees=10,
        max_leaves=est.max_leaves, min_leaf=est.min_leaf,
        learning_rate=est.learning_rate)


@pytest.mark.parametrize("seed", range(8))
def test_gbt_split_agrees_across_backends(seed):
    """The batched kernel against the brute-force oracle, on the whole
    row set and on a random leaf."""
    rng = np.random.default_rng(seed)
    n, d = 40, 25
    dense = random_matrix(rng, n, d, 0.15, ties=False)
    g, h = random_gradients(rng, n, ties=False)
    csc = build_sorted_csc(sparse.csr_matrix(dense))
    for leaf_rows in (np.arange(n), np.flatnonzero(rng.random(n) < 0.6)):
        sum_g, sum_h = float(g[leaf_rows].sum()), float(h[leaf_rows].sum())
        gains, feats, thrs = get_kernels().gbt_best_split(
            csc[1], csc[2], csc[3], [leaf_entries(csc, leaf_rows, n)], [0],
            [leaf_rows.size], [sum_g], [sum_h], [g], [h], 3)
        cands = oracle_gbt_candidates(dense, leaf_rows.tolist(), g, h, 3)
        best = max((c[0] for c in cands), default=-np.inf)
        if best <= 0.0:
            assert feats[0] == -1
            continue
        assert gains[0] == pytest.approx(best, rel=1e-9)
        chosen = [c for c in cands if c[1] == feats[0] and c[2] == thrs[0]]
        assert chosen and chosen[0][0] == pytest.approx(best, rel=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_rf_candidates_agree_bitwise_across_backends(seed):
    """The forest kernel against the dense brute-force oracle, exactly."""
    rng = np.random.default_rng(seed)
    n, d = 50, 30
    dense = random_matrix(rng, n, d, 0.2, ties=seed % 2 == 0)
    y = rng.integers(0, 4, size=n).astype(np.int64)
    weights = rng.integers(0, 3, size=n).astype(np.int64)
    node_of = np.where(weights > 0, 0, -1).astype(np.int64)
    node_of[rng.random(n) < 0.2] = 1               # rows of another node
    node_rows = np.flatnonzero(node_of == 0)
    counts = np.zeros(4, dtype=np.int64)
    np.add.at(counts, y[node_rows], weights[node_rows])
    cand_feats = rng.integers(0, d, size=64).astype(np.int64)
    cand_fracs = rng.random(64)
    csc = build_sorted_csc(sparse.csr_matrix(dense))
    got = get_kernels().rf_best_candidate(
        *csc[:3], node_of, 0, y, weights, 4, cand_feats, cand_fracs,
        counts, int(counts.sum()), 1)
    assert got == oracle_rf_best(dense, node_rows.tolist(), y, weights, 4,
                                 cand_feats, cand_fracs, 1)


def random_forest_node(rng, n, d, n_classes, ties):
    """A sorted CSC matrix and one node (id 0) of a forest under bootstrap
    weights: out-of-bag rows have node_of -1, some rows sit in node 1."""
    dense = random_matrix(rng, n, d, 0.25, ties)
    dense[:, 2] = 0.0                             # a column with no entries
    dense[:, 3] = np.where(rng.random(n) < 0.5, 0.7, 0.0)
    y = rng.integers(0, n_classes, size=n).astype(np.int64)
    weights = rng.integers(0, 3, size=n).astype(np.int64)
    node_of = np.where(weights > 0, 0, -1).astype(np.int64)
    node_of[(weights > 0) & (rng.random(n) < 0.3)] = 1
    node_of[dense[:, 3] > 0] = 1                  # column 3: other nodes only
    weights[node_of == 0] = np.maximum(weights[node_of == 0], 1)
    counts = np.zeros(n_classes, dtype=np.int64)
    np.add.at(counts, y[node_of == 0], weights[node_of == 0])
    return (build_sorted_csc(sparse.csr_matrix(dense)), dense, y, weights,
            node_of, counts)


def both_rf_best(csc, node_of, y, weights, n_classes, cand_feats,
                 cand_fracs, counts, min_leaf):
    """(batched kernel, reference loop) on one node."""
    args = (*csc[:3], node_of, 0, y, weights, n_classes,
            np.asarray(cand_feats, dtype=np.int64),
            np.asarray(cand_fracs, dtype=np.float64), counts,
            int(counts.sum()), min_leaf)
    return (get_kernels().rf_best_candidate(*args),
            reference_rf_best_candidate(*args))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("min_leaf", [0, 1, 5])
@pytest.mark.parametrize("seed", range(10))
def test_rf_batched_candidates_match_the_reference_loop(seed, min_leaf):
    """Random nodes, 128 candidates over 25 columns (so features repeat,
    some columns are empty or have no in-node entries), exactly, and with
    no 0/0 on a candidate that the reference skips."""
    rng = np.random.default_rng(seed)
    n_classes = 2 + seed % 6
    csc, _, y, weights, node_of, counts = random_forest_node(
        rng, 60, 25, n_classes, ties=seed % 2 == 0)
    fracs = rng.random(128)
    fracs[::9] = 1.0                              # thr falls back to vmin
    got, want = both_rf_best(csc, node_of, y, weights, n_classes,
                             rng.integers(0, 25, size=128), fracs, counts,
                             min_leaf)
    assert got == want
    assert type(got[1]) is int


def test_rf_node_without_a_legal_candidate():
    rng = np.random.default_rng(0)
    csc, _, y, weights, node_of, counts = random_forest_node(
        rng, 40, 10, 3, ties=False)
    # column 2 is empty, column 3 has no in-node entry, and no split leaves
    # a whole node's weight on both sides
    for feats, min_leaf in (([2, 2], 1), ([2, 3, 2], 1),
                            ([0, 1, 4], int(counts.sum()))):
        got, want = both_rf_best(csc, node_of, y, weights, 3, feats,
                                 [0.5] * len(feats), counts, min_leaf)
        assert got == want == (0.0, -1, 0.0)
    # one in-node value and no zeros: the min is the max
    csc = build_sorted_csc(sparse.csr_matrix(np.array([[0.5], [0.5], [0.9]])))
    got, want = both_rf_best(csc, np.array([0, 0, 1]), np.array([0, 1, 1]),
                             np.array([1, 1, 1]), 2, [0, 0], [0.5, 0.0],
                             np.array([1, 1]), 0)
    assert got == want == (0.0, -1, 0.0)


def test_rf_equal_gains_go_to_the_first_candidate():
    rng = np.random.default_rng(4)
    csc, dense, y, weights, node_of, counts = random_forest_node(
        rng, 50, 12, 3, ties=True)
    assert np.array_equal(dense[:, 0], dense[:, 11])   # duplicated columns
    for feats in ([0, 11, 0], [11, 0, 11], [4, 4]):
        got, want = both_rf_best(csc, node_of, y, weights, 3, feats,
                                 [0.3] * len(feats), counts, 1)
        assert got == want
        assert got[1] == feats[0]


def test_rf_threshold_at_the_max_falls_back_to_the_min():
    dense = np.array([[0.25, 0.0], [0.5, 0.0], [0.75, 1.0], [0.75, 0.0]])
    y = np.array([0, 0, 1, 1])
    weights = np.array([1, 2, 1, 0])
    node_of = np.array([0, 0, 0, -1])
    counts = np.array([3, 1])
    csc = build_sorted_csc(sparse.csr_matrix(dense))
    got, want = both_rf_best(csc, node_of, y, weights, 2, [0], [1.0],
                             counts, 1)
    assert got == want
    assert got[1] == 0 and got[2] == 0.25               # vmin, no zeros


@pytest.mark.parametrize("seed", range(4))
def test_build_sorted_csc_matches_dense_enumeration(seed):
    rng = np.random.default_rng(seed)
    dense = random_matrix(rng, 30, 12, 0.3, ties=True)
    indptr, rows, vals, cols = build_sorted_csc(sparse.csr_matrix(dense))
    want = sorted((j, dense[r, j], r) for r in range(30) for j in range(12)
                  if dense[r, j] != 0.0)
    assert list(zip(cols.tolist(), vals.tolist(), rows.tolist())) == want
    assert indptr.tolist() == [sum(1 for j, _v, _r in want if j < k)
                               for k in range(13)]


def test_build_sorted_csc_orders_by_column_then_value():
    X = sparse.csr_matrix(np.array([[0.5, 0.0], [0.1, 2.0], [0.9, 0.0]]))
    indptr, rows, vals, cols = build_sorted_csc(X)
    assert indptr.tolist() == [0, 3, 4]
    assert vals[:3].tolist() == sorted(vals[:3].tolist())
    assert rows[:3].tolist() == [1, 0, 2]
    assert cols.tolist() == [0, 0, 0, 1]


def test_gbt_partition_moves_matching_rows():
    X = sparse.csr_matrix(np.array([[0.2, 1.0], [0.8, 0.0], [0.0, 1.0],
                                    [0.5, 1.0], [0.4, 0.0]]))
    indptr, rows, vals, _ = build_sorted_csc(X)
    node_of = np.zeros(5, dtype=np.int64)
    g = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    h = np.ones(5)
    left, right, rn, rg, rh = get_kernels().gbt_partition(
        indptr, rows, vals, node_of, np.arange(rows.size), 0, 0.4, 7, g, h)
    assert (rn, rg, rh) == (2, 10.0, 2.0)      # rows with value > 0.4
    assert node_of.tolist() == [0, 7, 0, 7, 0]
    assert rows[left].tolist() == [0, 4, 0, 2]  # (col, val, row) order kept
    assert rows[right].tolist() == [3, 1, 3]


def test_boosted_fit_deterministic():
    rng = np.random.default_rng(500)
    n, d = 60, 40
    dense = np.where(rng.random((n, d)) < 0.12, rng.random((n, d)), 0.0)
    X = sparse.csr_matrix(dense)
    y = rng.integers(0, 3, size=n).astype(np.int64)
    first = estimator("gbt", n_trees=15, min_samples_per_leaf=3).fit(X, y, 3)
    second = estimator("gbt", n_trees=15, min_samples_per_leaf=3).fit(X, y, 3)
    assert first.to_dict() == second.to_dict()


def test_tree_code_looks_kernels_up_at_call_time(monkeypatch):
    namespace = trees.get_kernels()
    assert all(callable(getattr(namespace, k)) for k in KERNEL_NAMES)
    calls = dict.fromkeys(KERNEL_NAMES, 0)
    for name in KERNEL_NAMES:
        def counted(*args, _name=name, _fn=getattr(namespace, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(namespace, name, counted)
    rng = np.random.default_rng(7)
    X = sparse.csr_matrix(np.where(rng.random((40, 10)) < 0.3,
                                   rng.random((40, 10)), 0.0))
    y = np.arange(40) % 2
    estimator("gbt", n_trees=2, min_samples_per_leaf=2).fit(X, y, 2)
    estimator("rf", n_estimators=2).fit(X, y, 2)
    assert all(calls.values()), calls

