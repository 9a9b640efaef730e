"""Gradient-boosted and random-forest tree models over sparse TF-IDF rows.

Both models are built on the kernels module. Boosted regression trees grow
leaf-wise on logistic-loss gradients, one-vs-all per class. The classes
are boosted apart in worker processes (workers.map_parts); the trees of
one worker's classes in a boosting round grow in lock-step over
leaf-local entry lists, so one kernel call scores the new leaves of all
of them. Forest trees, fitted in worker processes too, grow depth-first
on bootstrap replicates, scoring a fixed number of random (feature,
threshold) candidates per node. All randomness is pre-drawn from
per-tree generator streams spawned from (seed, tree index), so training
is deterministic. A boosted model scores a row through a QuickScorer of
its trees, which visits only the splits of the row's nonzero features.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from .errors import NonFinite
from .kernels import build_sorted_csc, get_kernels
from .workers import map_parts

# Newton leaf steps are clipped so a single tree cannot push a margin to
# floating overflow before the loss check sees it.
MAX_LEAF_VALUE = 20.0


def sigmoid(z):
    with np.errstate(over="ignore"):  # overflow saturates to exactly 0 or 1
        return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=np.float64)))


class Tree:
    """Flat-array binary tree. feature == -1 marks a leaf."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self):
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.value = []

    def add_leaf(self, value):
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        return len(self.feature) - 1

    def make_split(self, node, feature, threshold, left, right):
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.left[node] = left
        self.right[node] = right
        self.value[node] = 0.0

    def predict_row(self, row):
        """Evaluate one dense feature row."""
        node = 0
        while self.feature[node] >= 0:
            if row[self.feature[node]] <= self.threshold[node]:
                node = self.left[node]
            else:
                node = self.right[node]
        return self.value[node]

    def to_dict(self):
        return {
            "feature": list(self.feature),
            "threshold": [float(t) for t in self.threshold],
            "left": list(self.left),
            "right": list(self.right),
            "value": [float(v) for v in self.value],
        }

    @classmethod
    def from_dict(cls, d, n_features, n_classes=None, max_depth=None):
        """Rebuild a tree, rejecting any shape fit does not make.

        Children come after their parent, so a valid tree has no cycles,
        and every node but the root is the child of exactly one split.
        Feature ids and child indices must be integers; with n_classes,
        leaf values must be whole-number class indices below it, and with
        max_depth, no node may lie more than max_depth splits below the
        root. No threshold may be negative (-0.0 is not).
        """
        tree = cls()
        tree.feature = [operator.index(x) for x in d["feature"]]
        tree.threshold = [float(x) for x in d["threshold"]]
        tree.left = [operator.index(x) for x in d["left"]]
        tree.right = [operator.index(x) for x in d["right"]]
        tree.value = [float(x) for x in d["value"]]
        n = len(tree.feature)
        if n == 0 or any(len(a) != n for a in (tree.threshold, tree.left,
                                               tree.right, tree.value)):
            raise ValueError("tree arrays must share one nonzero length")
        if not (all(map(math.isfinite, tree.threshold + tree.value))
                and min(tree.threshold) >= 0.0):
            raise ValueError("tree thresholds must be finite and >= 0, "
                             "and leaf values finite")
        children = []
        depth = [0] * n  # final at each node, as its parent comes first
        for node, feat in enumerate(tree.feature):
            if feat >= 0:
                left, right = tree.left[node], tree.right[node]
                if not (feat < n_features and node < left < n
                        and node < right < n):
                    raise ValueError(f"tree node {node} is not a valid split")
                children += (left, right)
                depth[left] = depth[right] = depth[node] + 1
            elif n_classes is not None and tree.value[node] not in range(n_classes):
                raise ValueError(f"tree leaf {node} names no class")
        if sorted(children) != list(range(1, n)):
            raise ValueError("every tree node but the root must be the "
                             "child of exactly one split")
        if max_depth is not None and max(depth) > max_depth:
            raise ValueError(f"tree is deeper than max_depth = {max_depth}")
        return tree


def _leaf_value(sum_g, sum_h):
    if sum_h < 1e-12:
        return 0.0
    return min(max(sum_g / sum_h, -MAX_LEAF_VALUE), MAX_LEAF_VALUE)


class _Leaf:
    """A growing boosted-tree leaf and its best split (feature -1: none)."""

    __slots__ = ("node", "entries", "count", "sum_g", "sum_h", "gain",
                 "feature", "threshold")

    def __init__(self, node, entries, count, sum_g, sum_h):
        self.node = node
        self.entries = entries  # CSC entry indices of its rows, in order
        self.count = count
        self.sum_g = sum_g
        self.sum_h = sum_h
        self.gain, self.feature, self.threshold = 0.0, -1, 0.0


def fit_regression_tree(csc, g, h, max_leaves, min_leaf):
    """One leaf-wise boosted tree per class, grown in lock-step.

    Class c's tree fits gradients g[c] with hessians h[c]. Each step
    splits the best leaf of every class still growing, then scores all
    the new leaves in one kernel call; a class's tree does not depend on
    the others. Returns (trees, per-class prediction on the training
    rows).
    """
    kernels = get_kernels()
    indptr, rows, vals, col_of = csc
    n_rows = g[0].size
    trees = [Tree() for _ in g]
    node_of = [np.zeros(n_rows, dtype=np.int64) for _ in g]
    leaves = [[] for _ in g]  # per class: the _Leaf of partition id i at i
    all_entries = np.arange(rows.size)
    new = []  # (class, leaf) still to score
    for c in range(len(g)):
        sg, sh = float(np.sum(g[c])), float(np.sum(h[c]))
        root = trees[c].add_leaf(_leaf_value(sg, sh))
        leaves[c].append(_Leaf(root, all_entries, n_rows, sg, sh))
        new.append((c, leaves[c][0]))

    while new:
        batch = [(c, leaf) for c, leaf in new
                 if leaf.count >= 2 * min_leaf and leaf.sum_h > 0.0]
        if batch:
            gains, feats, thrs = kernels.gbt_best_split(
                rows, vals, col_of, [leaf.entries for _, leaf in batch],
                [c for c, _ in batch], [leaf.count for _, leaf in batch],
                [leaf.sum_g for _, leaf in batch],
                [leaf.sum_h for _, leaf in batch], g, h, min_leaf)
            for (_, leaf), gain, feat, thr in zip(batch, gains, feats, thrs):
                leaf.gain, leaf.feature, leaf.threshold = (
                    float(gain), int(feat), float(thr))
        new = []
        for c, class_leaves in enumerate(leaves):
            if len(class_leaves) >= max_leaves:
                continue
            # the first leaf of the largest gain, if that gain is positive
            best_pid = max(range(len(class_leaves)),
                           key=lambda pid: class_leaves[pid].gain)
            leaf = class_leaves[best_pid]
            if not leaf.gain > 0.0:
                continue
            left_entries, right_entries, rn, rg, rh = kernels.gbt_partition(
                indptr, rows, vals, node_of[c], leaf.entries, leaf.feature,
                leaf.threshold, len(class_leaves), g[c], h[c])
            ln, lg, lh = leaf.count - rn, leaf.sum_g - rg, leaf.sum_h - rh
            left_node = trees[c].add_leaf(_leaf_value(lg, lh))
            right_node = trees[c].add_leaf(_leaf_value(rg, rh))
            trees[c].make_split(leaf.node, leaf.feature, leaf.threshold,
                                left_node, right_node)
            class_leaves[best_pid] = _Leaf(left_node, left_entries, ln, lg, lh)
            class_leaves.append(_Leaf(right_node, right_entries, rn, rg, rh))
            if len(class_leaves) < max_leaves:  # else they never split
                new += [(c, class_leaves[best_pid]), (c, class_leaves[-1])]

    preds = [np.array([trees[c].value[leaf.node] for leaf in class_leaves],
                      dtype=np.float64)[node_of[c]]
             for c, class_leaves in enumerate(leaves)]
    return trees, preds


class QuickScorer:
    """QuickScorer (Lucchese et al., SIGIR 2015) over the trees of a
    boosted model, for sparse rows.

    Each tree's leaves are numbered left to right. A split whose test
    fails (row[feature] > threshold, so Tree.predict_row goes right)
    rules out the leaves of its left subtree: its mask, W 64-bit words,
    has their bits clear. A tree's exit leaf is the lowest bit left set
    once the masks of its failed splits are ANDed together; its rightmost
    leaf is never cleared, so one always is. Thresholds are never negative
    (Tree.from_dict), like TF-IDF weights, so a feature that reads 0 fails
    no split: ptr groups the splits by feature, sorted by threshold.
    """

    def __init__(self, class_trees, n_features):
        """class_trees: per class, its trees; features < n_features."""
        trees = [tree for per_class in class_trees for tree in per_class]
        (tree_leaves, self.leaf_value, feature, threshold, tree, lo,
         hi) = _numbered_leaves(trees)
        self.words = -(-int(tree_leaves.max()) // 64)  # W, from the trees
        # each tree's leaf values, in leaf order, from leaf_start[tree] on
        self.leaf_start = np.cumsum(tree_leaves) - tree_leaves
        order = np.lexsort((threshold, feature))  # by feature, then threshold
        self.ptr = np.concatenate(([0], np.cumsum(np.bincount(
            feature[order], minlength=n_features))))
        self.threshold = threshold[order]
        self.tree = tree[order]
        word_start = 64 * np.arange(self.words)
        self.mask = (~_low_bits(np.clip(hi[order, None] - word_start, 0, 64))
                     | _low_bits(np.clip(lo[order, None] - word_start, 0, 64)))

    def leaf_values(self, row):
        """The leaf value each tree gives one dense row, in tree order."""
        feats = np.flatnonzero(row != 0)  # nonzero scans bools ~4x faster
        start, stop = self.ptr[feats], self.ptr[feats + 1]
        count = stop - start
        # the splits of the row's nonzero features, feature by feature
        span = (np.repeat(start - np.cumsum(count) + count, count)
                + np.arange(count.sum()))
        failed = span[self.threshold[span] < np.repeat(row[feats], count)]
        bits = np.full((self.leaf_start.size, self.words), _ALL_BITS)
        np.bitwise_and.at(bits, self.tree[failed], self.mask[failed])
        # each word's lowest set bit alone, 2**k, and so its k: a power of
        # two converts to float64 exactly, and frexp(2.0**k) = (0.5, k + 1)
        lowest = bits & (~bits + np.uint64(1))
        zeros = np.frexp(lowest.astype(np.float64))[1] - 1  # -1 in a 0 word
        # the last word is never 0: it holds the rightmost leaf or no leaf
        leaf = zeros[:, -1]
        for w in range(self.words - 2, -1, -1):
            leaf = np.where(zeros[:, w] >= 0, zeros[:, w], 64 + leaf)
        return self.leaf_value[self.leaf_start + leaf]


_ALL_BITS = np.uint64(2**64 - 1)


def _numbered_leaves(trees):
    """Number each tree's leaves left to right, one level of every tree at
    a time, bottom-up for the leaf count below each node, then top-down
    for the number of its first leaf.

    Returns each tree's leaf count, the leaf values in leaf order, tree
    after tree, and per split its feature, threshold, tree, lo and hi,
    where leaves lo up to, not including, hi make its left subtree. Node
    ids are int32: the temporaries here set a server's peak memory.
    """
    sizes = np.array([len(tree.feature) for tree in trees], dtype=np.int32)
    roots = np.cumsum(sizes, dtype=np.int32) - sizes
    tree_of = np.repeat(np.arange(len(trees), dtype=np.int32), sizes)
    feature = _concat(trees, "feature", np.int32)
    left = _concat(trees, "left", np.int32) + roots[tree_of]
    right = _concat(trees, "right", np.int32) + roots[tree_of]
    is_split = feature >= 0
    levels, nodes = [], roots  # the splits of each level, root level first
    while nodes.size:
        nodes = nodes[is_split[nodes]]
        levels.append(nodes)
        nodes = np.concatenate((left[nodes], right[nodes]))
    leaves = (~is_split).astype(np.int32)  # the leaves below each node
    for nodes in reversed(levels):
        leaves[nodes] = leaves[left[nodes]] + leaves[right[nodes]]
    first = np.zeros(feature.size, dtype=np.int32)  # its first leaf's number
    for nodes in levels:
        first[left[nodes]] = first[nodes]
        first[right[nodes]] = first[nodes] + leaves[left[nodes]]

    tree_leaves = leaves[roots]
    leaf = np.flatnonzero(~is_split)
    values = np.empty(leaf.size, dtype=np.float64)
    values[(np.cumsum(tree_leaves) - tree_leaves)[tree_of[leaf]]
           + first[leaf]] = _concat(trees, "value", np.float64)[leaf]
    split = np.flatnonzero(is_split)
    lo = first[split]
    return (tree_leaves, values, feature[split],
            _concat(trees, "threshold", np.float64)[split], tree_of[split],
            lo, lo + leaves[left[split]])


def _concat(trees, name, dtype):
    """One array of the named Tree list of every tree, in order."""
    return np.fromiter(itertools.chain.from_iterable(
        getattr(tree, name) for tree in trees), dtype=dtype,
        count=sum(len(tree.feature) for tree in trees))


def _low_bits(k):
    """uint64 words whose lowest k bits are set, for 0 <= k <= 64."""
    k = k.astype(np.uint64)
    one = np.uint64(1)
    return np.where(k == 64, _ALL_BITS, (one << np.minimum(k, 63)) - one)


class BoostedClassifier:
    """One-vs-all gradient boosting with logistic loss."""

    def __init__(self, *, n_trees, max_leaves, min_samples_per_leaf,
                 learning_rate):
        self.n_trees = int(n_trees)
        self.max_leaves = int(max_leaves)
        self.min_leaf = int(min_samples_per_leaf)
        self.learning_rate = float(learning_rate)
        self.f0 = None          # per class
        self.trees = None       # per class list of Tree
        self.scorer = None      # QuickScorer of self.trees

    def fit(self, X_csr, y_idx, n_classes):
        csc = build_sorted_csc(X_csr)
        ys = [(y_idx == c).astype(np.float64) for c in range(n_classes)]
        self.f0 = []
        for y in ys:
            pbar = float(y.mean())
            pbar = min(max(pbar, 1e-12), 1.0 - 1e-12)
            self.f0.append(math.log(pbar / (1.0 - pbar)))
        self.trees = map_parts(
            lambda classes: self._boost(csc, [ys[c] for c in classes],
                                        [self.f0[c] for c in classes]),
            range(n_classes))
        self.scorer = QuickScorer(self.trees, X_csr.shape[1])
        return self

    def _boost(self, csc, ys, f0s):
        """The tree lists of the classes with targets ys, boosted together
        from margins f0s."""
        margins = [np.full(y.size, f0, dtype=np.float64)
                   for y, f0 in zip(ys, f0s)]
        probs = [sigmoid(m) for m in margins]
        class_trees = [[] for _ in ys]
        for _ in range(self.n_trees):
            trees, train_preds = fit_regression_tree(
                csc, [y - p for y, p in zip(ys, probs)],
                [p * (1.0 - p) for p in probs], self.max_leaves,
                self.min_leaf)
            for c, y in enumerate(ys):
                margins[c] = margins[c] + self.learning_rate * train_preds[c]
                probs[c] = p = sigmoid(margins[c])
                pos = p[y == 1.0]
                neg = p[y == 0.0]
                with np.errstate(divide="ignore"):
                    loss = -(np.log(pos).sum() + np.log(1.0 - neg).sum())
                if not np.isfinite(loss):
                    raise NonFinite(
                        "boosting loss diverged; lower the learning rate")
                class_trees[c].append(trees[c])
        return class_trees

    def score_row(self, row):
        """Per-class sigmoid of the boosted margins for one dense row (the
        one-vs-all combination rule).

        cumsum adds in sequence along each class's row of (f0, steps), so
        each margin equals f0 + lr*v_1 + ... + lr*v_T summed tree by tree,
        bit for bit.
        """
        steps = self.learning_rate * self.scorer.leaf_values(row)
        margins = np.cumsum(np.column_stack(
            (self.f0, steps.reshape(len(self.f0), self.n_trees))), axis=1)
        return sigmoid(margins[:, -1])

    def to_dict(self):
        return {
            "f0": [float(v) for v in self.f0],
            "trees": [[t.to_dict() for t in class_trees]
                      for class_trees in self.trees],
        }

    def load_dict(self, d, n_classes, n_features):
        """Set f0 and the trees from to_dict() output; returns self."""
        self.f0 = [float(v) for v in d["f0"]]
        if (len(self.f0) != n_classes or len(d["trees"]) != n_classes
                or any(len(ts) != self.n_trees for ts in d["trees"])):
            raise ValueError("boosted model does not have one f0 and "
                             f"n_trees = {self.n_trees} trees per class")
        self.trees = [[Tree.from_dict(t, n_features) for t in class_trees]
                      for class_trees in d["trees"]]
        # a tree of n nodes has (n + 1) / 2 leaves
        if any(len(t.feature) > 2 * self.max_leaves - 1
               for class_trees in self.trees for t in class_trees):
            raise ValueError("a boosted tree has more than max_leaves = "
                             f"{self.max_leaves} leaves")
        if not all(math.isfinite(v) for v in self.f0):
            raise ValueError("boosted model f0 must be finite")
        self.scorer = QuickScorer(self.trees, n_features)
        return self


class ForestClassifier:
    """Bagged trees with random split candidates; score = vote fraction."""

    def __init__(self, *, n_estimators, max_depth, random_splits_per_node,
                 min_samples_per_leaf, seed):
        self.n_estimators = int(n_estimators)
        self.max_depth = int(max_depth)
        self.n_candidates = int(random_splits_per_node)
        self.min_leaf = int(min_samples_per_leaf)
        self.seed = int(seed)
        self.n_classes = None
        self.trees = None

    def _fit_one(self, csc, y_idx, n_classes, rng):
        """One bootstrap tree; node i, in creation order, scores row i of
        the candidates."""
        kernels = get_kernels()
        indptr, rows, vals, _ = csc
        n, n_features = y_idx.size, indptr.size - 1
        bag = rng.integers(0, n, size=n)
        weights = np.bincount(bag, minlength=n).astype(np.int64)
        node_of = np.where(weights > 0, 0, -1).astype(np.int64)

        max_nodes = 2 * n + 1
        cand_feats = rng.integers(0, n_features, size=(max_nodes, self.n_candidates))
        cand_feats = cand_feats.astype(np.int64)
        cand_fracs = rng.random((max_nodes, self.n_candidates))

        root_counts = np.zeros(n_classes, dtype=np.int64)
        np.add.at(root_counts, y_idx, weights)

        tree = Tree()
        root = tree.add_leaf(0)
        stack = [(0, root, 0, root_counts)]  # (partition id, node, depth, counts)
        next_pid = 1

        while stack:
            pid, tree_node, depth, counts = stack.pop()
            count = int(counts.sum())
            majority = int(np.argmax(counts))  # first max = lowest class index
            pure = counts[majority] == count
            if depth >= self.max_depth or pure or count < 2 * self.min_leaf:
                tree.value[tree_node] = majority
                continue
            gain, feat, thr = kernels.rf_best_candidate(
                indptr, rows, vals, node_of, pid, y_idx, weights, n_classes,
                cand_feats[tree_node], cand_fracs[tree_node], counts, count,
                self.min_leaf)
            if feat < 0:
                tree.value[tree_node] = majority
                continue
            right_pid = next_pid
            next_pid += 1
            right_counts = np.asarray(kernels.rf_partition(
                indptr, rows, vals, node_of, pid, feat, thr, right_pid,
                y_idx, weights, n_classes), dtype=np.int64)
            left_counts = counts - right_counts
            left_node = tree.add_leaf(0)
            right_node = tree.add_leaf(0)
            tree.make_split(tree_node, feat, thr, left_node, right_node)
            stack.append((right_pid, right_node, depth + 1, right_counts))
            stack.append((pid, left_node, depth + 1, left_counts))
        return tree

    def fit(self, X_csr, y_idx, n_classes):
        csc = build_sorted_csc(X_csr)
        self.n_classes = n_classes

        def fit_trees(ts):
            trees = []
            for t in ts:
                rng = np.random.default_rng(
                    np.random.SeedSequence(self.seed, spawn_key=(t,)))
                trees.append(self._fit_one(csc, y_idx, n_classes, rng))
            return trees

        self.trees = map_parts(fit_trees, range(self.n_estimators))
        return self

    def score_row(self, row):
        """Fraction of trees voting for each class."""
        votes = np.zeros(self.n_classes, dtype=np.float64)
        for tree in self.trees:
            votes[int(tree.predict_row(row))] += 1.0
        return votes / len(self.trees)

    def to_dict(self):
        return {"trees": [t.to_dict() for t in self.trees]}

    def load_dict(self, d, n_classes, n_features):
        """Set the trees from to_dict() output; returns self."""
        self.n_classes = n_classes
        if len(d["trees"]) != self.n_estimators:
            raise ValueError(f"forest does not have n_estimators = "
                             f"{self.n_estimators} trees")
        self.trees = [Tree.from_dict(t, n_features, n_classes, self.max_depth)
                      for t in d["trees"]]
        return self
