"""BoostedClassifier.score_row scores through a QuickScorer. Its scores
must equal the per-tree loop of the first boosted scorer bit for bit, and
its leaf values those of Tree.predict_row, tree by tree."""

import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refdoc import features, pipeline
from refdoc.classifiers import ModelConfig, dense_row, make_estimator
from refdoc.model_io import load_model, save_model
from refdoc.trees import QuickScorer, Tree, sigmoid

INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"


def reference_score_row(model, row):
    """BoostedClassifier.score_row as it was before any flat scorer,
    verbatim: one tree walk at a time, margins summed in tree order."""
    margins = []
    for f0, class_trees in zip(model.f0, model.trees):
        z = f0
        for tree in class_trees:
            z += model.learning_rate * tree.predict_row(row)
        margins.append(z)
    return sigmoid(margins)


def message_row(model, message):
    counts = features.vectors_to_csr(
        [pipeline.featurize(message, model.vocab.n_max)], model.vocab.columns)
    return dense_row(features.vectorize(counts, model.vocab), 0)


def assert_scores_match(estimator, rows):
    for i, row in enumerate(rows):
        assert np.array_equal(estimator.score_row(row),
                              reference_score_row(estimator, row)), i


def test_every_bundled_corpus_row(gbt_model, synthetic_dataset):
    assert_scores_match(gbt_model.estimator,
                        [message_row(gbt_model, r.message)
                         for r in synthetic_dataset])


def test_long_serve_messages(gbt_model):
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    long_messages = [m for m, _ in inputs.Traffic(1).long]
    assert len(long_messages) == 10
    assert_scores_match(gbt_model.estimator,
                        [message_row(gbt_model, m) for m in long_messages])


def test_model_through_save_and_load(gbt_model, synthetic_dataset, tmp_path):
    path = tmp_path / "gbt.json"
    save_model(gbt_model, path)
    restored = load_model(path).estimator
    for r in list(synthetic_dataset)[::7]:
        row = message_row(gbt_model, r.message)
        assert np.array_equal(restored.score_row(row),
                              reference_score_row(restored, row))
        assert np.array_equal(restored.score_row(row),
                              gbt_model.estimator.score_row(row))


def _split_nodes(estimator):
    return [(f, t) for class_trees in estimator.trees for tree in class_trees
            for f, t in zip(tree.feature, tree.threshold) if f >= 0]


@pytest.fixture(scope="module")
def split_strategy(gbt_model):
    """Rows that set split features to a split threshold (a <= tie goes
    left), to zero or to 1e6."""
    n = gbt_model.vocab.n_selected
    splits = _split_nodes(gbt_model.estimator)
    feats = sorted({f for f, _ in splits})
    thresholds = sorted({t for _, t in splits})

    def to_row(assigned):
        row = np.zeros(n)
        for f, v in assigned.items():
            row[f] = v
        return row

    return st.dictionaries(
        st.sampled_from(feats),
        st.one_of(st.sampled_from(thresholds), st.sampled_from([0.0, 1e6])),
        max_size=40).map(to_row)


def test_rows_on_the_split_thresholds(gbt_model, split_strategy):
    @settings(max_examples=150, deadline=None)
    @given(split_strategy)
    def check(row):
        assert np.array_equal(gbt_model.estimator.score_row(row),
                              reference_score_row(gbt_model.estimator, row))
    check()


LEAF = {"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1],
        "value": [0.5]}
SPLIT = {"feature": [1, -1, -1], "threshold": [0.25, 0.0, 0.0],
         "left": [1, -1, -1], "right": [2, -1, -1], "value": [0.0, -1.5, 2.0]}


def boosted(n_trees):
    return make_estimator(ModelConfig(algorithm="gbt",
                                      hyperparameters={"n_trees": n_trees}))


def test_single_leaf_trees():
    # class 0: a one-leaf tree then a split; class 1: a split then a leaf
    estimator = boosted(2).load_dict(
        {"f0": [0.1, -0.3], "trees": [[LEAF, SPLIT], [SPLIT, LEAF]]}, 2, 2)
    scorer = estimator.scorer
    assert scorer.words == 1
    assert scorer.leaf_start.tolist() == [0, 1, 3, 5]
    assert scorer.leaf_value.tolist() == [0.5, -1.5, 2.0, -1.5, 2.0, 0.5]
    # both splits test feature 1; failing, each rules out its leaf 0
    assert scorer.ptr.tolist() == [0, 0, 2]
    assert scorer.tree.tolist() == [1, 2]
    assert scorer.mask.tolist() == [[2**64 - 2]] * 2
    assert_scores_match(estimator, [np.array(r) for r in
                                    ([0.0, 0.0], [0.0, 0.25], [0.0, 0.3])])


def test_negative_thresholds_are_rejected():
    # a split threshold, a leaf's unused one, and the smallest below 0
    for threshold in ([-0.5, 0.0, 0.0], [0.25, -1.0, 0.0],
                      [-5e-324, 0.0, 0.0]):
        split = dict(SPLIT, threshold=threshold)
        with pytest.raises(ValueError, match=">= 0"):
            boosted(1).load_dict({"f0": [0.1], "trees": [[split]]}, 1, 2)
    # -0.0 == 0: a feature that reads 0 or -0.0 goes left either way
    split = dict(SPLIT, threshold=[-0.0, 0.0, 0.0])
    estimator = boosted(1).load_dict({"f0": [0.1], "trees": [[split]]}, 1, 2)
    for row, leaf in (([0.0, 0.0], -1.5), ([0.0, -0.0], -1.5),
                      ([0.0, -0.7], -1.5), ([0.3, 5e-324], 2.0)):
        assert estimator.scorer.leaf_values(np.array(row)).tolist() == [leaf]


GRID = [-1.0, -0.25, 0.0, 0.25, 0.5, 1.0]  # row values
THRESHOLDS = [-0.0] + [v for v in GRID if v >= 0.0]  # as the loader admits


def random_tree(rng, n_splits, n_features):
    """A tree grown by splitting a random leaf n_splits times, on
    thresholds from THRESHOLDS; leaf values are distinct."""
    tree = Tree()
    leaves = [tree.add_leaf(float(rng.normal()))]
    for _ in range(n_splits):
        node = leaves.pop(int(rng.integers(len(leaves))))
        left = tree.add_leaf(float(rng.normal()))
        right = tree.add_leaf(float(rng.normal()))
        tree.make_split(node, int(rng.integers(n_features)),
                        float(rng.choice(THRESHOLDS)), left, right)
        leaves += [left, right]
    return tree


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 140), min_size=1, max_size=5),
       st.integers(0, 2**32 - 1))
def test_leaf_values_equal_predict_row_for_every_tree(n_splits, seed):
    """Single-leaf trees, trees of over 64 leaves (two or three mask
    words), thresholds of -0.0, and rows with values on a threshold, with
    negative values, explicit zeros and -0.0."""
    n_features = 6
    rng = np.random.default_rng(seed)
    trees = [random_tree(rng, n, n_features) for n in n_splits]
    scorer = QuickScorer([trees], n_features)
    assert scorer.words == -(-(max(n_splits) + 1) // 64)
    rows = rng.choice(GRID + [-0.0, 0.1, 0.7], size=(8, n_features))
    rows[rng.random(rows.shape) < 0.4] = 0.0
    for row in rows:
        assert scorer.leaf_values(row).tolist() == [
            tree.predict_row(row) for tree in trees]


@pytest.fixture(scope="module")
def wide_gbt_model(synthetic_dataset):
    return pipeline.fit(synthetic_dataset, ModelConfig(
        algorithm="gbt", hyperparameters={
            "n_trees": 2, "max_leaves": 100, "min_samples_per_leaf": 1}))


def test_trees_of_more_than_64_leaves(wide_gbt_model, synthetic_dataset):
    model = wide_gbt_model
    estimator = model.estimator
    assert max(len(t.feature) for class_trees in estimator.trees
               for t in class_trees) > 2 * 64 - 1
    assert estimator.scorer.words == 2
    assert_scores_match(estimator, [message_row(model, r.message)
                                    for r in synthetic_dataset])


def test_trained_trees_hold_no_negative_threshold(bundled_models,
                                                  wide_gbt_model):
    """A split threshold lies between TF-IDF weights, which are never
    negative, so every tree training makes passes Tree.from_dict."""
    for model in (bundled_models["gbt"], bundled_models["rf"],
                  wide_gbt_model):
        trees = model.estimator.trees
        if model.config.algorithm == "gbt":
            trees = [tree for class_trees in trees for tree in class_trees]
        thresholds = [t for tree in trees
                      for f, t in zip(tree.feature, tree.threshold) if f >= 0]
        assert thresholds and min(thresholds) > 0.0, model.config.algorithm


@pytest.mark.parametrize("trees", [
    [[LEAF, SPLIT], []],             # ragged: class 1 has no trees
    [[LEAF, SPLIT], [SPLIT]],        # ragged: one tree short
    [[LEAF, SPLIT, LEAF], [SPLIT, LEAF, SPLIT]],  # equal, but not n_trees
], ids=["empty-class", "one-short", "three-each"])
def test_tree_counts_other_than_n_trees_per_class_are_rejected(trees):
    with pytest.raises(ValueError, match="n_trees = 2"):
        boosted(2).load_dict({"f0": [0.1, -0.3], "trees": trees}, 2, 2)


def test_shared_child_chain_is_rejected_quickly():
    # both children of each split are one node: a chain of 59 such splits
    # has 60 nodes but 2**59 root-to-leaf paths
    n = 60
    chain = {"feature": [0] * (n - 1) + [-1],
             "threshold": [float(i) for i in range(n)],
             "left": list(range(1, n)) + [-1],
             "right": list(range(1, n)) + [-1],
             "value": [0.0] * (n - 1) + [1.5]}
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exactly one split"):
        boosted(1).load_dict({"f0": [0.1], "trees": [[chain]]}, 1, 1)
    assert time.perf_counter() - start < 1.0
