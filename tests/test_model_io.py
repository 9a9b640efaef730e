import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refdoc import pipeline
from refdoc.classifiers import ALGORITHMS, ModelConfig
from refdoc.corpus import RefactoringType
from refdoc.errors import ModelFormatError
from refdoc.model_io import FORMAT_VERSION, load_model, save_model
from refdoc.synthetic import FILLERS, NOISE_WORDS, generate_corpus


def fuzz_messages(n=1000, seed=123):
    import numpy as np
    rng = np.random.default_rng(seed)
    pool = NOISE_WORDS + FILLERS + [
        "renamed", "method", "name", "moved", "extracted", "inlined",
        "pulled", "pushed", "split", "merged", "common", "code", "class",
        "helper", "up", "down", "into", "the",
    ]
    out = []
    for _ in range(n):
        k = int(rng.integers(1, 12))
        out.append(" ".join(pool[int(rng.integers(0, len(pool)))]
                            for _ in range(k)))
    return out


@pytest.mark.parametrize("algo", ["nb", "logreg", "rf", "gbt"])
def test_roundtrip_predictions_identical(algo, tmp_path):
    ds = generate_corpus(seed=3, per_class=20)
    model = pipeline.fit(ds, ModelConfig(algorithm=algo))
    path = tmp_path / "model.json"
    save_model(model, path, corpus_fingerprint=ds.fingerprint())
    restored = load_model(path)
    for message in fuzz_messages(n=250):
        la, sa = pipeline.predict_message(model, message)
        lb, sb = pipeline.predict_message(restored, message)
        assert la is lb
        assert sa == sb  # floats survive the JSON round trip exactly


def test_large_fuzz_roundtrip_on_session_model(nb_model, tmp_path):
    path = tmp_path / "model.json"
    save_model(nb_model, path)
    restored = load_model(path)
    for message in fuzz_messages(n=1000):
        la, _ = pipeline.predict_message(nb_model, message)
        lb, _ = pipeline.predict_message(restored, message)
        assert la is lb


def test_version_mismatch_rejected(nb_model, tmp_path):
    path = tmp_path / "model.json"
    save_model(nb_model, path)
    payload = json.loads(path.read_text())
    payload["format_version"] = FORMAT_VERSION + 1
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError, match="version"):
        load_model(path)


def test_non_json_file_rejected(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("definitely not json")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_non_utf8_file_rejected(nb_model, tmp_path):
    path = tmp_path / "model.json"
    save_model(nb_model, path)
    path.write_bytes(path.read_bytes().replace(b'"nb"', b'"n\xe9"', 1))
    with pytest.raises(ModelFormatError, match="not UTF-8"):
        load_model(path)


def _drop_vocabulary(p):
    del p["vocabulary"]


def _drop_log_theta(p):
    del p["parameters"]["log_theta"]


def _string_pipeline(p):
    p["pipeline"] = "n_max=2"


def _number_for_ngrams(p):
    p["vocabulary"]["ngrams"] = 7


def _bad_hyperparameters(p):
    p["hyperparameters"] = ["alpha"]


def _stray_hyperparameter(p):
    p["hyperparameters"]["n_tree"] = 10


def _ragged_theta(p):
    p["parameters"]["log_theta"] = [[0.0], [0.0, 1.0]]


def _nb_theta_cut_to_5_columns(p):
    p["parameters"]["log_theta"] = [row[:5]
                                    for row in p["parameters"]["log_theta"]]


def _nb_prior_for_an_extra_class(p):
    p["parameters"]["log_prior"].append(-1.0)


def _weights_for_too_few_classes(p):
    p["parameters"]["weights"].pop()


def _bias_as_matrix(p):
    p["parameters"]["bias"] = [[b] for b in p["parameters"]["bias"]]


def _first_tree(p):
    trees = p["parameters"]["trees"]
    return trees[0][0] if p["algorithm"] == "gbt" else trees[0]


def _self_loop(p):
    tree = _first_tree(p)
    tree["left"][0] = tree["right"][0] = 0


def _right_child_out_of_range(p):
    tree = _first_tree(p)
    tree["right"][0] = len(tree["feature"])


def _left_child_out_of_range(p):
    tree = _first_tree(p)
    tree["left"][0] = len(tree["feature"])


def _right_child_before_its_parent(p):
    tree = _first_tree(p)
    node = max(i for i, f in enumerate(tree["feature"]) if f >= 0)
    tree["right"][node] = node


def _feature_out_of_range(p):
    _first_tree(p)["feature"][0] = len(p["vocabulary"]["selected"])


def _last_split(tree):
    return max(i for i, f in enumerate(tree["feature"]) if f >= 0)


def _fractional_feature_id(p):
    tree = _first_tree(p)
    tree["feature"][_last_split(tree)] += 0.7  # int() would truncate it


def _fractional_child_index(p):
    tree = _first_tree(p)
    tree["left"][_last_split(tree)] += 0.5


def _fractional_leaf_class(p):
    tree = _first_tree(p)
    tree["value"][tree["feature"].index(-1)] = 0.5


def _infinite_feature_id(p):
    _first_tree(p)["feature"][0] = float("inf")  # written as Infinity


def _tree_arrays_of_unequal_length(p):
    _first_tree(p)["threshold"].pop()


def _negative_threshold(p):
    tree = _first_tree(p)
    node = _last_split(tree)
    tree["threshold"][node] = -tree["threshold"][node]


def _empty_tree(p):
    tree = _first_tree(p)
    for key in tree:
        tree[key] = []


def _f0_for_too_few_classes(p):
    p["parameters"]["f0"].pop()


def _tree_lists_for_too_few_classes(p):
    p["parameters"]["trees"].pop()


def _leaf_class_99(p):
    tree = _first_tree(p)
    tree["value"][tree["feature"].index(-1)] = 99


def _negative_leaf_class(p):
    tree = _first_tree(p)
    tree["value"][tree["feature"].index(-1)] = -1


def _left_child_before_its_parent(p):
    tree = _first_tree(p)
    node = max(i for i, f in enumerate(tree["feature"]) if f >= 0)
    tree["left"][node] = node - 1


def _no_trees(p):
    p["parameters"]["trees"] = []


def _one_tree_too_many(p):
    trees = p["parameters"]["trees"]
    trees.append(trees[0])


def _one_tree_short(p):
    p["parameters"]["trees"].pop()


def _unequal_tree_counts(p):
    p["parameters"]["trees"][0].pop()


def _one_tree_short_in_every_class(p):
    for class_trees in p["parameters"]["trees"]:
        class_trees.pop()


def _child_with_two_parents(p):
    tree = _first_tree(p)
    node = _last_split(tree)
    tree["right"][node] = tree["left"][node]


def _orphan_node(p):
    tree = _first_tree(p)
    for key, leaf in (("feature", -1), ("threshold", 0.0), ("left", -1),
                      ("right", -1), ("value", 0.0)):
        tree[key].append(leaf)


def _idf_cut_to_3(p):
    p["vocabulary"]["idf"] = p["vocabulary"]["idf"][:3]


def _doc_freq_one_short(p):
    p["vocabulary"]["doc_freq"].pop()


def _fisher_one_long(p):
    p["vocabulary"]["fisher"].append(0.0)


def _selected_id_out_of_range(p):
    p["vocabulary"]["selected"][0] = len(p["vocabulary"]["ngrams"])


def _negative_selected_id(p):
    p["vocabulary"]["selected"][0] = -1


def _duplicated_selected_id(p):
    selected = p["vocabulary"]["selected"]
    selected[1] = selected[0]


def _fractional_selected_id(p):
    p["vocabulary"]["selected"][0] += 0.5


def _fractional_vocabulary_n_max(p):
    p["vocabulary"]["n_max"] = 2.7  # int() would read 2, the pipeline's


def _string_vocabulary_n_max(p):
    p["vocabulary"]["n_max"] = "2"


def _negative_vocabulary_k_select(p):
    p["vocabulary"]["k_select"] = -3


def _vocabulary_k_select_7(p):
    p["vocabulary"]["k_select"] = 7  # the pipeline's is 5000


def _fractional_doc_freq(p):
    p["vocabulary"]["doc_freq"][0] = 2.5


def _boolean_doc_freq(p):
    p["vocabulary"]["doc_freq"][0] = True


def _pipeline_k_select_3(p):
    p["pipeline"]["k_select"] = 3


def _k_select_3_over_every_id(p):
    # build_vocabulary keeps min(k_select, len(ngrams)) ids, not all of them
    assert len(p["vocabulary"]["selected"]) > 3
    p["pipeline"]["k_select"] = p["vocabulary"]["k_select"] = 3


def _nan_idf(p):
    p["vocabulary"]["idf"][0] = float("nan")


def _zero_idf(p):
    # training's idf is ln((1+N)/(1+df)) + 1 >= 1; 0.0 gives NaN features
    p["vocabulary"]["idf"] = [0.0] * len(p["vocabulary"]["idf"])


def _idf_half(p):
    p["vocabulary"]["idf"][0] = 0.5


def _nan_log_prior(p):
    p["parameters"]["log_prior"] = [float("nan")] * len(
        p["parameters"]["log_prior"])


def _infinite_log_theta(p):
    p["parameters"]["log_theta"][0][0] = float("-inf")


def _nan_weight(p):
    p["parameters"]["weights"][0][0] = float("nan")


def _infinite_bias(p):
    p["parameters"]["bias"][0] = float("inf")


def _nan_f0(p):
    p["parameters"]["f0"][0] = float("nan")


def _infinite_leaf_value(p):
    tree = _first_tree(p)
    tree["value"][tree["feature"].index(-1)] = float("inf")


def _empty_class_order(p):
    p["class_order"] = []


def _one_class_order(p):
    p["class_order"] = p["class_order"][:1]


def _repeated_class(p):
    order = p["class_order"]
    order[1] = order[0]


def _reversed_class_order(p):
    p["class_order"].reverse()


def _unknown_class(p):
    p["class_order"][0] = "RenameClass"


def _repeated_ngram(p):
    vocab = p["vocabulary"]
    ngrams, selected = vocab["ngrams"], vocab["selected"]
    ngrams[selected[1]] = ngrams[selected[0]]


def _swapped_ngrams(p):
    ngrams = p["vocabulary"]["ngrams"]
    ngrams[0], ngrams[1] = ngrams[1], ngrams[0]


def _max_leaves_2(p):
    p["hyperparameters"]["max_leaves"] = 2


def _max_depth_1(p):
    p["hyperparameters"]["max_depth"] = 1


def caterpillar(splits):
    """A tree of splits on feature 0 whose right child is the next split:
    splits + 1 leaves, depth splits."""
    n = 2 * splits + 1
    tree = {"feature": [-1] * n, "threshold": [0.0] * n, "left": [-1] * n,
            "right": [-1] * n, "value": [0.0] * n}
    for node in range(0, n - 1, 2):
        tree["feature"][node] = 0
        tree["threshold"][node] = node / n
        tree["left"][node], tree["right"][node] = node + 1, node + 2
        tree["value"][node + 1] = 0.5
    return tree


def _caterpillar_tree(p):
    p["parameters"]["trees"][0][0] = caterpillar(20_000)


@pytest.fixture(scope="module")
def logreg_model(small_dataset):
    return pipeline.fit(small_dataset, ModelConfig(algorithm="logreg"))


@pytest.fixture(scope="module")
def rf_model(small_dataset):
    return pipeline.fit(small_dataset, ModelConfig(algorithm="rf"))


_DAMAGE = [
    ("nb", _drop_vocabulary), ("nb", _drop_log_theta),
    ("nb", _string_pipeline), ("nb", _number_for_ngrams),
    ("nb", _bad_hyperparameters), ("nb", _ragged_theta),
    ("nb", _nb_theta_cut_to_5_columns), ("nb", _nb_prior_for_an_extra_class),
    ("nb", _idf_cut_to_3), ("nb", _doc_freq_one_short),
    ("nb", _fisher_one_long), ("nb", _selected_id_out_of_range),
    ("nb", _negative_selected_id), ("nb", _duplicated_selected_id),
    ("nb", _fractional_selected_id), ("nb", _nan_idf),
    ("nb", _zero_idf), ("gbt", _zero_idf), ("nb", _idf_half),
    ("nb", _nan_log_prior), ("nb", _infinite_log_theta),
    ("logreg", _nan_weight), ("logreg", _infinite_bias),
    ("gbt", _nan_f0), ("gbt", _infinite_leaf_value),
    ("logreg", _weights_for_too_few_classes),
    ("logreg", _bias_as_matrix),
    ("gbt", _self_loop), ("gbt", _right_child_out_of_range),
    ("gbt", _feature_out_of_range), ("gbt", _infinite_feature_id),
    ("gbt", _fractional_feature_id), ("gbt", _fractional_child_index),
    ("gbt", _tree_arrays_of_unequal_length),
    ("gbt", _right_child_before_its_parent),
    ("gbt", _empty_tree), ("gbt", _f0_for_too_few_classes),
    ("gbt", _tree_lists_for_too_few_classes),
    ("gbt", _stray_hyperparameter),
    ("rf", _leaf_class_99), ("rf", _negative_leaf_class),
    ("rf", _left_child_before_its_parent), ("rf", _no_trees),
    ("rf", _self_loop), ("rf", _feature_out_of_range),
    ("rf", _left_child_out_of_range), ("rf", _fractional_leaf_class),
    ("gbt", _unequal_tree_counts), ("gbt", _one_tree_short_in_every_class),
    ("gbt", _child_with_two_parents), ("gbt", _orphan_node),
    ("rf", _child_with_two_parents), ("rf", _orphan_node),
    ("rf", _one_tree_too_many), ("rf", _one_tree_short),
    ("nb", _empty_class_order), ("nb", _one_class_order),
    ("nb", _repeated_class), ("nb", _reversed_class_order),
    ("nb", _unknown_class), ("rf", _reversed_class_order),
    ("nb", _repeated_ngram), ("nb", _swapped_ngrams),
    ("gbt", _repeated_ngram), ("gbt", _swapped_ngrams),
    ("gbt", _max_leaves_2), ("gbt", _caterpillar_tree), ("rf", _max_depth_1),
    ("gbt", _negative_threshold), ("rf", _negative_threshold),
    ("nb", _fractional_vocabulary_n_max), ("nb", _string_vocabulary_n_max),
    ("nb", _negative_vocabulary_k_select), ("nb", _vocabulary_k_select_7),
    ("nb", _fractional_doc_freq), ("nb", _boolean_doc_freq),
    ("nb", _pipeline_k_select_3), ("nb", _k_select_3_over_every_id),
]


@pytest.mark.parametrize("algo,mutate", [
    pytest.param(algo, mutate, id=mutate.__name__ if algo == "nb"
                 else algo + mutate.__name__)
    for algo, mutate in _DAMAGE])
def test_structural_damage_raises_model_format_error(request, tmp_path,
                                                     algo, mutate):
    path = tmp_path / "model.json"
    save_model(request.getfixturevalue(f"{algo}_model"), path)
    payload = json.loads(path.read_text())
    mutate(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError):
        load_model(path)


@pytest.mark.parametrize("text", ["[1, 2]", "42", "null", "\"model\""])
def test_non_object_payload_rejected(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_saved_file_is_deterministic(nb_model, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(nb_model, a, corpus_fingerprint="f")
    save_model(nb_model, b, corpus_fingerprint="f")
    assert a.read_bytes() == b.read_bytes()


def test_model_file_records_config_and_metadata(gbt_model, tmp_path):
    path = tmp_path / "model.json"
    save_model(gbt_model, path, corpus_fingerprint="abc123")
    payload = json.loads(path.read_text())
    assert payload["format_version"] == FORMAT_VERSION
    assert payload["algorithm"] == "gbt"
    assert payload["hyperparameters"]["n_trees"] == 100
    assert payload["pipeline"] == {"n_max": 2, "k_select": 5000, "seed": 0}
    assert payload["metadata"]["corpus_fingerprint"] == "abc123"
    assert payload["metadata"]["prng"] == "pcg64"
    assert payload["class_order"] == sorted(payload["class_order"])


@pytest.mark.parametrize("name,value", [("k_select", -5), ("k_select", 0),
                                        ("n_max", 4)])
def test_bad_pipeline_setting_raises_model_format_error(nb_model, tmp_path,
                                                        name, value):
    path = tmp_path / "model.json"
    save_model(nb_model, path)
    payload = json.loads(path.read_text())
    payload["pipeline"][name] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError, match=name):
        load_model(path)


@pytest.mark.parametrize("n_max", [0, 3])
def test_vocabulary_n_max_must_match_the_pipeline(nb_model, tmp_path, n_max):
    path = tmp_path / "model.json"
    save_model(nb_model, path)
    payload = json.loads(path.read_text())
    assert payload["pipeline"]["n_max"] == 2
    payload["vocabulary"]["n_max"] = n_max
    path.write_text(json.dumps(payload))
    with pytest.raises(ModelFormatError, match="n_max"):
        load_model(path)


@pytest.fixture(scope="module")
def small_gbt_text(small_dataset, tmp_path_factory):
    """A gbt model file of 3 trees of at most 4 leaves per class."""
    model = pipeline.fit(small_dataset, ModelConfig(
        algorithm="gbt", hyperparameters={"n_trees": 3, "max_leaves": 4}))
    path = tmp_path_factory.mktemp("gbt") / "model.json"
    save_model(model, path)
    return path.read_text()


def _is_proper(tree):
    """Every node but the root is the child of exactly one earlier split."""
    splits = [i for i, f in enumerate(tree.feature) if f >= 0]
    children = sorted(c for i in splits for c in (tree.left[i], tree.right[i]))
    return (children == list(range(1, len(tree.feature)))
            and all(i < tree.left[i] and i < tree.right[i] for i in splits))


def test_mutated_children_load_as_proper_trees_or_are_rejected(
        small_gbt_text, tmp_path):
    path = tmp_path / "model.json"
    n_features = len(json.loads(small_gbt_text)["vocabulary"]["selected"])
    rows = np.random.default_rng(5).random((8, n_features)) * 0.3
    # (class, tree, "left" or "right", node, new child index)
    mutation = st.tuples(st.integers(0, 5), st.integers(0, 2),
                         st.sampled_from(["left", "right"]),
                         st.integers(0, 6), st.integers(-2, 8))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(mutation, min_size=1, max_size=4))
    def check(mutations):
        payload = json.loads(small_gbt_text)
        for c, t, side, node, value in mutations:
            tree = payload["parameters"]["trees"][c][t]
            tree[side][node % len(tree[side])] = value
        path.write_text(json.dumps(payload))
        start = time.perf_counter()
        try:
            estimator = load_model(path).estimator
        except ModelFormatError:
            pass
        else:
            trees = [t for class_trees in estimator.trees for t in class_trees]
            assert all(map(_is_proper, trees))
            for row in rows:
                assert estimator.scorer.leaf_values(row).tolist() == [
                    t.predict_row(row) for t in trees]
        assert time.perf_counter() - start < 1.0
    check()


def test_caterpillar_tree_is_rejected_quickly(small_gbt_text, tmp_path):
    # 20,001 leaves under max_leaves 20: a walk of depth 20,000 per row
    payload = json.loads(small_gbt_text)
    payload["hyperparameters"]["max_leaves"] = 20
    payload["parameters"]["trees"][0][0] = caterpillar(20_000)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    start = time.perf_counter()
    with pytest.raises(ModelFormatError, match="max_leaves = 20"):
        load_model(path)
    assert time.perf_counter() - start < 1.0


def test_caterpillar_tree_under_a_large_max_leaves_scores_quickly(
        small_gbt_text, tmp_path):
    # 3,000 leaves under max_leaves 3,000: 2,999 levels, 47 mask words
    payload = json.loads(small_gbt_text)
    payload["hyperparameters"]["max_leaves"] = 3000
    payload["parameters"]["trees"][0][0] = caterpillar(2999)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    n_features = len(payload["vocabulary"]["selected"])
    rows = np.zeros((4, n_features))
    rows[:, 0] = [0.0, 0.3, 0.7, 2.0]  # the caterpillar splits on feature 0
    start = time.perf_counter()
    estimator = load_model(path).estimator
    assert estimator.scorer.words == 47
    trees = [t for class_trees in estimator.trees for t in class_trees]
    for row in rows:
        assert estimator.scorer.leaf_values(row).tolist() == [
            t.predict_row(row) for t in trees]
    assert time.perf_counter() - start < 1.0


def test_mask_width_follows_the_trees_not_max_leaves(small_gbt_text,
                                                      tmp_path):
    payload = json.loads(small_gbt_text)
    payload["hyperparameters"]["max_leaves"] = 1_000_000
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    assert load_model(path).estimator.scorer.words == 1


def test_nb_log_theta_at_the_float_limit_scores_finite(small_model_texts,
                                                       tmp_path):
    # log_prior + log_theta @ row overflows to -inf for every class
    payload = json.loads(small_model_texts["nb"])
    theta = payload["parameters"]["log_theta"]
    payload["parameters"]["log_theta"] = [[-1e308] * len(r) for r in theta]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    model = load_model(path)
    label, scores = pipeline.predict_message(
        model, "moved helper into the common class")
    values = list(scores.values())
    assert all(map(math.isfinite, values))
    assert sum(values) == pytest.approx(1.0)
    assert label in model.class_order


def test_logreg_scores_stay_finite_when_every_sigmoid_underflows(
        logreg_model, tmp_path):
    path = tmp_path / "model.json"
    save_model(logreg_model, path)
    payload = json.loads(path.read_text())
    payload["parameters"]["bias"] = [-800.0] * len(payload["class_order"])
    path.write_text(json.dumps(payload))
    model = load_model(path)
    label, scores = pipeline.predict_message(model, "renamed the method")
    values = list(scores.values())
    assert all(map(math.isfinite, values))
    assert sum(values) == pytest.approx(1.0)
    assert label in model.class_order


@pytest.fixture(scope="module")
def small_model_texts(small_dataset, small_gbt_text, logreg_model,
                      tmp_path_factory):
    """algorithm -> the text of a small model file of it."""
    models = {"nb": pipeline.fit(small_dataset, ModelConfig(algorithm="nb")),
              "logreg": logreg_model,
              "rf": pipeline.fit(small_dataset, ModelConfig(
                  algorithm="rf", hyperparameters={"n_estimators": 2}))}
    texts = {"gbt": small_gbt_text}
    for algo, model in models.items():
        path = tmp_path_factory.mktemp(algo) / "model.json"
        save_model(model, path)
        texts[algo] = path.read_text()
    return texts


_CLASS_NAMES = [t.value for t in RefactoringType] + ["RenameClass"]
_SCALED = ("f0", "bias", "weights", "log_prior", "log_theta")


def _mutate(payload, kind, a, b, factor, name):
    """Apply one mutation; a and b pick the entries, modulo their count."""
    order = payload["class_order"]
    if kind in ("drop", "repeat", "swap", "rename"):
        if not order:
            return
        i, j = a % len(order), b % len(order)
        if kind == "drop":
            del order[i]
        elif kind == "repeat":
            order.insert(j, order[i])
        elif kind == "swap":
            order[i], order[j] = order[j], order[i]
        else:
            order[i] = name
    elif kind == "scale":
        params = payload["parameters"]
        keys = [k for k in _SCALED if k in params]
        if not keys:  # rf has no real-valued parameters to scale
            return
        values = params[keys[a % len(keys)]]
        if isinstance(values[0], list):
            values = values[b % len(values)]
        values[b % len(values)] *= factor
    else:  # copy or swap vocabulary n-grams or selected ids
        action, field = kind.split("-")
        seq = payload["vocabulary"][field]
        i, j = a % len(seq), b % len(seq)
        if action == "copy":
            seq[j] = seq[i]
        else:
            seq[i], seq[j] = seq[j], seq[i]


_MUTATION = st.tuples(
    st.sampled_from(["drop", "repeat", "swap", "rename", "scale",
                     "copy-ngrams", "swap-ngrams", "copy-selected",
                     "swap-selected"]),
    st.integers(0, 10**6), st.integers(0, 10**6),
    st.floats(-1e308, 1e308), st.sampled_from(_CLASS_NAMES))


def test_mutated_model_files_are_rejected_or_predict_finite_scores(
        small_model_texts, tmp_path):
    path = tmp_path / "model.json"
    messages = ["renamed the method", "moved helper into the common class"]

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(ALGORITHMS),
           st.lists(_MUTATION, min_size=1, max_size=3))
    def check(algo, mutations):
        payload = json.loads(small_model_texts[algo])
        for mutation in mutations:
            _mutate(payload, *mutation)
        path.write_text(json.dumps(payload))
        start = time.perf_counter()
        try:
            model = load_model(path)
        except ModelFormatError:
            pass
        else:
            for message in messages:
                label, scores = pipeline.predict_message(model, message)
                assert label in model.class_order
                assert all(map(math.isfinite, scores.values()))
        assert time.perf_counter() - start < 1.0
    check()
