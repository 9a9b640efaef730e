import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hyp_settings
from hypothesis import strategies as st
from scipy import sparse

from refdoc import pipeline
from refdoc.classifiers import (
    DEFAULT_HYPERPARAMETERS,
    ModelConfig,
    predict,
    predicted_label,
    train,
)
from refdoc.corpus import RefactoringType as RT
from refdoc.errors import EmptyFeatures, InsufficientClass, NonFinite, SingleClass
from refdoc.features import build_vocabulary, vectorize
from refdoc.logreg import logreg_gradient, logreg_loss
from refdoc.trees import BoostedClassifier, ForestClassifier


def toy_corpus():
    """Separable 4-doc, 2-class corpus with two docs per class."""
    docs = [["extract", "method"], ["extract", "code"],
            ["rename", "method"], ["rename", "name"]]
    labels = [RT.EXTRACT_METHOD, RT.EXTRACT_METHOD,
              RT.RENAME_METHOD, RT.RENAME_METHOD]
    vocab = build_vocabulary(docs, labels, n_max=1, k_select=100)
    vectors = [vectorize(d, vocab) for d in docs]
    return docs, labels, vocab, vectors


def closed_form_nb_posteriors(vectors, labels, vocab, query, alpha=1.0):
    """Bayes posterior computed directly from the smoothed-likelihood formula."""
    classes = sorted(set(labels), key=lambda t: t.value)
    n_feat = vocab.n_selected
    pos = {int(f): p for p, f in enumerate(vocab.selected)}
    log_joint = []
    for cls in classes:
        rows = [v for v, lab in zip(vectors, labels) if lab == cls]
        mass = [0.0] * n_feat
        for vec in rows:
            for fid, w in vec.items():
                mass[pos[fid]] += w
        total = sum(mass) + alpha * n_feat
        lj = math.log(len(rows) / len(vectors))
        for fid, w in sorted(query.items()):
            lj += w * math.log((mass[pos[fid]] + alpha) / total)
        log_joint.append(lj)
    m = max(log_joint)
    exp = [math.exp(v - m) for v in log_joint]
    s = sum(exp)
    return {cls: e / s for cls, e in zip(classes, exp)}


def test_table5_defaults():
    assert DEFAULT_HYPERPARAMETERS["rf"] == {
        "n_estimators": 8, "max_depth": 32, "random_splits_per_node": 128,
        "min_samples_per_leaf": 1}
    assert DEFAULT_HYPERPARAMETERS["gbt"] == {
        "max_leaves": 20, "min_samples_per_leaf": 10, "learning_rate": 0.2,
        "n_trees": 100}
    assert DEFAULT_HYPERPARAMETERS["logreg"]["l2_weight"] == 1
    assert DEFAULT_HYPERPARAMETERS["logreg"]["optimization_tolerance"] == 1e-7


def test_nb_posterior_matches_closed_form_bayes():
    _, labels, vocab, vectors = toy_corpus()
    model = train(ModelConfig(algorithm="nb"), vectors, labels, vocab)
    for vec in vectors:
        expected = closed_form_nb_posteriors(vectors, labels, vocab, vec)
        scores = predict(model, vec)
        for cls, want in expected.items():
            assert scores[cls] == pytest.approx(want, abs=1e-12)


def test_nb_training_docs_predicted_correctly():
    _, labels, vocab, vectors = toy_corpus()
    model = train(ModelConfig(algorithm="nb"), vectors, labels, vocab)
    for vec, lab in zip(vectors, labels):
        scores = predict(model, vec)
        assert predicted_label(scores, model.class_order) is lab


def test_nb_empty_vector_gives_uniform_prior_scores():
    _, labels, vocab, vectors = toy_corpus()
    model = train(ModelConfig(algorithm="nb"), vectors, labels, vocab)
    scores = predict(model, {})
    assert scores[RT.EXTRACT_METHOD] == pytest.approx(0.5, abs=1e-12)
    assert scores[RT.RENAME_METHOD] == pytest.approx(0.5, abs=1e-12)
    assert predicted_label(scores, model.class_order) is model.class_order[0]


@pytest.mark.parametrize("algo", ["nb", "logreg", "rf", "gbt"])
def test_probabilistic_scores_and_argmax(algo, small_dataset):
    model = pipeline.fit(small_dataset, ModelConfig(algorithm=algo))
    label, scores = pipeline.predict_message(
        model, "renamed a misleading method name")
    assert label is RT.RENAME_METHOD
    if algo in ("nb", "logreg"):
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-9)
    assert set(scores) == set(model.class_order)


def test_argmax_invariant_to_positive_scaling():
    scores = {RT.EXTRACT_METHOD: 0.4, RT.MOVE_METHOD: 0.9,
              RT.RENAME_METHOD: 0.1}
    order = (RT.EXTRACT_METHOD, RT.MOVE_METHOD, RT.RENAME_METHOD)
    scaled = {k: 7.3 * v for k, v in scores.items()}
    assert predicted_label(scores, order) is predicted_label(scaled, order)


def test_argmax_tie_breaks_to_first_in_class_order():
    order = (RT.EXTRACT_METHOD, RT.MOVE_METHOD)
    scores = {RT.EXTRACT_METHOD: 0.5, RT.MOVE_METHOD: 0.5}
    assert predicted_label(scores, order) is RT.EXTRACT_METHOD


def test_single_class_rejected():
    docs = [["a", "b"], ["a", "c"], ["b", "c"]]
    labels = [RT.MOVE_METHOD] * 3
    vocab = build_vocabulary(docs, [RT.MOVE_METHOD, RT.RENAME_METHOD,
                                    RT.MOVE_METHOD], n_max=1, k_select=10)
    vectors = [vectorize(d, vocab) for d in docs]
    with pytest.raises(SingleClass):
        train(ModelConfig(algorithm="nb"), vectors, labels, vocab)


def test_class_with_one_sample_rejected():
    _, labels, vocab, vectors = toy_corpus()
    labels = [RT.EXTRACT_METHOD, RT.EXTRACT_METHOD,
              RT.EXTRACT_METHOD, RT.RENAME_METHOD]
    with pytest.raises(InsufficientClass):
        train(ModelConfig(algorithm="nb"), vectors, labels, vocab)


def test_all_empty_vectors_rejected():
    _, labels, vocab, _ = toy_corpus()
    with pytest.raises(EmptyFeatures):
        train(ModelConfig(algorithm="nb"), [{}, {}, {}, {}], labels, vocab)


def test_gbt_diverges_with_absurd_learning_rate():
    # identical docs with conflicting labels force mixed leaves, so a huge
    # step saturates the wrong side of the sigmoid and the loss blows up
    docs = [["x"], ["x"], ["y"], ["x"], ["y"], ["y"]]
    labels = [RT.EXTRACT_METHOD] * 3 + [RT.RENAME_METHOD] * 3
    vocab = build_vocabulary(docs, labels, n_max=1, k_select=10)
    vectors = [vectorize(d, vocab) for d in docs]
    config = ModelConfig(algorithm="gbt",
                         hyperparameters={"learning_rate": 1e12,
                                          "min_samples_per_leaf": 1,
                                          "n_trees": 5})
    with pytest.raises(NonFinite):
        train(config, vectors, labels, vocab)


def test_logreg_gradient_zero_bias_on_balanced_symmetric_batch():
    X = sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0],
                                    [1.0, 0.0], [0.0, 1.0]]))
    y = np.array([1.0, 0.0, 1.0, 0.0])
    w = np.zeros(2)
    grad_w, grad_b = logreg_gradient(w, 0.0, X, y, l2_weight=1.0)
    assert grad_b == 0.0


def test_logreg_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    h = 1e-5
    for _ in range(10):
        n, d = 6, 4
        X = sparse.csr_matrix(rng.normal(size=(n, d)))
        y = (rng.random(n) > 0.5).astype(np.float64)
        w = rng.normal(size=d) * 0.5
        b = float(rng.normal()) * 0.5
        grad_w, grad_b = logreg_gradient(w, b, X, y, l2_weight=1.0)
        for k in range(d):
            wp, wm = w.copy(), w.copy()
            wp[k] += h
            wm[k] -= h
            fd = (logreg_loss(wp, b, X, y, 1.0)
                  - logreg_loss(wm, b, X, y, 1.0)) / (2 * h)
            assert abs(grad_w[k] - fd) <= 1e-4 * max(1.0, abs(fd))
        fd_b = (logreg_loss(w, b + h, X, y, 1.0)
                - logreg_loss(w, b - h, X, y, 1.0)) / (2 * h)
        assert abs(grad_b - fd_b) <= 1e-4 * max(1.0, abs(fd_b))


def test_logreg_regularizer_contributes_exactly_the_weight_vector():
    rng = np.random.default_rng(7)
    X = sparse.csr_matrix(rng.normal(size=(5, 3)))
    y = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    w = rng.normal(size=3)
    g1, b1 = logreg_gradient(w, 0.2, X, y, l2_weight=0.0)
    g2, b2 = logreg_gradient(w, 0.2, X, y, l2_weight=1.0)
    assert np.allclose(g2 - g1, w, atol=1e-15)
    assert b1 == b2


def test_gbt_training_loss_never_increases():
    rng = np.random.default_rng(3)
    n, d = 80, 30
    X = sparse.csr_matrix(np.where(rng.random((n, d)) < 0.1,
                                   rng.random((n, d)), 0.0))
    y = (rng.random(n) > 0.5).astype(np.int64)
    model = BoostedClassifier(n_trees=30).fit(X, y, 2)
    losses = model.training_loss_curve(X, y, cls=1)
    for before, after in zip(losses, losses[1:]):
        assert after <= before + 1e-9


def test_rf_prediction_deterministic_from_serialized_state():
    rng = np.random.default_rng(5)
    n, d = 60, 20
    X = sparse.csr_matrix(np.where(rng.random((n, d)) < 0.2,
                                   rng.random((n, d)), 0.0))
    y = rng.integers(0, 3, size=n)
    model = ForestClassifier(seed=11).fit(X, y.astype(np.int64), 3)
    restored = ForestClassifier.from_dict(
        model.to_dict(), DEFAULT_HYPERPARAMETERS["rf"], seed=11)
    row = np.asarray(X[3].todense()).ravel()
    assert np.array_equal(model.score_row(row, 3), restored.score_row(row, 3))


def test_training_twice_with_same_seed_is_identical(small_dataset):
    a = pipeline.fit(small_dataset, ModelConfig(algorithm="gbt", seed=9))
    b = pipeline.fit(small_dataset, ModelConfig(algorithm="gbt", seed=9))
    assert a.estimator.to_dict() == b.estimator.to_dict()


def test_decorator_contrast_message_regression(gbt_model):
    # the keyword baseline cannot match this message; the model can
    label, _ = pipeline.predict_message(
        gbt_model, "Change name of `Decorator' to `Events'")
    assert label is RT.RENAME_METHOD


_SCORE_SUM_MODELS = {}


def _score_sum_model(algo):
    if algo not in _SCORE_SUM_MODELS:
        _, labels, vocab, vectors = toy_corpus()
        _SCORE_SUM_MODELS[algo] = train(ModelConfig(algorithm=algo),
                                        vectors, labels, vocab)
    return _SCORE_SUM_MODELS[algo]


@given(st.text(max_size=60))
@hyp_settings(max_examples=60, deadline=None)
def test_probability_scores_sum_to_one_on_arbitrary_messages(message):
    for algo in ("nb", "logreg"):
        _, scores = pipeline.predict_message(_score_sum_model(algo), message)
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-9)
