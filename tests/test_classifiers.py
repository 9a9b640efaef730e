import inspect
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hyp_settings
from hypothesis import strategies as st
from scipy import sparse

from refdoc import logreg, pipeline, workers
from refdoc.classifiers import (
    DEFAULT_HYPERPARAMETERS,
    ESTIMATORS,
    ModelConfig,
    make_estimator,
    predict,
    predicted_label,
    train,
)
from refdoc.corpus import RefactoringType as RT
from refdoc.errors import (EmptyFeatures, InsufficientClass, NonFinite,
                           SingleClass, UnknownLabel)
from refdoc.features import (
    build_vocabulary,
    count_ngrams,
    vectorize,
    vectors_to_csr,
)
from refdoc.logreg import fit_binary, logreg_gradient, logreg_loss
from refdoc.trees import sigmoid


def toy_corpus():
    """Separable 4-doc, 2-class corpus with two docs per class."""
    docs = [["extract", "method"], ["extract", "code"],
            ["rename", "method"], ["rename", "name"]]
    labels = [RT.EXTRACT_METHOD, RT.EXTRACT_METHOD,
              RT.RENAME_METHOD, RT.RENAME_METHOD]
    return docs, labels, *unigram_rows(docs, labels, k_select=100)


def unigram_rows(docs, labels, k_select):
    """(vocab, weighted CSR rows) of token lists over their unigrams."""
    doc_counts = [count_ngrams(d, 1) for d in docs]
    ngrams, counts = pipeline.count_matrix(doc_counts)
    vocab = build_vocabulary(counts, ngrams, labels, 1, k_select)
    return vocab, vectorize(vectors_to_csr(doc_counts, vocab.columns), vocab)


def row_dicts(X):
    """Each CSR row as {column: value}."""
    return [dict(zip(X.indices[a:b].tolist(), X.data[a:b].tolist()))
            for a, b in zip(X.indptr[:-1], X.indptr[1:])]


def closed_form_nb_posteriors(vectors, labels, vocab, query, alpha=1.0):
    """Bayes posterior computed directly from the smoothed-likelihood formula."""
    classes = sorted(set(labels), key=lambda t: t.value)
    n_feat = vocab.n_selected
    log_joint = []
    for cls in classes:
        rows = [v for v, lab in zip(vectors, labels) if lab == cls]
        mass = [0.0] * n_feat
        for vec in rows:
            for col, w in vec.items():
                mass[col] += w
        total = sum(mass) + alpha * n_feat
        lj = math.log(len(rows) / len(vectors))
        for col, w in sorted(query.items()):
            lj += w * math.log((mass[col] + alpha) / total)
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


def test_unknown_hyperparameter_is_rejected_by_name():
    with pytest.raises(ValueError, match="n_tree"):
        ModelConfig(algorithm="gbt", hyperparameters={"n_tree": 10})
    with pytest.raises(ValueError, match="'depth'.*'seed'"):
        ModelConfig(algorithm="rf",
                    hyperparameters={"depth": 3, "n_estimators": 2, "seed": 1})
    with pytest.raises(ValueError, match="alpha"):
        ModelConfig(algorithm="gbt", hyperparameters={"alpha": 1.0})


@pytest.mark.parametrize("algo,name,value", [
    ("gbt", "n_trees", -3), ("gbt", "n_trees", 0), ("gbt", "n_trees", True),
    ("gbt", "n_trees", 2.0), ("gbt", "max_leaves", 1),
    ("gbt", "learning_rate", float("nan")), ("gbt", "learning_rate", 0.0),
    ("gbt", "learning_rate", "0.2"), ("nb", "alpha", float("inf")),
    ("nb", "alpha", -1.0), ("logreg", "l2_weight", -0.5),
    ("logreg", "max_iterations", None), ("rf", "max_depth", 0),
])
def test_illegal_hyperparameter_value_is_rejected(algo, name, value):
    with pytest.raises(ValueError, match=name):
        ModelConfig(algorithm=algo, hyperparameters={name: value})


def test_n_max_out_of_range_rejected():
    for bad in (0, 4, True, 2.0):
        with pytest.raises(ValueError, match="n_max"):
            ModelConfig(algorithm="nb", n_max=bad)


@pytest.mark.parametrize("bad", [-5, 0, True, 5.0, "5000"])
def test_illegal_k_select_rejected(bad):
    with pytest.raises(ValueError, match="k_select"):
        ModelConfig(algorithm="nb", k_select=bad)


def test_boundary_hyperparameter_values_are_legal():
    ModelConfig(algorithm="gbt", hyperparameters={
        "max_leaves": 2, "n_trees": 1, "min_samples_per_leaf": 1,
        "learning_rate": 1e12})
    ModelConfig(algorithm="logreg", hyperparameters={"l2_weight": 0.0})
    ModelConfig(algorithm="nb", hyperparameters={"alpha": 1})


@pytest.mark.parametrize("algo", list(DEFAULT_HYPERPARAMETERS))
def test_estimator_keywords_are_the_table_keys_without_defaults(algo):
    params = inspect.signature(ESTIMATORS[algo]).parameters
    expected = set(DEFAULT_HYPERPARAMETERS[algo]) | ({"seed"} if algo == "rf"
                                                     else set())
    assert set(params) == expected
    assert all(p.kind is p.KEYWORD_ONLY and p.default is p.empty
               for p in params.values())


def test_fit_binary_hyperparameters_have_no_defaults():
    params = inspect.signature(fit_binary).parameters
    assert [p for p in params if params[p].kind is params[p].KEYWORD_ONLY] == [
        "l2_weight", "tol", "max_iter"]
    assert all(p.default is p.empty for p in params.values())


def test_nb_posterior_matches_closed_form_bayes():
    _, labels, vocab, X = toy_corpus()
    model = train(ModelConfig(algorithm="nb"), X, labels, vocab)
    vectors = row_dicts(X)
    for vec, scores in zip(vectors, predict(model, X)):
        expected = closed_form_nb_posteriors(vectors, labels, vocab, vec)
        for cls, want in expected.items():
            assert scores[cls] == pytest.approx(want, abs=1e-12)


def test_nb_training_docs_predicted_correctly():
    _, labels, vocab, X = toy_corpus()
    model = train(ModelConfig(algorithm="nb"), X, labels, vocab)
    for scores, lab in zip(predict(model, X), labels):
        assert predicted_label(scores, model.class_order) is lab


def test_nb_empty_vector_gives_uniform_prior_scores():
    _, labels, vocab, X = toy_corpus()
    model = train(ModelConfig(algorithm="nb"), X, labels, vocab)
    scores, = predict(model, sparse.csr_matrix((1, vocab.n_selected)))
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
    vocab, X = unigram_rows(docs, [RT.MOVE_METHOD, RT.RENAME_METHOD,
                                   RT.MOVE_METHOD], k_select=10)
    with pytest.raises(SingleClass):
        train(ModelConfig(algorithm="nb"), X, labels, vocab)


def none_corpus():
    """(labels, vocab, X) of six docs: two each of ExtractMethod,
    RenameMethod and None."""
    docs = [["extract", "method"], ["extract", "code"], ["rename", "method"],
            ["rename", "name"], ["fixed", "typo"], ["fixed", "build"]]
    labels = [RT.EXTRACT_METHOD] * 2 + [RT.RENAME_METHOD] * 2 + [RT.NONE] * 2
    return labels, *unigram_rows(docs, labels, k_select=100)


def test_unlabeled_row_rejected():
    labels, vocab, X = none_corpus()
    labels[-1] = None
    with pytest.raises(UnknownLabel, match="labels on every record"):
        train(ModelConfig(algorithm="nb", include_none=True), X, labels, vocab)


def test_none_rows_need_include_none():
    labels, vocab, X = none_corpus()
    with pytest.raises(UnknownLabel, match="pass include_none"):
        train(ModelConfig(algorithm="nb"), X, labels, vocab)
    model = train(ModelConfig(algorithm="nb", include_none=True), X, labels,
                  vocab)
    assert RT.NONE in model.class_order


def test_include_none_needs_none_rows():
    _, labels, vocab, X = toy_corpus()
    with pytest.raises(UnknownLabel, match="requires None-labeled rows"):
        train(ModelConfig(algorithm="nb", include_none=True), X, labels, vocab)


@pytest.mark.parametrize("extra", [-1, 1], ids=["one-short", "one-long"])
def test_one_label_per_row(extra):
    labels, vocab, X = none_corpus()
    labels = (labels + [RT.RENAME_METHOD])[:len(labels) + extra]
    with pytest.raises(ValueError, match=f"6 rows but {6 + extra} labels"):
        train(ModelConfig(algorithm="nb", include_none=True), X, labels, vocab)


def test_class_with_one_sample_rejected():
    _, labels, vocab, X = toy_corpus()
    labels = [RT.EXTRACT_METHOD, RT.EXTRACT_METHOD,
              RT.EXTRACT_METHOD, RT.RENAME_METHOD]
    with pytest.raises(InsufficientClass):
        train(ModelConfig(algorithm="nb"), X, labels, vocab)


def test_all_empty_vectors_rejected():
    _, labels, vocab, _ = toy_corpus()
    with pytest.raises(EmptyFeatures):
        train(ModelConfig(algorithm="nb"),
              sparse.csr_matrix((4, vocab.n_selected)), labels, vocab)


def test_gbt_diverges_with_absurd_learning_rate():
    # identical docs with conflicting labels force mixed leaves, so a huge
    # step saturates the wrong side of the sigmoid and the loss blows up
    docs = [["x"], ["x"], ["y"], ["x"], ["y"], ["y"]]
    labels = [RT.EXTRACT_METHOD] * 3 + [RT.RENAME_METHOD] * 3
    vocab, X = unigram_rows(docs, labels, k_select=10)
    config = ModelConfig(algorithm="gbt",
                         hyperparameters={"learning_rate": 1e12,
                                          "min_samples_per_leaf": 1,
                                          "n_trees": 5})
    with pytest.raises(NonFinite):
        train(config, X, labels, vocab)


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


def reference_sigmoid(z):
    """The masked logistic function that one exp(-|z|) replaced, verbatim."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_saturates_exactly_and_passes_nan():
    """trees.sigmoid, which logreg and gbt share, stays within a few ulps
    of the masked reference wherever that is a normal float, saturates to
    exactly 0 and 1, gives NaN for NaN and warns about nothing (pytest
    makes every warning an error)."""
    rng = np.random.default_rng(0)
    z = np.concatenate([
        rng.normal(size=2000) * 10.0 ** rng.integers(-8, 4, size=2000),
        [0.0, -0.0, 5e-324, -5e-324, 36.0, -36.0, 700.0, -700.0]])
    z = z[np.abs(z) <= 700.0]
    assert np.allclose(sigmoid(z), reference_sigmoid(z), rtol=1e-15, atol=0)
    assert np.array_equal(sigmoid(np.array([-800.0, -746.0, -np.inf])),
                          np.zeros(3))
    assert np.array_equal(sigmoid(np.array([40.0, 800.0, np.inf])),
                          np.ones(3))
    assert not np.signbit(sigmoid(np.array([-np.inf]))).any()
    assert np.isnan(sigmoid(np.array([np.nan]))).all()


def reference_loss(weights, bias, X, y, l2_weight):
    """Regularized negative log-likelihood (sum over the batch)."""
    z = X @ weights + bias
    nll = float(np.sum(np.logaddexp(0.0, z) - y * z))
    return nll + 0.5 * float(l2_weight) * float(weights @ weights)


def reference_gradient(weights, bias, X, y, l2_weight):
    """Analytic gradient of reference_loss: (d/dw, d/db).

    The L2 term contributes exactly l2_weight * weights to the weight
    gradient and nothing to the bias gradient.
    """
    z = X @ weights + bias
    r = reference_sigmoid(z) - y
    grad_w = X.T @ r + l2_weight * weights
    grad_b = float(np.sum(r))
    return np.asarray(grad_w).ravel(), grad_b


def reference_fit_binary(X, y, *, l2_weight, tol, max_iter):
    """Gradient descent with backtracking line search on one binary problem.

    The loss, gradient and fit as they were before margins were reused
    across the line search and X.T built once, verbatim."""
    n_features = X.shape[1]
    w = np.zeros(n_features, dtype=np.float64)
    b = 0.0
    step = 1.0
    loss = reference_loss(w, b, X, y, l2_weight)
    for _ in range(max_iter):
        grad_w, grad_b = reference_gradient(w, b, X, y, l2_weight)
        gnorm = max(float(np.max(np.abs(grad_w))) if grad_w.size else 0.0,
                    abs(grad_b))
        if gnorm <= tol:
            break
        sq = float(grad_w @ grad_w) + grad_b * grad_b
        step = min(step * 2.0, 1e6)
        accepted = False
        for _ in range(60):
            w_new = w - step * grad_w
            b_new = b - step * grad_b
            loss_new = reference_loss(w_new, b_new, X, y, l2_weight)
            if loss_new <= loss - 1e-4 * step * sq:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break  # step underflow: numerically converged
        w, b, loss = w_new, b_new, loss_new
    return w, b


def inf_norm(grad_w, grad_b):
    return max(float(np.max(np.abs(grad_w))) if grad_w.size else 0.0,
               abs(grad_b))


@pytest.mark.parametrize("seed", range(6))
def test_fit_binary_reaches_the_reference_optimum(seed):
    """On a two-class problem L-BFGS ends no higher than the gradient-
    descent oracle. A one-class problem has no minimum: its loss falls
    towards 0 as the bias runs off, where the oracle's doubling step
    outruns L-BFGS's Newton-like unit steps, so there L-BFGS must reach
    the gradient stop, or at least descend within its budget. Every fit
    stays within max_iter iterations, and without a budget ends at a
    gradient inf-norm within tol or where no trial is accepted."""
    rng = np.random.default_rng(seed)
    n, d = 40 + 10 * seed, 12
    dense = np.where(rng.random((n, d)) < 0.3, rng.random((n, d)), 0.0)
    dense[:, 5] = 0.0                             # an all-zero column
    X = sparse.csr_matrix(dense)
    ys = [(rng.random(n) > 0.6).astype(np.float64),
          np.zeros(n), np.ones(n)]                # and one-class problems
    for y in ys:
        params = dict(l2_weight=[1.0, 0.1][seed % 2], tol=1e-7,
                      max_iter=[400, 7][seed % 3 == 2])
        l2, tol = params["l2_weight"], params["tol"]
        w, b, iterations, stop = logreg.lbfgs(X, y, **params)
        w_fit, b_fit = fit_binary(X, y, **params)
        assert np.array_equal(w, w_fit) and b == b_fit
        assert iterations <= params["max_iter"]
        loss = reference_loss(w, b, X, y, l2)
        if 0 < y.sum() < n:
            ref = reference_loss(*reference_fit_binary(X, y, **params),
                                 X, y, l2)
            assert loss <= ref + 1e-9 * abs(ref)
        elif params["max_iter"] == 400:
            assert stop == "gradient" and loss <= 2 * tol
        else:
            assert loss < reference_loss(np.zeros(d), 0.0, X, y, l2)
        if params["max_iter"] == 400:
            assert stop in ("gradient", "line search")
        if stop == "gradient":
            assert inf_norm(*reference_gradient(w, b, X, y, l2)) <= tol


def test_bundled_logreg_fit_converges_in_few_margin_products(
        synthetic_dataset, monkeypatch):
    """Every class of the bundled corpus reaches the gradient stop, in at
    most 1,000 products for all 6 (gradient descent made 4,891). Near the
    optimum a loss of ~134 no longer resolves a step, so a line search on
    the Armijo test alone stops short of tol there, or stalls if retried."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
    calls, stops = [], []
    margins, lbfgs = logreg._margins, logreg.lbfgs
    monkeypatch.setattr(logreg, "_margins",
                        lambda *args: calls.append(1) or margins(*args))

    def recorded(*args, **kwargs):
        result = lbfgs(*args, **kwargs)
        stops.append(result[3])
        return result

    monkeypatch.setattr(logreg, "lbfgs", recorded)
    pipeline.fit(synthetic_dataset, ModelConfig(algorithm="logreg"))
    assert stops == ["gradient"] * 6
    assert len(calls) <= 1000


def training_loss_curve(model, X_csr, y_idx, cls):
    """Logistic training loss of a boosted model after each boosting round
    for one class."""
    y = (y_idx == cls).astype(np.float64)
    rows = np.asarray(X_csr.todense())
    margins = np.full(X_csr.shape[0], model.f0[cls], dtype=np.float64)
    losses = []
    for tree in model.trees[cls]:
        preds = np.array([tree.predict_row(r) for r in rows])
        margins = margins + model.learning_rate * preds
        loss = float(np.sum(np.logaddexp(0.0, margins) - y * margins))
        losses.append(loss)
    return losses


def test_gbt_training_loss_never_increases():
    rng = np.random.default_rng(3)
    n, d = 80, 30
    X = sparse.csr_matrix(np.where(rng.random((n, d)) < 0.1,
                                   rng.random((n, d)), 0.0))
    y = (rng.random(n) > 0.5).astype(np.int64)
    model = make_estimator(ModelConfig(
        algorithm="gbt", hyperparameters={"n_trees": 30})).fit(X, y, 2)
    losses = training_loss_curve(model, X, y, cls=1)
    for before, after in zip(losses, losses[1:]):
        assert after <= before + 1e-9


def test_rf_prediction_deterministic_from_serialized_state():
    rng = np.random.default_rng(5)
    n, d = 60, 20
    X = sparse.csr_matrix(np.where(rng.random((n, d)) < 0.2,
                                   rng.random((n, d)), 0.0))
    y = rng.integers(0, 3, size=n)
    config = ModelConfig(algorithm="rf", seed=11)
    model = make_estimator(config).fit(X, y.astype(np.int64), 3)
    restored = make_estimator(config).load_dict(model.to_dict(), 3, d)
    row = np.asarray(X[3].todense()).ravel()
    assert np.array_equal(model.score_row(row), restored.score_row(row))


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
        _, labels, vocab, X = toy_corpus()
        _SCORE_SUM_MODELS[algo] = train(ModelConfig(algorithm=algo),
                                        X, labels, vocab)
    return _SCORE_SUM_MODELS[algo]


@given(st.text(max_size=60))
@hyp_settings(max_examples=60, deadline=None)
def test_probability_scores_sum_to_one_on_arbitrary_messages(message):
    for algo in ("nb", "logreg"):
        _, scores = pipeline.predict_message(_score_sum_model(algo), message)
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-9)
