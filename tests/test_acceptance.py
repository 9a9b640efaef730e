"""Acceptance suite: one test per criterion, each printing a PASS line.

Oracles here are deliberately naive re-derivations (exact fractions, plain
loops, finite differences) kept independent of the library code paths they
check.
"""

import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse

from refdoc.classifiers import ModelConfig, predict, train
from refdoc.cli import main as cli_main
from refdoc.corpus import METHOD_TYPES, CommitRecord, Dataset, save_corpus
from refdoc.corpus import RefactoringType as RT
from refdoc.baseline import keyword_predict
from refdoc.evaluation import (
    ConfusionMatrix,
    baseline_report,
    cross_validate,
    fit_fold,
    per_class_metrics,
    stratified_folds,
)
from refdoc import features
from refdoc.features import FISHER_EPS, count_ngrams
from refdoc.logreg import logreg_gradient, logreg_loss
from refdoc.pipeline import count_matrix, featurize


def _pass(line):
    print(f"ACCEPTANCE PASS: {line}")


def build_vocabulary(docs, labels, n_max, k_select):
    """Vocabulary of token lists, counted as pipeline.fit counts them."""
    ngrams, counts = count_matrix([count_ngrams(d, n_max) for d in docs])
    return features.build_vocabulary(counts, ngrams, labels, n_max, k_select)


def weighted_rows(docs, vocab):
    """The weighted CSR rows of token lists."""
    return features.vectorize(features.vectors_to_csr(
        [count_ngrams(d, vocab.n_max) for d in docs], vocab.columns), vocab)


def row_dicts(X):
    """Each CSR row as {column: value}."""
    return [dict(zip(X.indices[a:b].tolist(), X.data[a:b].tolist()))
            for a, b in zip(X.indptr[:-1], X.indptr[1:])]


# ---------------------------------------------------------------------------
# shared cross-validation reports on the bundled synthetic corpus
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cv_reports(synthetic_dataset):
    reports = {}
    for algo in ("nb", "logreg", "rf"):
        reports[algo] = cross_validate(
            synthetic_dataset, ModelConfig(algorithm=algo), folds=10, seed=0)
    return reports


@pytest.fixture(scope="module")
def gbt_cv(synthetic_dataset):
    t0 = time.perf_counter()
    report = cross_validate(synthetic_dataset, ModelConfig(algorithm="gbt"),
                            folds=10, seed=0)
    return report, time.perf_counter() - t0


def test_metrics_oracle_exact_on_random_matrices():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    for _ in range(1000):
        k = int(rng.integers(2, 8))
        classes = tuple(list(RT)[:k])
        counts = rng.integers(0, 101, size=(k, k)).astype(np.int64)
        metrics = per_class_metrics(ConfusionMatrix(classes, counts))
        for i, cls in enumerate(classes):
            tp = int(counts[i, i])
            fp = int(counts[:, i].sum()) - tp
            fn = int(counts[i, :].sum()) - tp
            p = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
            r = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
            f = 2 * p * r / (p + r) if p + r else Fraction(0)
            assert metrics[cls].precision == float(p)
            assert metrics[cls].recall == float(r)
            assert metrics[cls].f_measure == float(f)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _pass(f"metrics oracle: 1000 random matrices exact in {elapsed:.2f}s")


def _random_corpora(n_corpora=100, seed=77):
    rng = np.random.default_rng(seed)
    alphabet = ["alpha", "beta", "gamma", "delta", "echo", "foxtrot",
                "golf", "hotel", "india", "juliet", "kilo", "lima"]
    corpora = []
    for _ in range(n_corpora):
        n_docs = int(rng.integers(2, 21))
        docs = []
        for _ in range(n_docs):
            n_tokens = int(rng.integers(1, 51))
            docs.append([alphabet[int(rng.integers(0, len(alphabet)))]
                         for _ in range(n_tokens)])
        k = int(rng.integers(2, 5))
        labels = [METHOD_TYPES[int(rng.integers(0, k))] for _ in docs]
        while len(set(labels)) < 2:  # vocabulary needs two classes
            labels[-1] = METHOD_TYPES[(METHOD_TYPES.index(labels[-1]) + 1) % 6]
        corpora.append((docs, labels))
    return corpora


def test_tfidf_oracle_on_random_corpora():
    checked = 0
    for docs, labels in _random_corpora():
        vocab = build_vocabulary(docs, labels, n_max=2, k_select=10 ** 6)
        column = {int(f): p for p, f in enumerate(vocab.selected)}
        index = {g: i for i, g in enumerate(vocab.ngrams)}
        n_docs = len(docs)
        for tokens, got in zip(docs, row_dicts(weighted_rows(docs, vocab))):
            # independent evaluation of the stated weighting formula
            counts = {}
            for n in (1, 2):
                for i in range(len(tokens) - n + 1):
                    gram = tuple(tokens[i:i + n])
                    counts[gram] = counts.get(gram, 0) + 1
            weights = {}
            for gram, c in counts.items():
                df = sum(1 for other in docs
                         if gram in {tuple(other[i:i + len(gram)])
                                     for i in range(len(other) - len(gram) + 1)})
                if df == 0:
                    continue
                idf = math.log((1 + n_docs) / (1 + df)) + 1.0
                weights[column[index[gram]]] = c * idf
            norm = math.sqrt(sum(w * w for w in weights.values()))
            expected = {col: w / norm for col, w in weights.items()}
            assert got.keys() == expected.keys()
            for col, w in expected.items():
                assert abs(got[col] - w) <= 1e-9
            checked += 1
    _pass(f"tf-idf oracle: {checked} documents across 100 random corpora")


def test_fisher_oracle_on_random_corpora():
    worst = 0.0
    for docs, labels in _random_corpora():
        vocab = build_vocabulary(docs, labels, n_max=2, k_select=10 ** 6)
        index = {g: i for i, g in enumerate(vocab.ngrams)}
        got = vocab.fisher
        classes = sorted(set(labels), key=lambda t: t.value)
        values = []
        for tokens in docs:
            row = {}
            for n in (1, 2):
                for i in range(len(tokens) - n + 1):
                    gram = tuple(tokens[i:i + n])
                    fid = index[gram]
                    row[fid] = row.get(fid, 0.0) + float(vocab.idf[fid])
            values.append(row)
        for j in range(len(vocab.ngrams)):
            mu_all = 0.0
            for row in values:
                mu_all += row.get(j, 0.0)
            mu_all /= len(docs)
            num = 0.0
            den = 0.0
            for cls in classes:
                rows = [values[i] for i, lab in enumerate(labels)
                        if lab == cls]
                mu_k = 0.0
                for row in rows:
                    mu_k += row.get(j, 0.0)
                mu_k /= len(rows)
                ss = 0.0
                for row in rows:
                    d = row.get(j, 0.0) - mu_k
                    ss += d * d
                diff = mu_k - mu_all
                num += len(rows) * (diff * diff)
                den += len(rows) * (ss / len(rows))
            expected = num / (den + FISHER_EPS)
            worst = max(worst, abs(got[j] - expected))
            assert abs(got[j] - expected) <= 1e-9
    _pass(f"fisher oracle: 100 random corpora, max |delta| = {worst:.2e}")


def test_nb_oracle_on_fixed_five_doc_corpus():
    docs = [["extract", "method", "extract"], ["extract", "helper"],
            ["rename", "method"], ["rename", "name"], ["rename", "getter"]]
    labels = [RT.EXTRACT_METHOD, RT.EXTRACT_METHOD,
              RT.RENAME_METHOD, RT.RENAME_METHOD, RT.RENAME_METHOD]
    vocab = build_vocabulary(docs, labels, n_max=1, k_select=100)
    X = weighted_rows(docs + [[]], vocab)   # the last row is empty
    vectors = row_dicts(X)[:-1]
    model = train(ModelConfig(algorithm="nb"),
                  features.select_rows(X, range(len(docs))), labels, vocab)

    n_feat = vocab.n_selected
    worst = 0.0
    for query, scores in zip(vectors + [{}], predict(model, X)):
        log_joint = {}
        for cls in (RT.EXTRACT_METHOD, RT.RENAME_METHOD):
            rows = [v for v, lab in zip(vectors, labels) if lab == cls]
            mass = [0.0] * n_feat
            for vec in rows:
                for col, w in vec.items():
                    mass[col] += w
            total = sum(mass) + 1.0 * n_feat
            lj = math.log(len(rows) / len(vectors))
            for col, w in sorted(query.items()):
                lj += w * math.log((mass[col] + 1.0) / total)
            log_joint[cls] = lj
        m = max(log_joint.values())
        exp = {cls: math.exp(v - m) for cls, v in log_joint.items()}
        s = sum(exp.values())
        for cls in exp:
            delta = abs(scores[cls] - exp[cls] / s)
            worst = max(worst, delta)
            assert delta <= 1e-12
    _pass(f"naive Bayes oracle: 5-doc corpus, max |delta| = {worst:.2e}")


def test_gradient_check_against_central_differences():
    rng = np.random.default_rng(11)
    h = 1e-5
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 12))
        d = int(rng.integers(2, 8))
        X = sparse.csr_matrix(rng.normal(size=(n, d)))
        y = (rng.random(n) > 0.5).astype(np.float64)
        w = rng.normal(size=d)
        b = float(rng.normal())
        l2 = float(rng.choice([0.0, 0.5, 1.0]))
        grad_w, grad_b = logreg_gradient(w, b, X, y, l2)
        numeric = np.empty(d + 1)
        for k in range(d):
            wp, wm = w.copy(), w.copy()
            wp[k] += h
            wm[k] -= h
            numeric[k] = (logreg_loss(wp, b, X, y, l2)
                          - logreg_loss(wm, b, X, y, l2)) / (2 * h)
        numeric[d] = (logreg_loss(w, b + h, X, y, l2)
                      - logreg_loss(w, b - h, X, y, l2)) / (2 * h)
        analytic = np.r_[grad_w, grad_b]
        rel = np.linalg.norm(analytic - numeric) / max(
            1.0, np.linalg.norm(numeric))
        worst = max(worst, rel)
        assert rel <= 1e-4
    _pass(f"gradient check: 50 instances, worst relative error = {worst:.2e}")


def test_fold_stratification_and_leakage_guard():
    labels = [cls for cls in METHOD_TYPES for _ in range(834)]
    folds = stratified_folds(labels, 10, seed=0)
    assert sorted(i for fold in folds for i in fold) == list(range(5004))
    for fold in folds:
        for cls in METHOD_TYPES:
            assert sum(1 for i in fold if labels[i] is cls) in (83, 84)

    # leakage probe: mutating a test-fold document must not change the model
    records = []
    texts = {RT.EXTRACT_METHOD: "extracted helper method",
             RT.MOVE_METHOD: "moved code around",
             RT.RENAME_METHOD: "renamed the method"}
    i = 0
    for cls, text in texts.items():
        for k in range(9):
            records.append(CommitRecord(f"r{i}", "p",
                                        f"{text} {'pad ' * (k % 3)}", cls))
            i += 1
    ds = Dataset(records)
    fold_idx = stratified_folds([r.label for r in ds], 3, seed=1)
    test_fold = fold_idx[0]
    train_idx = np.array(sorted(set(range(len(ds))) - set(test_fold)))
    config = ModelConfig(algorithm="nb")
    before = fit_fold(ds, train_idx, config, count_matrix(
        [featurize(r.message, config.n_max) for r in ds]))

    mutated = list(ds.records)
    victim = int(test_fold[0])
    mutated[victim] = CommitRecord(mutated[victim].id, "p",
                                   "wholly unrelated perturbation text",
                                   mutated[victim].label)
    after = fit_fold(Dataset(mutated), train_idx, config, count_matrix(
        [featurize(r.message, config.n_max) for r in mutated]))
    assert before.vocab.ngrams == after.vocab.ngrams
    assert np.array_equal(before.vocab.idf, after.vocab.idf)
    assert np.array_equal(before.vocab.fisher, after.vocab.fisher)
    assert before.estimator.to_dict() == after.estimator.to_dict()
    _pass("fold stratification 83/84 on the 6x834 shape; leakage probe clean")


def test_synthetic_corpus_experiment(gbt_cv):
    report, elapsed = gbt_cv
    assert elapsed < 120.0, f"10-fold CV took {elapsed:.1f}s"
    macro = report.macro.f_measure
    assert macro >= 0.70
    rename_f = report.per_class[RT.RENAME_METHOD].f_measure
    best = max(m.f_measure for m in report.per_class.values())
    assert rename_f == best
    _pass(f"synthetic experiment: gbt 10-fold CV {elapsed:.1f}s, "
          f"macro-F1 {macro:.3f}, Rename F1 {rename_f:.3f} is the maximum")


def test_baseline_below_every_ml_model(cv_reports, gbt_cv, synthetic_dataset):
    base = baseline_report(synthetic_dataset).macro.f_measure
    model_macros = {algo: rep.macro.f_measure
                    for algo, rep in cv_reports.items()}
    model_macros["gbt"] = gbt_cv[0].macro.f_measure
    for algo, macro in model_macros.items():
        assert base < macro, (algo, base, macro)

    label, matches = keyword_predict("Change name of `Decorator' to `Events'")
    assert label is None and matches == []
    label, _ = keyword_predict(
        "Extracting transactions from HadoopArchiveFileSystem.")
    assert label is RT.EXTRACT_METHOD
    label, matches = keyword_predict("the movie was moved")
    assert label is RT.MOVE_METHOD and matches == [RT.MOVE_METHOD]
    _pass(f"baseline contrast: macro-F1 {base:.3f} below "
          + ", ".join(f"{a}={m:.3f}" for a, m in sorted(model_macros.items()))
          + "; curated messages exact")


def test_cv_macro_regression_values(cv_reports, gbt_cv):
    # frozen from the first measured run on the bundled corpus; on this
    # pattern-built corpus naive Bayes outscores the boosted trees
    assert gbt_cv[0].macro.f_measure == pytest.approx(0.9076, abs=2e-3)
    assert cv_reports["nb"].macro.f_measure == pytest.approx(0.9543, abs=2e-3)
    assert cv_reports["logreg"].macro.f_measure == pytest.approx(0.9724, abs=2e-3)
    assert cv_reports["rf"].macro.f_measure == pytest.approx(0.9588, abs=2e-3)
    _pass("regression: frozen macro-F1 values reproduced for all four models")


@pytest.mark.parametrize("algo", ["rf", "gbt"])
def test_cli_train_determinism(algo, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    corpus = tmp_path / "corpus.jsonl"
    from refdoc.synthetic import generate_corpus
    save_corpus(generate_corpus(seed=1, per_class=25), corpus)
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out_a, out_b):
        assert cli_main(["train", str(corpus), "--algo", algo, "--seed", "17",
                         "--out", str(out)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    _pass(f"determinism: repeated `train --algo {algo}` byte-identical")


def test_replication_tier_if_corpus_available():
    path = os.environ.get("REFDOC_REPLICATION_CORPUS")
    if not path or not os.path.exists(path):
        pytest.skip("replication corpus not available; optional tier skipped")
    from refdoc.corpus import load_corpus
    ds = load_corpus(path)
    report = cross_validate(ds, ModelConfig(algorithm="gbt"), folds=10, seed=0)
    published = {RT.EXTRACT_METHOD: 0.69, RT.INLINE_METHOD: 0.45,
                 RT.MOVE_METHOD: 0.63, RT.PULL_UP_METHOD: 0.42,
                 RT.PUSH_DOWN_METHOD: 0.42, RT.RENAME_METHOD: 0.93}
    for cls, want in published.items():
        got = report.per_class[cls].f_measure
        assert abs(got - want) <= 0.10, (cls, got, want)
    _pass("replication tier: per-class F1 within 0.10 of the published column")
