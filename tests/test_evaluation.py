import os
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from refdoc import pipeline, textprep, workers
from refdoc.classifiers import ModelConfig
from refdoc.corpus import CommitRecord, Dataset, METHOD_TYPES
from refdoc.corpus import RefactoringType as RT
from refdoc.errors import InsufficientClass, UnknownLabel
from refdoc.evaluation import (
    ConfusionMatrix,
    baseline_report,
    confusion_matrix,
    cross_validate,
    fit_fold,
    macro_metrics,
    per_class_metrics,
    report_from_pairs,
    stratified_folds,
)
from refdoc.synthetic import generate_corpus

C2 = (RT.EXTRACT_METHOD, RT.RENAME_METHOD)


def test_confusion_matrix_diagonal_on_perfect_predictions():
    pairs = [(c, c) for c in METHOD_TYPES for _ in range(3)]
    m = confusion_matrix(pairs, METHOD_TYPES)
    assert np.array_equal(m.counts, np.eye(6, dtype=np.int64) * 3)


def test_confusion_matrix_single_cell():
    pairs = [(RT.EXTRACT_METHOD, RT.MOVE_METHOD)] * 3
    m = confusion_matrix(pairs, METHOD_TYPES)
    i = METHOD_TYPES.index(RT.EXTRACT_METHOD)
    j = METHOD_TYPES.index(RT.MOVE_METHOD)
    assert m.counts[i, j] == 3
    assert m.total == 3


def test_confusion_matrix_matches_brute_force_tally():
    rng = np.random.default_rng(0)
    pairs = [(METHOD_TYPES[rng.integers(0, 6)], METHOD_TYPES[rng.integers(0, 6)])
             for _ in range(20)]
    m = confusion_matrix(pairs, METHOD_TYPES)
    for i, true in enumerate(METHOD_TYPES):
        for j, pred in enumerate(METHOD_TYPES):
            assert m.counts[i, j] == sum(
                1 for t, p in pairs if t is true and p is pred)


def test_confusion_matrix_rejects_unknown_label():
    with pytest.raises(UnknownLabel):
        confusion_matrix([(RT.NONE, RT.NONE)], METHOD_TYPES)


def test_precision_from_counts():
    m = ConfusionMatrix(classes=C2,
                        counts=np.array([[3, 0], [1, 0]], dtype=np.int64))
    metrics = per_class_metrics(m)[RT.EXTRACT_METHOD]
    assert metrics.precision == 0.75


def test_zero_over_zero_metrics_are_zero():
    m = ConfusionMatrix(classes=C2,
                        counts=np.array([[0, 0], [0, 5]], dtype=np.int64))
    metrics = per_class_metrics(m)[RT.EXTRACT_METHOD]
    assert (metrics.precision, metrics.recall, metrics.f_measure) == (0, 0, 0)


def test_f_bounded_by_precision_and_recall():
    rng = np.random.default_rng(1)
    for _ in range(200):
        counts = rng.integers(0, 100, size=(3, 3)).astype(np.int64)
        m = ConfusionMatrix(classes=(RT.EXTRACT_METHOD, RT.MOVE_METHOD,
                                     RT.RENAME_METHOD), counts=counts)
        for metrics in per_class_metrics(m).values():
            p, r, f = metrics.precision, metrics.recall, metrics.f_measure
            if p + r > 0:
                assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12
            else:
                assert f == 0.0


def test_f_equals_exact_fraction_arithmetic():
    rng = np.random.default_rng(2)
    for _ in range(100):
        counts = rng.integers(0, 100, size=(4, 4)).astype(np.int64)
        classes = tuple(METHOD_TYPES[:4])
        m = ConfusionMatrix(classes=classes, counts=counts)
        metrics = per_class_metrics(m)
        for i, cls in enumerate(classes):
            tp = int(counts[i, i])
            fp = int(counts[:, i].sum()) - tp
            fn = int(counts[i, :].sum()) - tp
            p = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
            r = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
            f = 2 * p * r / (p + r) if p + r else Fraction(0)
            assert metrics[cls].f_measure == float(f)


def test_macro_is_mean_of_per_class_f():
    rng = np.random.default_rng(3)
    counts = rng.integers(1, 50, size=(6, 6)).astype(np.int64)
    m = ConfusionMatrix(classes=METHOD_TYPES, counts=counts)
    per_class = per_class_metrics(m)
    macro = macro_metrics(per_class)
    mean_f = sum(v.f_measure for v in per_class.values()) / 6
    assert abs(macro.f_measure - mean_f) <= 1e-12


def test_stratified_folds_balanced_5004():
    labels = [c for c in METHOD_TYPES for _ in range(834)]
    folds = stratified_folds(labels, 10, seed=0)
    assert sorted(i for fold in folds for i in fold) == list(range(5004))
    for fold in folds:
        for cls in METHOD_TYPES:
            n = sum(1 for i in fold if labels[i] is cls)
            assert n in (83, 84)


def test_stratified_folds_two_by_two():
    labels = [RT.EXTRACT_METHOD, RT.RENAME_METHOD,
              RT.EXTRACT_METHOD, RT.RENAME_METHOD]
    folds = stratified_folds(labels, 2, seed=0)
    for fold in folds:
        assert sum(1 for i in fold if labels[i] is RT.EXTRACT_METHOD) == 1
        assert sum(1 for i in fold if labels[i] is RT.RENAME_METHOD) == 1


def test_stratified_folds_insufficient_class():
    labels = [RT.EXTRACT_METHOD] * 10 + [RT.RENAME_METHOD]
    with pytest.raises(InsufficientClass):
        stratified_folds(labels, 2, seed=0)


def small_cv_dataset(n_per_class=12):
    records = []
    words = {RT.EXTRACT_METHOD: "extracted helper method",
             RT.MOVE_METHOD: "moved code around",
             RT.RENAME_METHOD: "renamed the method"}
    i = 0
    for cls, text in words.items():
        for k in range(n_per_class):
            records.append(CommitRecord(f"r{i}", "p", f"{text} {'x' * (k % 3 + 1)}",
                                        cls))
            i += 1
    return Dataset(records)


def test_cross_validate_counts_each_record_once():
    ds = small_cv_dataset()
    report = cross_validate(ds, ModelConfig(algorithm="nb"), folds=3, seed=0)
    assert report.matrix.total == len(ds)


def test_cross_validate_deterministic():
    ds = small_cv_dataset()
    r1 = cross_validate(ds, ModelConfig(algorithm="nb"), folds=3, seed=5)
    r2 = cross_validate(ds, ModelConfig(algorithm="nb"), folds=3, seed=5)
    assert r1.to_json() == r2.to_json()
    assert np.array_equal(r1.matrix.counts, r2.matrix.counts)


def fold_model(ds, train_idx):
    """fit_fold as cross_validate calls it: the count matrix of every row
    is passed."""
    config = ModelConfig(algorithm="nb")
    return fit_fold(ds, train_idx, config, pipeline.count_matrix(
        [pipeline.featurize(r.message, config.n_max) for r in ds]))


def test_fold_models_ignore_test_fold_documents():
    ds = small_cv_dataset()
    labels = [r.label for r in ds]
    folds = stratified_folds(labels, 3, seed=0)
    test_idx = folds[0]
    train_idx = np.array(sorted(set(range(len(ds))) - set(test_idx)))

    model_a = fold_model(ds, train_idx)

    perturbed = list(ds.records)
    victim = int(test_idx[0])
    perturbed[victim] = CommitRecord(
        perturbed[victim].id, "p", "entirely different unrelated words",
        perturbed[victim].label)
    model_b = fold_model(Dataset(perturbed), train_idx)

    assert model_a.vocab.ngrams == model_b.vocab.ngrams
    assert np.array_equal(model_a.vocab.idf, model_b.vocab.idf)
    assert np.array_equal(model_a.vocab.fisher, model_b.vocab.fisher)
    assert model_a.estimator.to_dict() == model_b.estimator.to_dict()


def test_report_table_has_per_type_columns():
    ds = small_cv_dataset()
    report = cross_validate(ds, ModelConfig(algorithm="nb"), folds=3, seed=0)
    table = report.format_table()
    head = table.splitlines()[0]
    for col in ("Refactoring type", "P", "R", "F1"):
        assert col in head
    assert "macro" in table.splitlines()[-1]


def test_baseline_report_no_match_goes_to_none_column(synthetic_dataset):
    report = baseline_report(synthetic_dataset)
    assert RT.NONE in report.matrix.classes
    none_metrics = report.per_class[RT.NONE]
    assert none_metrics.true_count == 0
    # macro averages only classes with true instances
    mean_f = sum(report.per_class[c].f_measure for c in METHOD_TYPES) / 6
    assert report.macro.f_measure == pytest.approx(mean_f, abs=1e-12)


def per_fold_fit_report(ds, config):
    """The 3-fold CV report (seed 4) from pipeline.fit and
    pipeline.predict_message on each fold's own Dataset."""
    folds = stratified_folds([r.label for r in ds], 3, seed=4)
    pairs = []
    for test_idx in folds:
        held_out = set(test_idx.tolist())
        model = pipeline.fit(Dataset([r for i, r in enumerate(ds.records)
                                      if i not in held_out]), config)
        for i in test_idx:
            rec = ds.records[i]
            label, _ = pipeline.predict_message(model, rec.message)
            pairs.append((rec.label, label))
    snapshot = {"algorithm": config.algorithm,
                "hyperparameters": config.hyperparameters,
                "n_max": config.n_max, "k_select": config.k_select,
                "seed": config.seed, "include_none": config.include_none}
    return report_from_pairs(pairs, ds.classes(), snapshot, 3, 4)


@pytest.mark.parametrize("algorithm", ["nb", "gbt"])
def test_cross_validate_equals_fit_and_predict_per_fold(algorithm):
    ds = generate_corpus(seed=3, per_class=10)
    config = ModelConfig(algorithm=algorithm)
    expected = per_fold_fit_report(ds, config)
    got = cross_validate(ds, config, folds=3, seed=4)
    assert got.to_json() == expected.to_json()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_gbt_cross_validate_equals_fit_and_predict_per_fold_at_every_worker_count(
        cpus, monkeypatch, forked_pids):
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    ds = generate_corpus(seed=3, per_class=10)
    config = ModelConfig(algorithm="gbt")
    expected = per_fold_fit_report(ds, config)
    forked_pids.clear()
    got = cross_validate(ds, config, folds=3, seed=4)
    assert len(forked_pids) == cpus - 1
    assert got.to_json() == expected.to_json()


def test_fold_error_in_a_worker_keeps_its_type(monkeypatch, forked_pids):
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    caller = os.getpid()
    fit_counts = pipeline.fit_counts

    def failing_in_a_child(*args):
        if os.getpid() != caller:
            raise InsufficientClass("RenameMethod", 1, 2)
        return fit_counts(*args)

    monkeypatch.setattr(pipeline, "fit_counts", failing_in_a_child)
    with pytest.raises(InsufficientClass) as info:
        cross_validate(small_cv_dataset(), ModelConfig(algorithm="nb"),
                       folds=3, seed=0)
    assert (info.value.label, info.value.available,
            info.value.requested) == ("RenameMethod", 1, 2)
    assert len(forked_pids) == 1
    for pid in forked_pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_cross_validate_preprocesses_each_message_once(monkeypatch):
    # one process, so that the count also sees every fold's work
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
    seen = []
    original = textprep.preprocess

    def counting(message):
        seen.append(message)
        return original(message)

    monkeypatch.setattr(textprep, "preprocess", counting)
    ds = small_cv_dataset()
    cross_validate(ds, ModelConfig(algorithm="nb"), folds=3, seed=0)
    assert Counter(seen) == Counter(r.message for r in ds)


def test_cross_validate_builds_no_dataset_per_fold(monkeypatch):
    # one process, so that the count also sees every fold's work
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
    ds = small_cv_dataset()
    built = []
    original = Dataset.__init__

    def counting(self, records):
        built.append(self)
        original(self, records)

    monkeypatch.setattr(Dataset, "__init__", counting)
    cross_validate(ds, ModelConfig(algorithm="nb"), folds=3, seed=0)
    assert built == []
