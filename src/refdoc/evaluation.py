"""Stratified k-fold cross-validation, confusion matrices, and P/R/F.

Per-class F is evaluated in its integer form 2tp/(2tp+fp+fn), which equals
2PR/(P+R) exactly and keeps every metric a single correctly rounded
division; all 0/0 cases resolve to 0. Cross-validation counts each
message's n-grams once into one count matrix, pools one confusion matrix
over all folds and rebuilds vocabulary and model per fold from the
training folds' rows only, through pipeline.fit_counts, so training's
None-class rule holds. Featurization runs once in the caller; the folds
are independent and are fitted in worker processes (workers.map_parts),
each returning its (true, predicted) pairs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import pipeline
from .baseline import keyword_predict
from .corpus import (ALL_TYPES, PRNG_NAME, Dataset, RefactoringType,
                     present_types)
from .errors import EmptyCorpus, InsufficientClass, UnknownLabel
from .features import select_rows
from .workers import map_parts


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f_measure: float
    true_count: int = 0


@dataclass
class ConfusionMatrix:
    classes: Tuple[RefactoringType, ...]
    counts: np.ndarray  # row = true, column = predicted

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion_matrix(pairs, classes) -> ConfusionMatrix:
    classes = tuple(classes)
    idx = {c: i for i, c in enumerate(classes)}
    counts = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for true, pred in pairs:
        if true not in idx:
            raise UnknownLabel(f"true label {true} not in matrix classes")
        if pred not in idx:
            raise UnknownLabel(f"predicted label {pred} not in matrix classes")
        counts[idx[true], idx[pred]] += 1
    return ConfusionMatrix(classes=classes, counts=counts)


def per_class_metrics(matrix: ConfusionMatrix) -> Dict[RefactoringType, ClassMetrics]:
    """P = tp/(tp+fp), R = tp/(tp+fn), F = 2PR/(P+R), 0/0 -> 0."""
    out = {}
    counts = matrix.counts
    for i, cls in enumerate(matrix.classes):
        tp = int(counts[i, i])
        fp = int(counts[:, i].sum()) - tp
        fn = int(counts[i, :].sum()) - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f = (2 * tp) / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
        out[cls] = ClassMetrics(precision=precision, recall=recall,
                                f_measure=f, true_count=tp + fn)
    return out


def macro_metrics(per_class: Dict[RefactoringType, ClassMetrics]) -> ClassMetrics:
    """Unweighted mean over classes that actually occur as true labels.

    In cross-validation every matrix class has true instances, so this is
    the plain mean; classes appearing only as predictions (the baseline's
    no-match column) are left out of the average.
    """
    rows = [m for m in per_class.values() if m.true_count > 0]
    if not rows:
        rows = list(per_class.values())
    n = len(rows)
    return ClassMetrics(
        precision=sum(m.precision for m in rows) / n,
        recall=sum(m.recall for m in rows) / n,
        f_measure=sum(m.f_measure for m in rows) / n,
        true_count=sum(m.true_count for m in rows),
    )


@dataclass
class EvalReport:
    per_class: Dict[RefactoringType, ClassMetrics]
    macro: ClassMetrics
    matrix: ConfusionMatrix
    config: dict
    folds: int
    seed: int

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "folds": self.folds,
            "seed": self.seed,
            "prng": PRNG_NAME,
            "aggregation": "pooled confusion matrix over all folds",
            "zero_convention": "0/0 metrics reported as 0",
            "classes": [c.value for c in self.matrix.classes],
            "matrix": self.matrix.counts.tolist(),
            "per_class": {
                c.value: {"precision": m.precision, "recall": m.recall,
                          "f_measure": m.f_measure}
                for c, m in self.per_class.items()
            },
            "macro": {"precision": self.macro.precision,
                      "recall": self.macro.recall,
                      "f_measure": self.macro.f_measure},
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def format_table(self) -> str:
        """Aligned console table: one P/R/F1 row per refactoring type."""
        rows = [("Refactoring type", "P", "R", "F1")]
        for cls in self.matrix.classes:
            m = self.per_class[cls]
            rows.append((cls.value, f"{m.precision:.2f}", f"{m.recall:.2f}",
                         f"{m.f_measure:.2f}"))
        m = self.macro
        rows.append(("macro", f"{m.precision:.2f}", f"{m.recall:.2f}",
                     f"{m.f_measure:.2f}"))
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        lines = []
        for i, row in enumerate(rows):
            lines.append("  ".join(cell.ljust(widths[j]) if j == 0
                                   else cell.rjust(widths[j])
                                   for j, cell in enumerate(row)))
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)


def report_from_pairs(pairs, classes, config, folds, seed) -> EvalReport:
    matrix = confusion_matrix(pairs, classes)
    per_class = per_class_metrics(matrix)
    return EvalReport(per_class=per_class, macro=macro_metrics(per_class),
                      matrix=matrix, config=config, folds=folds, seed=seed)


def baseline_report(dataset: Dataset) -> EvalReport:
    """Keyword-baseline confusion over a labeled corpus (no folds).

    Messages the baseline cannot match are tallied in the None column;
    the macro row averages over the classes with true instances, so the
    synthetic column does not dilute it.
    """
    pairs = []
    for rec in dataset:
        if rec.label is None:
            continue
        label, _ = keyword_predict(rec.message)
        pred = label if label is not None else RefactoringType.NONE
        pairs.append((rec.label, pred))
    if not pairs:
        raise EmptyCorpus("the baseline report needs labeled records")
    classes = present_types(t for pair in pairs for t in pair)
    return report_from_pairs(pairs, classes,
                             {"algorithm": "keyword-baseline"},
                             folds=0, seed=0)


def stratified_folds(labels: Sequence[RefactoringType], folds: int,
                     seed: int) -> List[np.ndarray]:
    """Per-fold index arrays with class counts differing by at most one.

    Indices of each class are shuffled and dealt round-robin, classes in
    canonical order, from one seeded generator.
    """
    if folds < 2:
        raise ValueError("folds must be >= 2")
    rng = np.random.default_rng(seed)
    assignment = [[] for _ in range(folds)]
    for cls in ALL_TYPES:
        positions = [i for i, lab in enumerate(labels) if lab == cls]
        if not positions:
            continue
        if len(positions) < folds:
            raise InsufficientClass(cls.value, len(positions), folds)
        positions = np.asarray(positions)
        order = rng.permutation(positions.size)
        for f in range(folds):
            assignment[f].extend(positions[order[f::folds]])
    return [np.array(sorted(a), dtype=np.int64) for a in assignment]


def fit_fold(dataset: Dataset, train_idx, config, matrix):
    """Vocabulary and model from the train_idx rows only, given the
    (ngrams, counts) count matrix of every row from pipeline.count_matrix."""
    ngrams, counts = matrix
    labels = [dataset.records[i].label for i in train_idx]
    return pipeline.fit_counts(select_rows(counts, train_idx), ngrams,
                               labels, config)


def cross_validate(dataset: Dataset, config, folds: int = 10,
                   seed: int = 0) -> EvalReport:
    """Stratified k-fold CV; the report pools one matrix over all folds."""
    records = dataset.records
    if any(r.label is None for r in records):
        raise UnknownLabel("cross-validation needs a fully labeled dataset")
    labels = [r.label for r in records]
    fold_idx = stratified_folds(labels, folds, seed)
    classes = dataset.classes()
    doc_counts = [pipeline.featurize(r.message, config.n_max) for r in records]
    matrix = pipeline.count_matrix(doc_counts)

    def fold_pairs(test_idx):
        train_idx = np.setdiff1d(np.arange(len(records)), test_idx)
        model = fit_fold(dataset, train_idx, config, matrix)
        predicted = pipeline.predict_counts(
            model, [doc_counts[i] for i in test_idx])
        return [(labels[i], label)
                for i, (label, _) in zip(test_idx, predicted)]

    per_fold = map_parts(lambda chunk: [fold_pairs(t) for t in chunk],
                         fold_idx)
    pairs = [pair for fold in per_fold for pair in fold]
    return report_from_pairs(pairs, classes, asdict(config), folds, seed)
