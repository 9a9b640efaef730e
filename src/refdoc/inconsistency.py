"""Agreement analysis between detector labels and message-based predictions.

Every (detector, predicted) pair falls in exactly one case: Consistent,
DocMissing (code shows a refactoring the message does not), CodeMissing
(message claims a refactoring the code does not show), or TypeMismatch
(both refactor, types differ). Requires a model trained with the None
class so "no refactoring" is a reachable prediction.
"""

from __future__ import annotations

import enum
import json

from . import pipeline
from .corpus import Dataset, RefactoringType

MAX_EXAMPLES = 10  # example ids listed per case


class InconsistencyCase(enum.Enum):
    CONSISTENT = "Consistent"
    DOC_MISSING = "DocMissing"      # case 1: code refactors, message silent
    CODE_MISSING = "CodeMissing"    # case 2: message claims, code silent
    TYPE_MISMATCH = "TypeMismatch"  # case 3: documented type differs

    def __str__(self):
        return self.value


def classify_pair(detector: RefactoringType,
                  predicted: RefactoringType) -> InconsistencyCase:
    none = RefactoringType.NONE
    if detector == predicted:
        return InconsistencyCase.CONSISTENT
    if detector is not none and predicted is none:
        return InconsistencyCase.DOC_MISSING
    if detector is none and predicted is not none:
        return InconsistencyCase.CODE_MISSING
    return InconsistencyCase.TYPE_MISMATCH


def inconsistency_report(dataset: Dataset, model) -> dict:
    """Counts, percentages, and example ids per case over a labeled corpus.

    The dataset labels are treated as detector output; the model must have
    been trained with include_none.
    """
    if not model.config.include_none:
        raise ValueError("inconsistency analysis needs a model trained "
                         "with include_none")
    labeled = [rec for rec in dataset if rec.label is not None]
    predicted = pipeline.predict_counts(model, [
        pipeline.featurize(rec.message, model.vocab.n_max) for rec in labeled])
    counts = {case: 0 for case in InconsistencyCase}
    examples = {case: [] for case in InconsistencyCase}
    for rec, (pred, _) in zip(labeled, predicted):
        case = classify_pair(rec.label, pred)
        counts[case] += 1
        if len(examples[case]) < MAX_EXAMPLES:
            examples[case].append(rec.id)
    total = len(labeled)
    return {
        "total": total,
        "counts": {case.value: counts[case] for case in InconsistencyCase},
        "percentages": {
            case.value: (100.0 * counts[case] / total if total else 0.0)
            for case in InconsistencyCase
        },
        "examples": {case.value: examples[case] for case in InconsistencyCase},
    }


def format_report(report: dict) -> str:
    lines = [f"{'Case':<14}{'Count':>8}{'Percent':>10}"]
    for case in InconsistencyCase:
        name = case.value
        lines.append(f"{name:<14}{report['counts'][name]:>8}"
                     f"{report['percentages'][name]:>9.2f}%")
    lines.append(f"{'total':<14}{report['total']:>8}")
    return "\n".join(lines)


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
